import gc
import math
import random
import re
import tracemalloc
import weakref
from collections import Counter
from itertools import combinations
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import zeta

from biblionet import graph_stats
from biblionet.errors import DegenerateDataError
from biblionet.graph_stats import (
    AssortativityResult,
    _brandes_dependencies,
    _component_distance_sums,
    _distance_sums,
    _hurwitz_zeta,
    avg_shortest_path,
    betweenness_centrality,
    centrality_table,
    closeness_centrality,
    clustering,
    degree_assortativity,
    degree_centrality,
    fit_power_law,
    largest_component_subgraph,
    per_component_assortativity,
    small_world_check,
)
from biblionet.graphs import GraphKind, connected_components, graph_facts
from oracles import (
    PairGraph,
    add_pair,
    add_pair_graph,
    batched_betweenness,
    bfs_distances,
    brandes_dependencies,
    brute_assortativity,
    brute_betweenness,
    brute_closeness,
    brute_degree_centrality,
    build_from_column,
    built,
    compact_csr,
    graph_of,
    listwise_hurwitz_zeta,
    neighbor_sets,
    random_graph,
    sample_discrete_power_law,
    scipy_fit_power_law,
    set_clustering,
    string_set_components,
    value_columns,
)


def graph_from_edges(edges, extra_nodes=()):
    return graph_of(GraphKind.COAUTHOR, edges, extra_nodes)


def path3():
    return graph_from_edges([("a", "b"), ("b", "c")])


def star(leaves=5):
    return graph_from_edges([("hub", f"leaf{i}") for i in range(leaves)])


def complete(n):
    return graph_from_edges(combinations([f"v{i}" for i in range(n)], 2))


def cycle(n):
    names = [f"c{i:04d}" for i in range(n)]
    return graph_from_edges([(names[i], names[(i + 1) % n]) for i in range(n)])


def path(n):
    names = [f"p{i:04d}" for i in range(n)]
    return graph_from_edges(zip(names, names[1:]))


class TestDegreeCentrality:
    def test_path(self):
        assert degree_centrality(path3()) == {"a": 0.5, "b": 1.0, "c": 0.5}

    def test_complete_graph(self):
        assert set(degree_centrality(complete(4)).values()) == {1.0}

    def test_star(self):
        values = degree_centrality(star(5))
        assert values["hub"] == 1.0
        assert values["leaf0"] == pytest.approx(0.2)

    def test_single_node_errors(self):
        with pytest.raises(DegenerateDataError):
            degree_centrality(graph_from_edges([], ["x"]))


class TestBetweenness:
    def test_path_interior(self):
        assert betweenness_centrality(path3()) == {"a": 0.0, "b": 1.0, "c": 0.0}

    def test_cycle4(self):
        g = graph_from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
        for value in betweenness_centrality(g).values():
            assert value == pytest.approx(1 / 6)

    def test_complete_graph_zero(self):
        assert set(betweenness_centrality(complete(5)).values()) == {0.0}

    def test_star_center_is_one(self):
        for leaves in (3, 5, 8):
            assert betweenness_centrality(star(leaves))["hub"] == pytest.approx(1.0)

    def test_small_graphs_all_zero(self):
        assert betweenness_centrality(graph_from_edges([("a", "b")])) == {"a": 0.0, "b": 0.0}

    def test_matches_oracle_on_random_graphs(self):
        for seed in range(25):
            g = random_graph(seed, max_nodes=25)
            mine = betweenness_centrality(g)
            expected = brute_betweenness(g)
            for node in g.nodes:
                assert mine[node] == pytest.approx(expected[node], abs=1e-9)

    def test_sampled_full_coverage_equals_exact(self):
        g = random_graph(77, max_nodes=30)
        exact = betweenness_centrality(g)
        sampled = betweenness_centrality(g, sample_sources=g.node_count, seed=3)
        assert sampled == exact  # bit-identical, not just close

    def test_sampled_is_seeded_and_deterministic(self):
        g = random_graph(78, max_nodes=40)
        a = betweenness_centrality(g, sample_sources=10, seed=5)
        b = betweenness_centrality(g, sample_sources=10, seed=5)
        c = betweenness_centrality(g, sample_sources=10, seed=6)
        assert a == b
        assert a != c

    def test_path_counting_conservation(self):
        # sum of raw dependencies equals sum over ordered pairs of (d-1)
        from oracles import allpairs_matrices
        for seed in (1, 2, 3):
            g = random_graph(seed, max_nodes=20)
            comp = largest_component_subgraph(g)
            n = comp.node_count
            if n < 3:
                continue
            values = betweenness_centrality(comp)
            raw_total = sum(values.values()) * (n - 1) * (n - 2)
            _, dist, _ = allpairs_matrices(comp)
            expected = sum(
                dist[s, t] - 1
                for s in range(n) for t in range(n)
                if s != t and np.isfinite(dist[s, t])
            )
            assert raw_total == pytest.approx(expected, rel=1e-9)


class TestCloseness:
    def test_path_conventional(self):
        values = closeness_centrality(path3())
        assert values["b"] == pytest.approx(1.0)
        assert values["a"] == pytest.approx(2 / 3)

    def test_path_literal_form(self):
        values = closeness_centrality(path3(), literal=True)
        assert values["b"] == pytest.approx(1.5)
        assert values["a"] == pytest.approx(1.0)

    def test_k3_literal_symmetry(self):
        values = closeness_centrality(complete(3), literal=True)
        assert set(values.values()) == {1.5}

    def test_singleton_component_omitted(self):
        g = graph_from_edges([("a", "b")], extra_nodes=["zz"])
        values = closeness_centrality(g)
        assert "zz" not in values
        assert set(values) == {"a", "b"}

    def test_matches_oracle_on_random_graphs(self):
        for seed in range(15):
            g = random_graph(seed + 100, max_nodes=25)
            for literal in (False, True):
                mine = closeness_centrality(g, literal=literal)
                expected = brute_closeness(g, literal=literal)
                assert set(mine) == set(expected)
                for node, value in expected.items():
                    assert mine[node] == pytest.approx(value, abs=1e-9)


class TestClustering:
    def test_triangle(self):
        coeffs, average = clustering(complete(3))
        assert set(coeffs.values()) == {1.0}
        assert average == 1.0

    def test_path_zero(self):
        coeffs, average = clustering(path3())
        assert set(coeffs.values()) == {0.0}
        assert average == 0.0

    def test_k4_minus_edge(self):
        g = graph_from_edges([("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
        coeffs, average = clustering(g)
        assert coeffs["a"] == pytest.approx(2 / 3)
        assert coeffs["c"] == pytest.approx(1.0)
        assert average == pytest.approx(5 / 6)

    def test_empty_graph_errors(self):
        with pytest.raises(DegenerateDataError):
            clustering(graph_from_edges([]))

    def test_matches_networkx(self):
        for seed in range(10):
            g = random_graph(seed + 300, max_nodes=30)
            G = nx.Graph()
            G.add_nodes_from(g.nodes)
            G.add_edges_from(g.edges)
            coeffs, average = clustering(g)
            expected = nx.clustering(G)
            for node in g.nodes:
                assert coeffs[node] == pytest.approx(expected[node], abs=1e-12)
            assert average == pytest.approx(nx.average_clustering(G), abs=1e-12)


class TestAvgShortestPath:
    def test_path3(self):
        assert avg_shortest_path(path3()) == pytest.approx(4 / 3)

    def test_complete(self):
        assert avg_shortest_path(complete(6)) == pytest.approx(1.0)

    def test_two_node_edge(self):
        assert avg_shortest_path(graph_from_edges([("a", "b")])) == pytest.approx(1.0)

    def test_computed_on_largest_component(self):
        g = graph_from_edges([("a", "b"), ("b", "c"), ("x", "y")])
        assert avg_shortest_path(g) == pytest.approx(4 / 3)

    def test_too_small_errors(self):
        with pytest.raises(DegenerateDataError):
            avg_shortest_path(graph_from_edges([], ["x"]))


class TestSmallWorld:
    def test_k10_consistent(self):
        report = small_world_check(complete(10))
        assert report.avg_shortest_path == pytest.approx(1.0)
        assert report.ln_node_count == pytest.approx(math.log(10))
        assert "small-world-consistent" in report.verdict

    def test_ring_lattice_not_small_world(self):
        report = small_world_check(cycle(300))
        assert report.avg_shortest_path > 70
        assert "not-small-world" in report.verdict

    def test_clustering_reported_on_largest_component(self):
        g = graph_from_edges([("a", "b"), ("b", "c"), ("a", "c"), ("x", "y")])
        report = small_world_check(g)
        assert report.avg_clustering == pytest.approx(1.0)


def assert_zeta_matches_scipy(alphas, qs):
    alphas = np.asarray(alphas, dtype=np.float64)
    qs = np.asarray(qs, dtype=np.int64)
    ours = _hurwitz_zeta(alphas, qs)
    expected = zeta(alphas[:, None], qs[None, :].astype(np.float64))
    assert ours.shape == expected.shape
    differing = int((ours != expected).sum())
    assert differing == 0, f"{differing} of {ours.size} values differ"


class TestHurwitzZeta:
    """Exact equality with scipy.special.zeta over the fit's whole domain."""

    def test_fit_grid_by_every_base_to_3000(self):
        assert_zeta_matches_scipy(np.arange(1.01, 6.0, 0.01), np.arange(1, 3001))

    def test_refinement_grid_by_every_37th_base(self):
        assert_zeta_matches_scipy(np.arange(1.0001, 6.02, 0.0005), np.append(np.arange(1, 3001, 37), 3000))

    def test_edge_exponents_and_bases(self):
        assert_zeta_matches_scipy([1.0001, 1.01, 5.99, 6.0, 6.02], [1, 2, 9, 10, 3000])

    def test_unsorted_repeated_bases_keep_their_columns(self):
        qs = [40, 3, 3, 1, 2999, 40, 7]
        assert_zeta_matches_scipy([2.5, 1.37], qs)
        alone = [_hurwitz_zeta([2.5], [q])[0, 0] for q in qs]
        assert _hurwitz_zeta([2.5], qs)[0].tolist() == alone


def assert_fit_matches_oracle(degrees):
    """The whole PowerLawFit, or the same error, as the scipy-backed fit."""
    try:
        expected = scipy_fit_power_law(degrees)
    except (DegenerateDataError, ValueError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            fit_power_law(degrees)
        return
    assert fit_power_law(degrees) == expected


def gappy_degrees(seed: int) -> list[int]:
    """Many small repeated degrees, a few isolated mid values and a long tail."""
    rng = random.Random(seed)
    degrees = [rng.choice((1, 1, 1, 2, 2, 3, 5)) for _ in range(rng.randint(40, 400))]
    degrees += rng.sample((8, 13, 14, 60, 61, 250), rng.randint(0, 6))
    degrees += [int(rng.paretovariate(rng.uniform(0.6, 1.8))) for _ in range(rng.randint(10, 200))]
    rng.shuffle(degrees)
    return degrees


class TestFitPowerLawMatchesScipyOracle:
    @pytest.mark.parametrize("gamma,n,seed", [(2.3, 5_000, 7), (2.5, 30_000, 123), (2.5, 100_000, 0)])
    def test_sampled_power_laws(self, gamma, n, seed):
        assert_fit_matches_oracle(sample_discrete_power_law(gamma, n, seed))

    @pytest.mark.parametrize("seed", range(12))
    def test_gappy_degree_lists(self, seed):
        assert_fit_matches_oracle(gappy_degrees(seed))

    def test_error_paths(self):
        for degrees in ([3] * 100, [1, 2, 3], [0] * 60, [1] * 49 + [2]):
            assert_fit_matches_oracle(degrees)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.one_of(st.integers(1, 6), st.integers(1, 3000)), min_size=50, max_size=300))
    def test_hypothesis_degree_lists(self, degrees):
        assert_fit_matches_oracle(degrees)


ZETA_BLOCKS = [1, 7, 499, 10_000]


class TestBlockedZetaTable:
    """Whatever the block size, the blocked in-place table is the
    list-of-lists one bit for bit, and the fit does not change."""

    @pytest.mark.parametrize("block", ZETA_BLOCKS)
    def test_tables_are_hex_equal_to_the_listwise_ones(self, monkeypatch, block):
        monkeypatch.setattr(graph_stats, "_ZETA_BLOCK", block)
        for alphas, qs in (
            (np.arange(1.01, 6.0, 0.01), np.arange(1, 400)),
            (np.arange(1.0001, 6.02, 0.0005), [40, 3, 3, 1, 2999, 40, 7]),
            ([1.0001, 2.5, 6.02], [1]),
        ):
            ours, expected = _hurwitz_zeta(alphas, qs), listwise_hurwitz_zeta(alphas, qs)
            assert ours.shape == expected.shape
            assert list(map(float.hex, ours.ravel().tolist())) == list(map(float.hex, expected.ravel().tolist()))

    @pytest.mark.parametrize("block", ZETA_BLOCKS)
    def test_fits_match_the_oracle(self, monkeypatch, block):
        monkeypatch.setattr(graph_stats, "_ZETA_BLOCK", block)
        assert_fit_matches_oracle(sample_discrete_power_law(2.3, 5_000, 7))
        for seed in range(12):
            assert_fit_matches_oracle(gappy_degrees(seed))

    def test_fit_peaks_in_bounded_memory(self):
        # 101 distinct degrees; the list-of-lists table peaked at 7.2 MiB here
        degrees = sample_discrete_power_law(1.8, 2_000, 0)
        fit_power_law(degrees)  # numpy's lazy imports allocate on first use
        tracemalloc.start()
        try:
            fit_power_law(degrees)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2**20


class TestFitPowerLaw:
    def test_recovers_seeded_exponent(self):
        degrees = sample_discrete_power_law(2.5, 30_000, seed=123)
        fit = fit_power_law(degrees)
        assert abs(fit.gamma - 2.5) <= 0.05
        assert fit.xmin == 1
        assert fit.n_tail <= degrees.size

    def test_all_equal_errors(self):
        with pytest.raises(DegenerateDataError):
            fit_power_law([3] * 100)

    def test_too_few_samples_errors(self):
        with pytest.raises(DegenerateDataError):
            fit_power_law([1, 2, 3])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law([0] * 60)

    def test_scale_consistency_under_duplication(self):
        degrees = sample_discrete_power_law(2.3, 5_000, seed=7).tolist()
        once = fit_power_law(degrees)
        twice = fit_power_law(degrees + degrees)
        assert twice.gamma == once.gamma
        assert twice.xmin == once.xmin
        assert twice.n_tail == 2 * once.n_tail

    def test_geometric_sample_fits_worse(self):
        power = sample_discrete_power_law(2.5, 30_000, seed=42)
        rng = np.random.default_rng(42)
        geometric = rng.geometric(0.35, size=30_000)
        assert fit_power_law(geometric).ks_statistic > fit_power_law(power).ks_statistic

    def test_gamma_above_one(self):
        degrees = sample_discrete_power_law(2.5, 5_000, seed=9)
        assert fit_power_law(degrees).gamma > 1.0


class TestAssortativity:
    def test_star_is_minus_one(self):
        result = degree_assortativity(star(5))
        assert result.r == -1.0

    def test_regular_graph_undefined(self):
        assert degree_assortativity(cycle(5)).r is None
        assert degree_assortativity(complete(4)).r is None

    def test_two_disjoint_edges_undefined(self):
        g = graph_from_edges([("a", "b"), ("c", "d")])
        assert degree_assortativity(g).r is None

    def test_edgeless_errors(self):
        with pytest.raises(DegenerateDataError):
            degree_assortativity(graph_from_edges([], "ab"))

    def test_matches_direct_pearson_oracle(self):
        for seed in range(40):
            g = random_graph(seed + 500, max_nodes=30)
            if not g.edges:
                continue  # edgeless graphs raise, covered elsewhere
            result = degree_assortativity(g)
            expected = brute_assortativity(g)
            if expected is None:
                assert result.r is None
            else:
                assert result.r == pytest.approx(expected, abs=1e-12)

    def test_erdos_renyi_near_zero(self):
        # sparse random graphs are nearly unassorted; statistical check
        hits = 0
        for seed in range(100):
            G = nx.fast_gnp_random_graph(2000, 0.005, seed=seed)
            g = graph_from_edges([(f"n{a:04d}", f"n{b:04d}") for a, b in G.edges], [f"n{i:04d}" for i in G.nodes])
            result = degree_assortativity(g)
            if result.r is not None and -0.1 <= result.r <= 0.1:
                hits += 1
        assert hits >= 95


class TestPerComponentAssortativity:
    def test_triangle_single_undefined(self):
        results = per_component_assortativity(complete(3))
        assert results == [AssortativityResult(r=None, component_size=3)]

    def test_star_plus_path_by_brute_force(self):
        g = graph_from_edges([
            ("hub", "l1"), ("hub", "l2"), ("hub", "l3"),   # star, size 4
            ("p1", "p2"), ("p2", "p3"),                    # path, size 3
        ])
        results = per_component_assortativity(g)
        assert [r.component_size for r in results] == [4, 3]
        star_graph = graph_from_edges([("hub", "l1"), ("hub", "l2"), ("hub", "l3")])
        path_graph = graph_from_edges([("p1", "p2"), ("p2", "p3")])
        assert results[0].r == pytest.approx(brute_assortativity(star_graph), abs=1e-12)
        assert results[1].r == pytest.approx(brute_assortativity(path_graph), abs=1e-12)

    def test_empty_graph(self):
        assert per_component_assortativity(graph_from_edges([])) == []

    def test_isolated_component_undefined(self):
        g = graph_from_edges([("a", "b"), ("b", "c")], extra_nodes=["solo"])
        results = per_component_assortativity(g)
        assert [r.component_size for r in results] == [3, 1]
        assert results[1].r is None


class TestCentralityTable:
    def test_star_hub_tops_every_column(self):
        rows = centrality_table(star(5))
        top = rows[0]
        assert top.node == "hub"
        assert top.degree == max(row.degree for row in rows)
        assert top.betweenness == max(row.betweenness for row in rows)
        assert top.closeness == max(row.closeness for row in rows)

    def test_k3_rows_identical(self):
        rows = centrality_table(complete(3))
        values = {(row.degree, row.betweenness, row.closeness) for row in rows}
        assert len(values) == 1

    def test_six_node_fixture_matches_oracles(self):
        g = graph_from_edges([
            ("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("b", "e"), ("e", "f"),
        ])
        rows = centrality_table(g)
        deg = brute_degree_centrality(g)
        btw = brute_betweenness(g)
        clo = brute_closeness(g)
        for row in rows:
            assert row.degree == pytest.approx(deg[row.node], abs=1e-9)
            assert row.betweenness == pytest.approx(btw[row.node], abs=1e-9)
            assert row.closeness == pytest.approx(clo[row.node], abs=1e-9)

    def test_default_scope_is_largest_component(self):
        g = graph_from_edges([("a", "b"), ("b", "c"), ("x", "y")])
        rows = centrality_table(g)
        assert {row.node for row in rows} == {"a", "b", "c"}
        whole = centrality_table(g, scope="whole")
        assert {row.node for row in whole} == {"a", "b", "c", "x", "y"}

    def test_sorted_by_betweenness_then_node(self):
        rows = centrality_table(star(4))
        assert rows[0].node == "hub"
        leaves = [row.node for row in rows[1:]]
        assert leaves == sorted(leaves)


# ---------------------------------------------------------------------------
# batched traversal kernels against the one-source-at-a-time slow path

SOURCE_COUNTS = (1, 63, 64, 65, 130)


def with_self_loops(graph, every=5):
    """The graph with a self-loop added on every `every`-th node."""
    loops = [(label, label) for label in graph.labels[::every]]
    return graph_of(graph.kind, [*((a, b, w) for (a, b), w in graph.edges.items()), *loops], graph.labels)


def component_union(sizes, seed, kind=GraphKind.COAUTHOR):
    """Disjoint random connected components of exactly the given sizes."""
    rng = random.Random(seed)
    reference = PairGraph(kind)
    for c, size in enumerate(sizes):
        labels = [f"c{c}_{i:03d}" for i in range(size)]
        reference.nodes.update(labels)
        for i in range(1, size):
            add_pair(reference, labels[rng.randrange(i)], labels[i])  # spanning tree
        for _ in range(size // 2):
            add_pair(reference, *rng.sample(labels, 2))
    return built(reference)


KERNEL_GRAPHS = {
    "connected": lambda: random_graph(1, max_nodes=160, min_nodes=140, p_range=(0.03, 0.06)),
    # wide middle levels, which the Brandes kernel runs bottom-up
    "dense": lambda: random_graph(5, max_nodes=150, min_nodes=140, p_range=(0.15, 0.25)),
    "disconnected": lambda: random_graph(2, max_nodes=160, min_nodes=140, p_range=(0.004, 0.01)),
    "country_loops": lambda: with_self_loops(
        random_graph(3, max_nodes=160, min_nodes=140, kind=GraphKind.COUNTRY, p_range=(0.005, 0.02))),
    "components": lambda: with_self_loops(
        component_union((130, 65, 64, 63, 2, 1, 1), seed=4, kind=GraphKind.COUNTRY), every=7),
    # 299 levels: past 255, where a uint8 popcount times the level would wrap
    "long_path": lambda: path(300),
}


def csr_of(graph):
    labels = sorted(graph.nodes)
    indptr, indices = compact_csr(labels, neighbor_sets(graph))
    return labels, indptr, indices


def slow_betweenness(graph, sample=None, seed=0):
    labels, indptr, indices = csr_of(graph)
    n = len(labels)
    if sample is None or sample >= n:
        sources, scale = range(n), 1.0
    else:
        sources, scale = sorted(random.Random(seed).sample(range(n), sample)), n / sample
    accumulated = np.zeros(n)
    for source in sources:
        accumulated += brandes_dependencies(indptr, indices, source, n)
    values = accumulated * (scale / 2.0 / ((n - 1) * (n - 2) / 2.0))
    return dict(zip(labels, values.tolist()))


def slow_closeness(graph, literal=False):
    adjacency = neighbor_sets(graph)
    result = {}
    for component in string_set_components(graph):
        if len(component) < 2:
            continue
        labels = sorted(component)
        indptr, indices = compact_csr(labels, adjacency)
        numerator = len(component) if literal else len(component) - 1
        for i, label in enumerate(labels):
            result[label] = numerator / int(bfs_distances(indptr, indices, i, len(labels)).sum())
    return result


def slow_avg_shortest_path(graph):
    labels = sorted(string_set_components(graph)[0])
    indptr, indices = compact_csr(labels, neighbor_sets(graph))
    n = len(labels)
    means = [float(bfs_distances(indptr, indices, s, n).sum()) / (n - 1) for s in range(n)]
    return sum(means) / len(means)


@pytest.fixture(params=sorted(KERNEL_GRAPHS))
def kernel_graph(request):
    graph = KERNEL_GRAPHS[request.param]()
    assert graph.node_count >= max(SOURCE_COUNTS)
    return graph


class TestTraversalKernels:
    def test_fixture_shapes(self):
        disconnected = KERNEL_GRAPHS["disconnected"]()
        assert len(connected_components(disconnected)) > 1
        assert any(not nbrs for nbrs in neighbor_sets(disconnected).values())
        assert graph_facts(KERNEL_GRAPHS["country_loops"]()).self_loop_count
        sizes = [len(c) for c in connected_components(KERNEL_GRAPHS["components"]())]
        assert sizes == [130, 65, 64, 63, 2, 1, 1]

    @pytest.mark.parametrize("count", SOURCE_COUNTS)
    def test_distance_sums_match_per_source_bfs(self, kernel_graph, count):
        # each node's total hop distance from the sources that reach it
        labels, indptr, indices = csr_of(kernel_graph)
        n = len(labels)
        sources = random.Random(count).sample(range(n), count)  # unsorted on purpose
        expected = np.zeros(n, dtype=np.int64)
        for source in sources:
            expected += np.maximum(bfs_distances(indptr, indices, source, n), 0)
        assert _distance_sums(indptr, indices, sources).tolist() == expected.tolist()

    def test_distance_sums_without_arcs(self):
        g = graph_of(GraphKind.COUNTRY, [(label, label) for label in "abc"])
        _, indptr, indices = csr_of(g)
        assert _distance_sums(indptr, indices, [0, 1, 2]).tolist() == [0, 0, 0]

    @pytest.mark.parametrize("count", SOURCE_COUNTS)
    def test_brandes_batch_matches_per_source(self, kernel_graph, count):
        labels, indptr, indices = csr_of(kernel_graph)
        n = len(labels)
        sources = sorted(random.Random(count).sample(range(n), count))
        rows = _brandes_dependencies(indptr, indices, np.asarray(sources), n)
        for source, row in zip(sources, rows):
            assert np.array_equal(row, brandes_dependencies(indptr, indices, source, n))

    @pytest.mark.parametrize("name", ["connected", "dense"])
    def test_brandes_batches_run_both_directions(self, name):
        # the level directions of the batches above, by the kernel's rule:
        # top-down while the frontier's arcs are no more than the unreached ones'
        labels, indptr, indices = csr_of(KERNEL_GRAPHS[name]())
        n = len(labels)
        degree = np.diff(indptr)
        directions = Counter()
        for count in SOURCE_COUNTS:
            sources = sorted(random.Random(count).sample(range(n), count))
            dist = np.stack([bfs_distances(indptr, indices, source, n) for source in sources])
            for level in range(1, int(dist.max()) + 1):
                frontier_arcs = int(degree[np.nonzero(dist == level - 1)[1]].sum())
                reached_arcs = int(degree[np.nonzero((dist >= 0) & (dist < level))[1]].sum())
                unreached_arcs = count * indices.size - reached_arcs
                directions["top-down" if frontier_arcs <= unreached_arcs else "bottom-up"] += 1
        assert directions["top-down"] and directions["bottom-up"], directions

    @pytest.mark.parametrize("budget", [1, 3_000, 2**20])
    def test_betweenness_exact_equals_slow_path(self, kernel_graph, budget, monkeypatch):
        # small budgets force batches of 1 and of a few sources
        monkeypatch.setattr(graph_stats, "_BRANDES_BUDGET", budget)
        assert betweenness_centrality(kernel_graph) == slow_betweenness(kernel_graph)

    @pytest.mark.parametrize("count", SOURCE_COUNTS)
    def test_betweenness_sampled_equals_slow_path(self, kernel_graph, count):
        assert (betweenness_centrality(kernel_graph, sample_sources=count, seed=count)
                == slow_betweenness(kernel_graph, count, seed=count))

    @pytest.mark.parametrize("literal", [False, True])
    def test_closeness_equals_slow_path(self, kernel_graph, literal):
        assert closeness_centrality(kernel_graph, literal=literal) == slow_closeness(kernel_graph, literal)

    @pytest.mark.parametrize("literal", [False, True])
    def test_whole_scope_table_closeness_equals_slow_path(self, kernel_graph, literal):
        rows = centrality_table(kernel_graph, scope="whole", literal_closeness=literal)
        expected = slow_closeness(kernel_graph, literal)
        assert {row.node: row.closeness for row in rows} == {
            node: expected.get(node) for node in kernel_graph.nodes
        }

    @pytest.mark.parametrize("budget", [1, 200, 2**20])
    def test_clustering_equals_set_intersections(self, kernel_graph, budget, monkeypatch):
        # small budgets check the wedges in slices of one and of a few edges
        monkeypatch.setattr(graph_stats, "_WEDGE_BUDGET", budget)
        assert clustering(kernel_graph) == set_clustering(kernel_graph)

    @pytest.mark.parametrize("closeness_scope", [None, "largest", "whole"])
    def test_avg_shortest_path_equals_slow_path(self, kernel_graph, closeness_scope, monkeypatch):
        # the sums come from the path length's own pass, or from closeness at either scope
        if closeness_scope is not None:
            centrality_table(kernel_graph, scope=closeness_scope)
            monkeypatch.setattr(graph_stats, "_distance_sums", None)  # any further pass would fail
        assert avg_shortest_path(kernel_graph) == slow_avg_shortest_path(kernel_graph)


# ---------------------------------------------------------------------------
# the integer graph against the string-keyed references it replaced

def assert_arrays_match_references(graph, reference):
    labels = sorted(reference.nodes)
    indptr, indices = compact_csr(labels, neighbor_sets(reference))
    components = string_set_components(reference)
    component_of = {label: i for i, component in enumerate(components) for label in component}
    assert graph.labels == tuple(labels)
    assert graph.edges == reference.edges and list(graph.edges) == sorted(reference.edges)
    assert np.array_equal(graph.indptr, indptr)
    assert np.array_equal(graph.indices, indices)
    assert graph.component.tolist() == [component_of[label] for label in labels]
    assert connected_components(graph) == components
    touched = {label for pair in reference.edges for label in pair}
    facts = graph_facts(graph)
    assert facts.isolated_count == len(reference.nodes - touched)
    assert facts.component_sizes == tuple(len(c) for c in components)


def assert_slice_matches_reference(graph, reference):
    """The largest component against component 0's nodes and every
    reference edge among them."""
    members = string_set_components(reference)[0]
    edges = {pair: w for pair, w in reference.edges.items() if pair[0] in members}
    sub = PairGraph(reference.kind, set(members), edges)
    assert_arrays_match_references(largest_component_subgraph(graph), sub)


@st.composite
def labelled_graphs(draw):
    """A graph built from drawn value lists, and its string-keyed reference."""
    kind, column = draw(value_columns())
    return build_from_column(kind, column), add_pair_graph(kind, column)


def self_loops_only():
    return graph_of(GraphKind.COUNTRY, [(label, label) for label in ("Italy", "Japan", "Spain")])


class TestIntegerGraph:
    def test_kernel_graphs(self, kernel_graph):
        assert_arrays_match_references(kernel_graph, kernel_graph)

    def test_self_loops_only(self):
        g = self_loops_only()
        assert_arrays_match_references(g, g)
        facts = graph_facts(g)
        assert (facts.isolated_count, facts.self_loop_count, facts.component_count) == (0, 3, 3)

    def test_isolated_nodes(self):
        g = graph_from_edges([("a", "b")], extra_nodes=("z", "c", "y"))
        assert_arrays_match_references(g, g)
        assert graph_facts(g).isolated_count == 3

    def test_empty_graph(self):
        g = graph_of(GraphKind.KEYWORD)
        assert_arrays_match_references(g, g)
        assert graph_facts(g).component_count == 0

    @settings(max_examples=200, deadline=None)
    @given(labelled_graphs())
    def test_hypothesis_graphs(self, drawn):
        graph, reference = drawn
        assert_arrays_match_references(graph, reference)
        if reference.nodes:
            assert clustering(graph) == set_clustering(reference)
            assert closeness_centrality(graph) == slow_closeness(reference)
            assert_slice_matches_reference(graph, reference)

    @pytest.mark.parametrize("name", sorted(KERNEL_GRAPHS))
    def test_largest_component_slice_of_kernel_graphs(self, name):
        graph = KERNEL_GRAPHS[name]()
        assert_slice_matches_reference(graph, PairGraph(graph.kind, set(graph.nodes), dict(graph.edges)))


class TestGraphLifetime:
    def test_largest_component_is_derived_once(self):
        g = KERNEL_GRAPHS["disconnected"]()
        largest = largest_component_subgraph(g)
        assert largest is largest_component_subgraph(g)
        assert largest is not g
        assert largest_component_subgraph(largest) is largest

    def test_connected_graph_is_its_own_largest_component(self):
        g = path3()
        assert largest_component_subgraph(g) is g

    def test_components_are_grouped_once(self):
        g = KERNEL_GRAPHS["disconnected"]()
        first = connected_components(g)
        count = len(first)
        again = connected_components(g)
        assert again == first and all(a is b for a, b in zip(again, first))
        again.pop()  # each call hands out its own list
        assert len(connected_components(g)) == count

    def test_component_sets_are_read_only(self):
        g = graph_from_edges([("a", "b"), ("b", "c"), ("d", "e")])
        with pytest.raises(AttributeError):
            connected_components(g)[1].add("zzz")
        assert connected_components(g) == [{"a", "b", "c"}, {"d", "e"}]
        assert graph_facts(g).component_sizes == (3, 2)
        assert [result.component_size for result in per_component_assortativity(g)] == [3, 2]

    def test_editing_nodes_and_edges_leaves_the_analyses_alone(self):
        def analyses(graph):
            return (graph_facts(graph), connected_components(graph), centrality_table(graph, scope="whole"),
                    small_world_check(graph), per_component_assortativity(graph))

        g = KERNEL_GRAPHS["disconnected"]()
        before = analyses(g)
        largest = largest_component_subgraph(g)
        for graph in (g, largest):
            with pytest.raises(AttributeError):
                graph.nodes.add("added later")
            with pytest.raises(TypeError):
                graph.edges["added", "later"] = 1
            # a caller may rebind the names, but the analyses read the arrays
            graph.nodes, graph.edges = {"added later"}, {}
        assert analyses(g) == before
        assert largest_component_subgraph(g) is largest

    @pytest.mark.parametrize("name", ["connected", "disconnected"])
    def test_analysed_graphs_are_freed_without_the_cyclic_collector(self, name):
        enabled = gc.isenabled()
        gc.disable()
        try:
            g = KERNEL_GRAPHS[name]()
            graph_facts(g)
            for scope in ("largest", "whole"):
                centrality_table(g, scope=scope)
            small_world_check(g)
            per_component_assortativity(g)
            largest = largest_component_subgraph(g)
            is_itself = largest is g
            assert is_itself == (name == "connected")
            refs = [weakref.ref(obj) for obj in (g, g.indptr, g.distance_sums, largest, largest.distance_sums)]
            del g, largest
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            if enabled:
                gc.enable()


# ---------------------------------------------------------------------------
# twin and pendant reuse: one Brandes traversal serves each true-twin
# class and each hub with its pendants; the distance pass, which runs
# from every node, is checked on the same twin-rich graphs

@st.composite
def twin_rich_graphs(draw):
    """Co-authorship-like graphs: each paper joins all its authors, so the
    one-paper authors of a paper are true twins; leaves hung on existing
    authors are pendants, lone pairs are K2 components, and lone authors
    isolated nodes."""
    pool = draw(st.integers(1, 30))
    authors = st.integers(0, pool - 1)
    reference = PairGraph(GraphKind.COAUTHOR)
    for team in draw(st.lists(st.lists(authors, min_size=1, max_size=6, unique=True), min_size=1, max_size=20)):
        labels = [f"a{i:02d}" for i in team]
        reference.nodes.update(labels)
        for a, b in combinations(labels, 2):
            add_pair(reference, a, b)
    for i, host in enumerate(draw(st.lists(authors, max_size=10))):
        if f"a{host:02d}" in reference.nodes:
            add_pair(reference, f"a{host:02d}", f"p{i:02d}")
    for i in range(draw(st.integers(0, 3))):
        add_pair(reference, f"k{i}a", f"k{i}b")
    reference.nodes.update(f"z{i}" for i in range(draw(st.integers(0, 3))))
    return built(reference)


def clique_with_pendants():
    """K4 on a..d with a pendant on a and one on b: classes {a}, {b}, {c, d}."""
    return graph_from_edges([*combinations([f"v{i}" for i in range(4)], 2), ("v0", "p0"), ("v1", "p1")])


def drop_caches(graph):
    """The graph with its traversal caches emptied, so the next analysis derives them anew."""
    graph.distance_sums = None
    return graph


def assert_betweenness_matches_batched_reference(graph, sample, seed):
    assert betweenness_centrality(graph, sample, seed) == batched_betweenness(graph, sample, seed)


def assert_distance_sums_match_bfs(graph):
    labels, indptr, indices = csr_of(graph)
    n = len(labels)
    expected = []
    for source in range(n):
        dist = bfs_distances(indptr, indices, source, n)
        expected.append(int(dist[dist > 0].sum()))
    assert _component_distance_sums(drop_caches(graph)).tolist() == expected


class TestTwinAndPendantReuse:
    @settings(max_examples=150, deadline=None)
    @given(twin_rich_graphs(), st.integers(1, 40), st.integers(0, 3))
    def test_betweenness_equals_batched_reference(self, graph, sample, seed):
        assert_betweenness_matches_batched_reference(graph, None, 0)
        assert_betweenness_matches_batched_reference(graph, sample, seed)

    @settings(max_examples=60, deadline=None)
    @given(twin_rich_graphs(), st.sampled_from([None, 3]))
    def test_small_batches_and_a_one_batch_row_cache(self, graph, sample):
        # batches of one and of a few sources; a cache of one batch evicts
        # rows that later twins and pendants need, and recomputes them
        for budget in (1, 200):
            with mock.patch.object(graph_stats, "_BRANDES_BUDGET", budget), \
                    mock.patch.object(graph_stats, "_ROW_CACHE_BYTES", 1):
                assert_betweenness_matches_batched_reference(graph, sample, 1)

    @settings(max_examples=60, deadline=None)
    @given(twin_rich_graphs(), st.sampled_from(["largest", "whole"]), st.sampled_from([None, 2]))
    def test_table_betweenness_in_both_scopes(self, graph, scope, sample):
        target = graph if scope == "whole" else largest_component_subgraph(graph)
        if target.node_count < 2:
            return
        rows = centrality_table(graph, betweenness_sample=sample, seed=5, scope=scope)
        expected = batched_betweenness(target, sample, 5)
        assert {row.node: row.betweenness for row in rows} == expected

    @settings(max_examples=150, deadline=None)
    @given(twin_rich_graphs())
    def test_distance_sums_on_twin_rich_graphs(self, graph):
        assert_distance_sums_match_bfs(graph)
        assert closeness_centrality(graph) == slow_closeness(graph)

    @settings(max_examples=100, deadline=None)
    @given(twin_rich_graphs())
    def test_largest_component_slice(self, graph):
        assert_slice_matches_reference(graph, PairGraph(graph.kind, set(graph.nodes), dict(graph.edges)))

    @pytest.mark.parametrize("seed", range(6))
    def test_distance_sums_on_random_graphs(self, seed):
        assert_distance_sums_match_bfs(random_graph(seed, max_nodes=80))

    @pytest.mark.parametrize("name", sorted(KERNEL_GRAPHS))
    def test_distance_sums_and_betweenness_on_kernel_graphs(self, name):
        graph = KERNEL_GRAPHS[name]()
        assert_distance_sums_match_bfs(graph)
        assert_betweenness_matches_batched_reference(graph, None, 0)

    @pytest.mark.parametrize("make", [clique_with_pendants, KERNEL_GRAPHS["components"]],
                             ids=["clique with two pendants", "components"])
    def test_distances_need_no_serving_nodes(self, make, monkeypatch):
        def refuse(graph):
            raise AssertionError("closeness and path length read no twin or pendant serving")

        monkeypatch.setattr(graph_stats, "_served_by", refuse)
        graph = make()
        assert closeness_centrality(graph) == slow_closeness(graph)
        graph = make()  # path length makes its own pass
        assert avg_shortest_path(graph) == slow_avg_shortest_path(graph)

    def test_path_length_reads_the_closeness_pass(self, monkeypatch):
        graph = clique_with_pendants()
        closeness_centrality(graph)
        monkeypatch.setattr(graph_stats, "_distance_sums", None)  # any further pass would fail
        assert avg_shortest_path(graph) == slow_avg_shortest_path(graph)

    @pytest.mark.parametrize("scope", ["largest", "whole"])
    @pytest.mark.parametrize("name", ["disconnected", "components"])
    def test_small_world_reads_the_closeness_pass_in_either_scope(self, name, scope, monkeypatch):
        # after whole-graph closeness the sums are on the graph, not on its largest component
        graph = KERNEL_GRAPHS[name]()
        centrality_table(graph, scope=scope)
        monkeypatch.setattr(graph_stats, "_distance_sums", None)  # any further pass would fail
        assert small_world_check(graph).avg_shortest_path == slow_avg_shortest_path(graph)


def traversed_sources(monkeypatch, kernel, analysis, graph):
    """Sources that `analysis(graph)` hands to the traversal kernel named `kernel`."""
    sources = []
    real = getattr(graph_stats, kernel)

    def counting(indptr, indices, batch, *rest):
        sources.extend(np.asarray(batch).tolist())
        return real(indptr, indices, batch, *rest)

    monkeypatch.setattr(graph_stats, kernel, counting)
    analysis(graph)
    return sorted(sources)


# graph, Brandes traversals needed: a star's leaves are pendants of its
# centre, a clique is one twin class, P4's ends are pendants of its two
# inner nodes, and a clique with pendants on two members keeps those two
# members as their own classes beside the class of the rest
TRAVERSAL_COUNTS = {
    "star K1,5": (lambda: star(5), 1),
    "K5": (lambda: complete(5), 1),
    "P4": (lambda: graph_from_edges([("a", "b"), ("b", "c"), ("c", "d")]), 2),
    "clique with two pendants": (clique_with_pendants, 3),
}


class TestTraversalCounts:
    @pytest.mark.parametrize("name", sorted(TRAVERSAL_COUNTS))
    def test_brandes_sources(self, name, monkeypatch):
        make, expected = TRAVERSAL_COUNTS[name]
        graph = make()
        assert len(traversed_sources(monkeypatch, "_brandes_dependencies", betweenness_centrality, graph)) == expected
        assert betweenness_centrality(graph) == pytest.approx(brute_betweenness(graph))

    @pytest.mark.parametrize("name", sorted(TRAVERSAL_COUNTS))
    def test_distance_sum_sources(self, name, monkeypatch):
        # every node has an arc, and every node with an arc is a source
        make, _ = TRAVERSAL_COUNTS[name]
        graph = make()
        assert traversed_sources(monkeypatch, "_distance_sums", closeness_centrality, graph) == list(
            range(graph.node_count))
        assert closeness_centrality(graph) == pytest.approx(brute_closeness(graph))
