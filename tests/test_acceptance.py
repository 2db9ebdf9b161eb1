"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import random
import subprocess
import sys
import time
from pathlib import Path

import networkx as nx

from biblionet.dedup import find_suspect_pairs, levenshtein, similarity_ratio
from biblionet.errors import DegenerateDataError
from biblionet.graph_stats import (
    betweenness_centrality,
    closeness_centrality,
    degree_assortativity,
    degree_centrality,
    fit_power_law,
    largest_component_subgraph,
    small_world_check,
)
from biblionet.graphs import (
    GraphKind,
    WeightedGraph,
    build_graph,
    graph_facts,
)
from biblionet.metrics import degree_of_collaboration, g_index, h_index
from biblionet.normalize import (
    YearMonth,
    canonicalize_country,
    extract_countries,
    normalize_date,
    split_authors,
)
from biblionet.wos_ingest import BiblioRecord, Corpus
from oracles import (
    add_pair,
    brute_betweenness,
    brute_closeness,
    brute_degree_centrality,
    brute_force_suspect_pairs,
    brute_g_index,
    brute_h_index,
    dp_levenshtein,
    neighbor_sets,
    random_records,
    random_graph,
    sample_discrete_power_law,
    synthetic_author_pool_records,
    synthetic_names,
)

DATA = Path(__file__).parent / "data"


def report(name: str, ok: bool, detail: str, started: float, limit: float | None = None) -> None:
    elapsed = time.monotonic() - started
    status = "PASS" if ok else "FAIL"
    budget = f", {elapsed:.1f}s" + (f" of {limit:.0f}s" if limit else "")
    print(f"[ACCEPTANCE] {name}: {status} ({detail}{budget})")
    assert ok, f"{name}: {detail}"
    if limit is not None:
        assert elapsed < limit, f"{name} exceeded runtime budget: {elapsed:.1f}s >= {limit}s"


def test_cleaning_rule_conformance():
    started = time.monotonic()
    checks = [
        normalize_date("SEP 10", 2020) == YearMonth(2020, 9),
        normalize_date("Sep", 2020) == YearMonth(2020, 9),
        normalize_date("SEPTEMBER 10", 2020) == YearMonth(2020, 9),
        normalize_date("September", 2020) == YearMonth(2020, 9),
        normalize_date("SEPT", 2020) == YearMonth(2020, 9),
        normalize_date("SEP.", 2020) == YearMonth(2020, 9),
        normalize_date("SEP-DEC", 2020) == YearMonth(2020, 9),
        normalize_date("FAL", 2020) is None,
        normalize_date("WIN", 2020) is None,
        normalize_date("SUM", 2020) is None,
        normalize_date("SPR", 2020) is None,
        canonicalize_country("NJ 08540 USA") == "USA",
        canonicalize_country("Scotland") == "United Kingdom",
        canonicalize_country("Wales") == "United Kingdom",
        canonicalize_country("England") == "United Kingdom",
        canonicalize_country("North Ireland") == "United Kingdom",
        canonicalize_country("Peoples R China") == "China",
        canonicalize_country("P. R. China") == "China",
        canonicalize_country("Viet Nam") == "Vietnam",
        canonicalize_country("Vietnam") == "Vietnam",
        extract_countries("[S, J.] Harvard Med Sch, Dept Med, Boston, MA 02115 USA") == ["USA"],
        split_authors("[anonymous]") == [],
        split_authors("A, B; [ANONYMOUS]; A, B") == ["A, B"],
    ]
    report("cleaning-rule conformance", all(checks),
           f"{sum(checks)}/{len(checks)} rules exact", started, limit=1.0)


def test_index_oracles():
    started = time.monotonic()
    rng = random.Random(2024)
    failures = 0
    for _ in range(1000):
        vector = [rng.randint(0, 10_000) for _ in range(rng.randint(0, 50))]
        h = h_index(vector)
        g = g_index(vector)
        if h != brute_h_index(vector) or g != brute_g_index(vector) or g < h:
            failures += 1
    report("index oracles", failures == 0,
           f"1000 random vectors, {failures} mismatches, g >= h everywhere", started, limit=5.0)


def test_centrality_oracle():
    started = time.monotonic()
    worst = 0.0
    for seed in range(200):
        graph = random_graph(seed, max_nodes=50)
        degree = degree_centrality(graph)
        betweenness = betweenness_centrality(graph)
        closeness = closeness_centrality(graph)
        expected_degree = brute_degree_centrality(graph)
        expected_betweenness = brute_betweenness(graph)
        expected_closeness = brute_closeness(graph)
        assert set(closeness) == set(expected_closeness)
        for node in graph.nodes:
            worst = max(worst, abs(degree[node] - expected_degree[node]))
            worst = max(worst, abs(betweenness[node] - expected_betweenness[node]))
            if node in expected_closeness:
                worst = max(worst, abs(closeness[node] - expected_closeness[node]))
    report("centrality oracle", worst < 1e-9,
           f"200 graphs <= 50 nodes, worst |err| {worst:.2e}", started, limit=60.0)


def test_assortativity_acceptance():
    started = time.monotonic()
    star = WeightedGraph(GraphKind.COAUTHOR)
    for leaf in range(5):
        add_pair(star, "hub", f"leaf{leaf}")
    star_ok = degree_assortativity(star).r == -1.0

    regular_ok = True
    cycle = WeightedGraph(GraphKind.COAUTHOR)
    names = [f"c{i}" for i in range(5)]
    for i in range(5):
        add_pair(cycle, names[i], names[(i + 1) % 5])
    regular_ok &= degree_assortativity(cycle).r is None
    pair = WeightedGraph(GraphKind.COAUTHOR)
    add_pair(pair, "a", "b")
    add_pair(pair, "c", "d")
    regular_ok &= degree_assortativity(pair).r is None

    from oracles import brute_assortativity
    worst = 0.0
    compared = 0
    for seed in range(200):
        graph = random_graph(seed + 10_000, max_nodes=40)
        if not graph.edges:
            continue
        ours = degree_assortativity(graph).r
        expected = brute_assortativity(graph)
        if expected is None:
            assert ours is None
            continue
        worst = max(worst, abs(ours - expected))
        compared += 1
    ok = star_ok and regular_ok and worst < 1e-12
    report("assortativity", ok,
           f"star=-1 exact, regular undefined, {compared} graphs worst |err| {worst:.2e}", started)


def test_power_law_recovery():
    started = time.monotonic()
    hits = 0
    for seed in range(100):
        degrees = sample_discrete_power_law(2.5, 100_000, seed=seed)
        fit = fit_power_law(degrees)
        if abs(fit.gamma - 2.5) <= 0.05:
            hits += 1
    report("power-law recovery", hits >= 95,
           f"gamma within +/-0.05 in {hits}/100 seeds", started, limit=120.0)


def test_small_world_discrimination():
    started = time.monotonic()
    ws = WeightedGraph(GraphKind.COAUTHOR)
    generated = nx.watts_strogatz_graph(1000, 10, 0.1, seed=42)
    for a, b in generated.edges:
        add_pair(ws, f"n{a:04d}", f"n{b:04d}")
    ws_report_1 = small_world_check(ws)
    ws_report_2 = small_world_check(ws)
    ws_ok = (
        "small-world-consistent" in ws_report_1.verdict
        and ws_report_1 == ws_report_2
        and 0.5 * math.log(1000) <= ws_report_1.avg_shortest_path <= 3 * math.log(1000)
    )

    ring = WeightedGraph(GraphKind.COAUTHOR)
    for i in range(1000):
        add_pair(ring, f"r{i:04d}", f"r{(i + 1) % 1000:04d}")
    ring_report_1 = small_world_check(ring)
    ring_report_2 = small_world_check(ring)
    ring_ok = (
        "not-small-world" in ring_report_1.verdict
        and ring_report_1 == ring_report_2
        and abs(ring_report_1.avg_shortest_path - 250000 / 999) < 1e-9
    )
    report("small-world discrimination", ws_ok and ring_ok,
           f"WS L={ws_report_1.avg_shortest_path:.2f} consistent; "
           f"ring L={ring_report_1.avg_shortest_path:.2f} not", started, limit=30.0)


def test_graph_construction_conservation():
    started = time.monotonic()
    from biblionet.normalize import extract_institutions
    failures = 0
    for seed in range(100):
        records = random_records(seed, n_records=15)
        cases = [
            (build_graph(GraphKind.COAUTHOR, records),
             [len(r.distinct_authors()) for r in records]),
            (build_graph(GraphKind.COUNTRY, records),
             [len(extract_countries(r.addresses)) for r in records]),
            (build_graph(GraphKind.INSTITUTION, records),
             [len(extract_institutions(r.addresses)) for r in records]),
            (build_graph(GraphKind.RESEARCH_AREA, records),
             [len(set(r.research_areas)) for r in records]),
            (build_graph(GraphKind.KEYWORD, records),
             [len(set(r.author_keywords)) for r in records]),
        ]
        for graph, sizes in cases:
            if sum(graph.edges.values()) != sum(m * (m - 1) // 2 for m in sizes):
                failures += 1
    report("graph-construction conservation", failures == 0,
           f"100 corpora x 5 graph kinds, {failures} violations", started)


def test_levenshtein_metric_properties():
    started = time.monotonic()
    rng = random.Random(99)
    alphabet = "abcdefgh -,.ÁÖŐ"
    def random_string():
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))

    strings = [random_string() for _ in range(10_001)]
    failures = 0
    for i in range(10_000):
        a, b = strings[i], strings[i + 1]
        d = levenshtein(a, b)
        if d != dp_levenshtein(a, b):
            failures += 1
        if d < 0 or d != levenshtein(b, a) or (d == 0) != (a == b):
            failures += 1
        c = strings[(i + 2) % len(strings)]
        if levenshtein(a, c) > d + levenshtein(b, c):
            failures += 1
    pair_ratio = similarity_ratio("Rodriguez-Jimenez, P.", "Rodriguez-Jimenez, Pedro")
    flagged = pair_ratio >= 0.8
    report("levenshtein metric properties", failures == 0 and flagged,
           f"10000 pairs vs DP oracle exact; name-variant ratio {pair_ratio:.4f} >= 0.8", started)


def test_degree_of_collaboration_fixture():
    started = time.monotonic()
    def record(authors):
        return BiblioRecord(publication_type="J", title=f"T{id(authors)}", author_full_names=authors)

    mixed = Corpus.from_records([
        record(["A, A", "B, B"]),
        record(["C, C", "D, D"]),
        record(["E, E", "F, F", "G, G"]),
        record(["H, H"]),
    ])
    solo = Corpus.from_records([record(["S, S"]), record(["T, T"])])
    empty = Corpus.from_records([record(["[anonymous]"]), record([])])
    mixed_ok = degree_of_collaboration(mixed) == 0.75
    solo_ok = degree_of_collaboration(solo) == 0.0
    try:
        degree_of_collaboration(empty)
        error_ok = False
    except DegenerateDataError:
        error_ok = True
    report("degree-of-collaboration fixture", mixed_ok and solo_ok and error_ok,
           "0.75 exact, all-solo 0.0, empty-author corpus raises", started)


_PIPELINE_DRIVER = """
import sys
from biblionet.cli import main
out, part1, part2 = sys.argv[1:4]
assert main(["parse", part1, part2, "--out", out, "--seed", "42"]) == 0
corpus = out + "/corpus.jsonl"
assert main(["stats", corpus, "--out", out, "--seed", "42"]) == 0
for kind in ["coauthor", "country", "institution", "research-area", "keyword"]:
    assert main(["network", corpus, "--kind", kind, "--out", out, "--seed", "42"]) == 0
assert main(["keywords", corpus, "--out", out, "--seed", "42"]) == 0
assert main(["dedup-authors", corpus, "--out", out, "--seed", "42"]) == 0
"""


def test_end_to_end_determinism(tmp_path):
    started = time.monotonic()
    trees = []
    for run in ("one", "two"):
        out = tmp_path / run
        proc = subprocess.run(
            [sys.executable, "-c", _PIPELINE_DRIVER, str(out),
             str(DATA / "wos_tagged_part1.txt"), str(DATA / "wos_tagged_part2.txt")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        tree = {}
        for path in sorted(out.rglob("*")):
            if path.is_file():
                tree[str(path.relative_to(out))] = path.read_bytes()
        trees.append(tree)
    same_files = set(trees[0]) == set(trees[1])
    diffs = [name for name in trees[0] if trees[0][name] != trees[1].get(name)]
    report("end-to-end determinism", same_files and not diffs,
           f"{len(trees[0])} files byte-identical across runs" if not diffs else f"differs: {diffs[:3]}",
           started, limit=10.0)


def test_scale_smoke():
    started = time.monotonic()

    # ~100k-node preferential-attachment co-authorship graph
    graph = build_graph(GraphKind.COAUTHOR, synthetic_author_pool_records(54_000, seed=7))
    facts = graph_facts(graph)
    component = largest_component_subgraph(graph)
    betweenness_centrality(component, sample_sources=1000, seed=42)
    build_elapsed = time.monotonic() - started
    size_ok = 50_000 <= facts.node_count <= 200_000

    # sampled betweenness accuracy on a ~5,000-node subsample
    sub = largest_component_subgraph(build_graph(GraphKind.COAUTHOR, synthetic_author_pool_records(3_600, seed=11)))
    adjacency = neighbor_sets(sub)
    top = max(sorted(adjacency), key=lambda node: len(adjacency[node]))
    exact = betweenness_centrality(sub)[top]
    sampled = betweenness_centrality(sub, sample_sources=1000, seed=42)[top]
    relative_error = abs(sampled - exact) / exact
    report("scale smoke test", size_ok and relative_error <= 0.20,
           f"{facts.node_count} nodes analyzed in {build_elapsed:.0f}s; "
           f"top-degree betweenness rel err {relative_error:.1%} on {sub.node_count}-node subsample",
           started, limit=300.0)


def test_dedup_scale_smoke():
    started = time.monotonic()

    # all pairs of 2,000 names; the full DP on every pair takes ~230 s
    names = synthetic_names(2_000, seed=5)
    pairs = find_suspect_pairs(names)
    dedup_elapsed = time.monotonic() - started

    subset = names[:300]
    exact = find_suspect_pairs(subset) == brute_force_suspect_pairs(subset, 0.8)
    report("dedup scale smoke test", exact and len(pairs) > 0,
           f"{len(pairs)} suspect pairs among {len(names)} names in {dedup_elapsed:.1f}s; "
           f"{len(subset)}-name subset {'equals' if exact else 'differs from'} brute force",
           started, limit=60.0)
