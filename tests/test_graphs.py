import csv
import json
import random
from xml.etree import ElementTree

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings

from biblionet.graphs import (
    GraphKind,
    build_graph,
    graph_facts,
    top_weighted_edges,
    write_dot,
    write_edge_csv,
    write_graphml,
)
from biblionet.normalize import NormalizationRules, extract_countries, extract_institutions
from biblionet.wos_ingest import BiblioRecord, iter_corpus_records, write_corpus_jsonl
from oracles import (
    SELF_LOOP_KINDS,
    add_pair_graph,
    build_from_column,
    compact_csr,
    elementtree_write_graphml,
    graph_key,
    graph_of,
    key_sorted_top_weighted_edges,
    loop_write_dot,
    loop_write_edge_csv,
    neighbor_sets,
    random_records,
    validate,
    value_columns,
    varied_records,
)


def record(**kwargs) -> BiblioRecord:
    base = dict(publication_type="J", title="T")
    base.update(kwargs)
    return BiblioRecord(**base)


SEG = "[A] {inst}, Dept {i}, City, {country}."


def address(*pairs) -> str:
    return "; ".join(SEG.format(inst=inst, i=i, country=country) for i, (inst, country) in enumerate(pairs))


class TestCoauthorship:
    def test_triangle(self):
        records = [record(author_full_names=["A", "B", "C"])]
        graph = build_graph(GraphKind.COAUTHOR, records)
        assert graph.nodes == {"A", "B", "C"}
        assert graph.edges == {("A", "B"): 1, ("A", "C"): 1, ("B", "C"): 1}

    def test_repeat_collaboration_weight(self):
        records = [
            record(author_full_names=["A", "B"]),
            record(author_full_names=["B", "A"]),
        ]
        graph = build_graph(GraphKind.COAUTHOR, records)
        assert graph.edges == {("A", "B"): 2}

    def test_solo_author_is_isolated_node(self):
        graph = build_graph(GraphKind.COAUTHOR, [record(author_full_names=["A"])])
        assert graph.nodes == {"A"}
        assert graph.edges == {}
        assert graph_facts(graph).isolated_count == 1

    def test_no_self_loops_from_duplicate_listing(self):
        graph = build_graph(GraphKind.COAUTHOR, [record(author_full_names=["A", "A", "B"])])
        assert graph.edges == {("A", "B"): 1}

    def test_node_set_is_all_cleaned_authors(self, fixture_records):
        graph = build_graph(GraphKind.COAUTHOR, fixture_records)
        expected = {name for r in fixture_records for name in r.distinct_authors()}
        assert graph.nodes == expected


class TestCountryGraph:
    def test_same_country_segments_make_self_loop(self):
        records = [record(addresses=address(("I1", "MA 02115 USA"), ("I2", "NJ 08540 USA")))]
        graph = build_graph(GraphKind.COUNTRY, records)
        assert graph.edges == {("USA", "USA"): 1}

    def test_two_countries_plain_edge(self):
        records = [record(addresses=address(("I1", "MA 02115 USA"), ("I2", "England")))]
        graph = build_graph(GraphKind.COUNTRY, records)
        assert graph.edges == {("USA", "United Kingdom"): 1}

    def test_single_segment_isolated_node(self):
        graph = build_graph(GraphKind.COUNTRY, [record(addresses=address(("I1", "Italy")))])
        assert graph.nodes == {"Italy"}
        assert graph.edges == {}
        assert graph_facts(graph).isolated_count == 1


class TestInstitutionGraph:
    def test_intra_institution_self_loop(self):
        records = [record(addresses=address(("Wuhan Univ", "China"), ("Wuhan Univ", "China")))]
        graph = build_graph(GraphKind.INSTITUTION, records)
        assert graph.edges == {("Wuhan Univ", "Wuhan Univ"): 1}

    def test_distinct_institutions_edge(self):
        records = [record(addresses=address(("A Univ", "X"), ("B Univ", "Y")))]
        graph = build_graph(GraphKind.INSTITUTION, records)
        assert graph.edges == {("A Univ", "B Univ"): 1}

    def test_three_segment_mixed(self):
        # segments [H, H, W]: one H-H self-loop, two H-W pairs
        records = [record(addresses=address(("H", "X"), ("H", "X"), ("W", "Y")))]
        graph = build_graph(GraphKind.INSTITUTION, records)
        assert graph.edges == {("H", "H"): 1, ("H", "W"): 2}


class TestCooccurrence:
    def test_research_area_pair(self):
        records = [record(research_areas=["Infectious Diseases", "Immunology"])]
        graph = build_graph(GraphKind.RESEARCH_AREA, records)
        assert graph.edges == {("Immunology", "Infectious Diseases"): 1}

    def test_single_value_is_isolated(self):
        graph = build_graph(GraphKind.RESEARCH_AREA, [record(research_areas=["Virology"])])
        assert graph.nodes == {"Virology"}
        assert graph_facts(graph).isolated_count == 1

    def test_repeated_pair_weight(self):
        records = [
            record(author_keywords=["covid-19", "sars-cov-2"]),
            record(author_keywords=["sars-cov-2", "covid-19"]),
        ]
        graph = build_graph(GraphKind.KEYWORD, records)
        assert graph.edges == {("covid-19", "sars-cov-2"): 2}

    def test_no_self_loops_possible(self):
        records = [record(author_keywords=["covid-19", "covid-19", "pandemic"])]
        graph = build_graph(GraphKind.KEYWORD, records)
        assert graph.edges == {("covid-19", "pandemic"): 1}

    def test_unknown_kind(self):
        with pytest.raises(KeyError):
            build_graph("language", [])


class TestGraphFacts:
    def test_empty_graph(self):
        facts = graph_facts(graph_of(GraphKind.COAUTHOR))
        assert facts == type(facts)(0, 0, 0, 0, 0, ())

    def test_triangle(self):
        facts = graph_facts(graph_of(GraphKind.COAUTHOR, [("a", "b"), ("b", "c"), ("a", "c")]))
        assert facts.component_count == 1
        assert facts.component_sizes == (3,)
        assert facts.isolated_count == 0

    def test_mixed_components_hand_tally(self):
        # f carries a self-loop only, so is not isolated; g is
        graph = graph_of(GraphKind.COUNTRY, [("a", "b"), ("b", "c"), ("d", "e"), ("f", "f")], ["g"])
        facts = graph_facts(graph)
        assert facts.node_count == 7
        assert facts.edge_count == 4
        assert facts.self_loop_count == 1
        assert facts.isolated_count == 1
        assert facts.component_count == 4
        assert facts.component_sizes == (3, 2, 1, 1)

    def test_component_sum_equals_node_count(self):
        for seed in range(10):
            graph = build_graph(GraphKind.COAUTHOR, random_records(seed))
            facts = graph_facts(graph)
            assert sum(facts.component_sizes) == facts.node_count


class TestTopWeightedEdges:
    def graph(self):
        return graph_of(GraphKind.COUNTRY, [("USA", "USA", 10), ("USA", "UK", 7), ("UK", "Italy", 7),
                                            ("France", "Spain", 2)])

    def test_k1_max(self):
        assert top_weighted_edges(self.graph(), 1) == [("USA", "USA", 10)]

    def test_tie_by_canonical_pair(self):
        top = top_weighted_edges(self.graph(), 3)
        assert top == [("USA", "USA", 10), ("Italy", "UK", 7), ("UK", "USA", 7)]

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            top_weighted_edges(self.graph(), 0)


class TestInvariants:
    def test_order_independence(self):
        for seed in range(8):
            records = random_records(seed)
            permuted = random.Random(seed + 1).sample(records, len(records))
            for kind in (GraphKind.COAUTHOR, GraphKind.COUNTRY, GraphKind.INSTITUTION, GraphKind.KEYWORD):
                a = build_graph(kind, records)
                b = build_graph(kind, permuted)
                assert a.nodes == b.nodes
                assert a.edges == b.edges

    def test_weight_conservation(self):
        # total pairwise weight equals sum over records of C(m, 2)
        for seed in range(20):
            records = random_records(seed)
            cases = [
                (build_graph(GraphKind.COAUTHOR, records),
                 [len(r.distinct_authors()) for r in records]),
                (build_graph(GraphKind.COUNTRY, records),
                 [len(extract_countries(r.addresses)) for r in records]),
                (build_graph(GraphKind.INSTITUTION, records),
                 [len(extract_institutions(r.addresses)) for r in records]),
                (build_graph(GraphKind.KEYWORD, records),
                 [len(set(r.author_keywords)) for r in records]),
            ]
            for graph, sizes in cases:
                validate(graph)
                assert sum(graph.edges.values()) == sum(m * (m - 1) // 2 for m in sizes)

    def test_self_loops_only_in_allowed_kinds(self):
        # every feature repeats a value within the record
        repeated = record(author_full_names=["A", "A"], research_areas=["R", "R"], author_keywords=["k", "k"],
                          addresses=address(("I", "Italy"), ("I", "Italy")))
        for kind in GraphKind:
            assert bool(graph_facts(build_graph(kind, [repeated])).self_loop_count) == (kind in SELF_LOOP_KINDS), kind

    def test_canonical_orientation(self):
        graph = build_graph(GraphKind.COAUTHOR, [record(author_full_names=["z", "a"])])
        assert list(graph.edges) == [("a", "z")]


class TestExports:
    def graph(self):
        return graph_of(GraphKind.COUNTRY, [("USA", "USA", 3), ("USA", 'Uni "ted"', 2), ("Italy", "France", 1)],
                        ["Lonely"])

    def test_graphml_parses_and_round_trips(self, tmp_path):
        path = tmp_path / "g.graphml"
        g = self.graph()
        write_graphml(g, path)
        ElementTree.parse(path)  # well-formed XML
        loaded = nx.read_graphml(path)
        assert set(loaded.nodes) == g.nodes
        assert loaded.number_of_edges() == len(g.edges)
        for (a, b), weight in g.edges.items():
            assert loaded[a][b]["weight"] == weight

    def test_graphml_labels_that_escape_alike_keep_distinct_ids(self, tmp_path):
        # \x01, \x02 and U+FFFD all escape to U+FFFD; "~2" is already an id
        path = tmp_path / "g.graphml"
        g = graph_of(GraphKind.COAUTHOR, [("a\x01", "b", 1), ("a\x02", "b", 2), ("a\ufffd", "b", 3),
                                          ("a\ufffd~2", "b", 4)])
        write_graphml(g, path)
        loaded = nx.read_graphml(path)
        assert type(loaded) is nx.Graph
        ids = {"a\x01": "a\ufffd", "a\x02": "a\ufffd~3", "a\ufffd": "a\ufffd~4", "a\ufffd~2": "a\ufffd~2",
               "b": "b"}
        assert sorted(loaded.nodes) == sorted(ids.values())
        assert {(ids[a], ids[b]): weight for (a, b), weight in g.edges.items()} == {
            tuple(sorted(edge)): weight for *edge, weight in loaded.edges(data="weight")}

    def test_dot_quoting(self, tmp_path):
        path = tmp_path / "g.dot"
        write_dot(self.graph(), path)
        text = path.read_text(encoding="utf-8")
        assert text.startswith("graph country {")
        assert '"Uni \\"ted\\""' in text
        assert '"France" -- "Italy" [weight=1];' in text

    def test_edge_csv_round_trips(self, tmp_path):
        path = tmp_path / "edges.csv"
        g = self.graph()
        write_edge_csv(g, path)
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["label_a", "label_b", "weight"]
        parsed = {(a, b): int(w) for a, b, w in rows[1:]}
        assert parsed == g.edges
        assert [tuple(r[:2]) for r in rows[1:]] == sorted(parsed)


KIND_NAMES = sorted(kind.value for kind in GraphKind)


def escaped_label_graph(extra_labels=()):
    labels = ['a&b', "<tag>", 'say "hi"', "it's", "cr\rlf\n", "tab\there", "&amp;", "back\\slash",
              "comma, \"quoted\"", "Zürich", "Łódź", "東京", "emoji \U0001f600", *extra_labels, " padded "]
    pairs = [(label, labels[(i * 5 + 3) % len(labels)], i % 4 + 1) for i, label in enumerate(labels)]
    return graph_of(GraphKind.COUNTRY, [*pairs, ("tab\there", "tab\there", 7)], ["isolated\t&"])


def assert_graphml_matches_elementtree(graph, tmp_path):
    ours, expected = tmp_path / "direct.graphml", tmp_path / "elementtree.graphml"
    write_graphml(graph, ours)
    elementtree_write_graphml(graph, expected)
    assert ours.read_bytes() == expected.read_bytes()


class TestGraphmlMatchesElementTree:
    @pytest.mark.parametrize("kind", KIND_NAMES)
    def test_fixture_graphs(self, fixture_records, kind, tmp_path):
        assert_graphml_matches_elementtree(build_graph(GraphKind(kind), fixture_records), tmp_path)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_corpus_graphs(self, seed, tmp_path):
        records = random_records(seed, n_records=30)
        for kind in GraphKind:
            assert_graphml_matches_elementtree(build_graph(kind, records), tmp_path)

    def test_escaped_and_non_ascii_labels(self, tmp_path):
        g = escaped_label_graph(["lone \ud800 surrogate", "bell\x07", "not a char \uffff",
                                 "a\x01", "a\x02", "a\ufffd"])
        assert_graphml_matches_elementtree(g, tmp_path)
        written = (tmp_path / "direct.graphml").read_bytes()
        assert b"&#55296;" in written
        assert 'id="bell\ufffd"'.encode() in written and 'id="not a char \ufffd"'.encode() in written
        assert 'id="a\ufffd~3"'.encode() in written

    def test_nodes_without_edges_and_empty_graph(self, tmp_path):
        assert_graphml_matches_elementtree(graph_of(GraphKind.KEYWORD), tmp_path)
        assert_graphml_matches_elementtree(graph_of(GraphKind.KEYWORD, isolated={"b", "a"}), tmp_path)


def assert_writers_match_references(graph, tmp_path):
    for write, reference in ((write_dot, loop_write_dot), (write_edge_csv, loop_write_edge_csv)):
        ours, expected = tmp_path / "direct", tmp_path / "reference"
        write(graph, ours)
        reference(graph, expected)
        assert ours.read_bytes() == expected.read_bytes(), write.__name__
    for k in (1, 2, 5, len(graph.edges) + 1):
        assert top_weighted_edges(graph, k) == key_sorted_top_weighted_edges(graph, k)


class TestWritersMatchReferences:
    @pytest.mark.parametrize("kind", KIND_NAMES)
    def test_fixture_graphs(self, fixture_records, kind, tmp_path):
        assert_writers_match_references(build_graph(GraphKind(kind), fixture_records), tmp_path)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_corpus_graphs(self, seed, tmp_path):
        records = random_records(seed, n_records=30)
        for kind in GraphKind:
            assert_writers_match_references(build_graph(kind, records), tmp_path)

    def test_escaped_labels_and_tied_weights(self, tmp_path):
        assert_writers_match_references(escaped_label_graph(), tmp_path)

    def test_empty_graph(self, tmp_path):
        assert_writers_match_references(graph_of(GraphKind.KEYWORD), tmp_path)


def test_fixture_country_graph_has_expected_shape(fixture_records):
    graph = build_graph(GraphKind.COUNTRY, fixture_records)
    # the Wuhan record has two China segments -> self-loop; the USA pair
    # comes from the Johns Hopkins + Fudan record
    assert graph.edges[("China", "China")] == 1
    assert ("China", "USA") in graph.edges
    facts = graph_facts(graph)
    assert facts.self_loop_count >= 2  # China-China and India-India and USA-USA
    assert "Thailand" in graph.nodes


# kind -> the values of one record that its graph pairs, by the public cleaners
PAIRED_VALUES = {
    GraphKind.COAUTHOR: lambda r, rules: r.distinct_authors(),
    GraphKind.COUNTRY: lambda r, rules: extract_countries(r.addresses, rules),
    GraphKind.INSTITUTION: lambda r, rules: extract_institutions(r.addresses),
    GraphKind.RESEARCH_AREA: lambda r, rules: list(dict.fromkeys(r.research_areas)),
    GraphKind.KEYWORD: lambda r, rules: list(dict.fromkeys(r.author_keywords)),
}


def written(write, graph, path):
    """The bytes `write` gives for the graph, or why it stops: DOT and
    CSV are strict UTF-8, so a lone surrogate in a label stops them."""
    try:
        write(graph, path)
    except UnicodeEncodeError as error:
        return error.reason
    return path.read_bytes()


def assert_matches_reference(graph, reference, directory):
    """The integer graph against the string-keyed reference of the same
    pairs, whose writers and top edges sort the string pairs themselves."""
    labels = sorted(reference.nodes)
    assert graph.kind == reference.kind
    assert graph.labels == tuple(labels)
    assert graph.nodes == reference.nodes
    assert graph.edges == reference.edges
    assert list(graph.edges) == sorted(reference.edges)
    indptr, indices = compact_csr(labels, neighbor_sets(reference))
    assert np.array_equal(graph.indptr, indptr) and np.array_equal(graph.indices, indices)
    for write, oracle in ((write_graphml, elementtree_write_graphml), (write_dot, loop_write_dot),
                          (write_edge_csv, loop_write_edge_csv)):
        assert written(write, graph, directory / "ours") == written(oracle, reference, directory / "reference")
    for k in (1, 2, 5, len(reference.edges) + 1):
        assert top_weighted_edges(graph, k) == key_sorted_top_weighted_edges(reference, k)


class TestBuildGraphCountsOnce:
    """The counting build against one `add_pair` call per pair of the
    values that the public cleaners give: the same labels, the same
    edges in canonical order, and the same CSR and written files."""

    @staticmethod
    def assert_same_build(kind, records, directory, rules=None):
        column = [PAIRED_VALUES[kind](r, rules) for r in records]
        assert_matches_reference(build_graph(kind, records, rules), add_pair_graph(kind, column), directory)

    @pytest.mark.parametrize("kind", list(GraphKind), ids=lambda kind: kind.value)
    def test_record_lists(self, fixture_records, kind, tmp_path):
        path = tmp_path / "corpus.jsonl"
        for records in [fixture_records, *(random_records(seed, n_records=60) for seed in range(6)),
                        *(varied_records(seed, n_records=80) for seed in range(3))]:
            self.assert_same_build(kind, records, tmp_path)
            # the CLI builds from the records of a corpus file as they stream past
            write_corpus_jsonl(records, path)
            assert graph_key(build_graph(kind, iter_corpus_records(path))) == graph_key(build_graph(kind, records))

    @settings(max_examples=200, deadline=None)
    @given(value_columns())
    def test_text_values(self, tmp_path_factory, drawn):
        # any text: mixed case, non-ASCII, lone surrogates, repeats and empty records
        kind, column = drawn
        assert_matches_reference(build_from_column(kind, column), add_pair_graph(kind, column),
                                 tmp_path_factory.mktemp("writers"))

    def test_custom_rules(self, fixture_records, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"country_exact": {"Italy": "Italia"}, "country_contains": {"ance": "Gaul"}}))
        rules = NormalizationRules.from_file(path)
        records = [*fixture_records, *varied_records(0, n_records=80)]
        self.assert_same_build(GraphKind.COUNTRY, records, tmp_path, rules)
        assert {"Italia", "Gaul"} <= build_graph(GraphKind.COUNTRY, records, rules).nodes
        assert {"Italy", "France"} <= build_graph(GraphKind.COUNTRY, records).nodes

    @pytest.mark.parametrize("kind, side", [(GraphKind.COUNTRY, 1), (GraphKind.INSTITUTION, 0)])
    def test_repeated_values_pair_into_self_loops(self, kind, side, tmp_path):
        segments = {"a": ("A Univ", "Italy"), "b": ("B Univ", "Japan"), "c": ("C Univ", "Spain")}
        records = [record(addresses=address(*map(segments.get, values))) for values in ("babb", "a", "", "cac", "ba")]
        self.assert_same_build(kind, records, tmp_path)
        a, b, c = (segments[letter][side] for letter in "abc")
        assert build_graph(kind, records).edges == {(a, b): 4, (b, b): 3, (a, c): 2, (c, c): 1}

    @pytest.mark.parametrize("kind", [GraphKind.COAUTHOR, GraphKind.RESEARCH_AREA, GraphKind.KEYWORD])
    def test_self_loops_raise_where_the_kind_forbids_them(self, kind):
        with pytest.raises(ValueError, match="self-loops are not allowed"):
            add_pair_graph(kind, [["a", "b"], ["c", "a", "c"]])

    def test_no_records_and_lone_values(self):
        assert graph_key(build_graph(GraphKind.KEYWORD, [])) == graph_key(graph_of(GraphKind.KEYWORD))
        graph = build_graph(GraphKind.KEYWORD, [record(author_keywords=["x"]), record(), record(author_keywords=["y"])])
        assert graph.nodes == {"x", "y"} and graph.edges == {}
