import csv
import random
from xml.etree import ElementTree

import networkx as nx
import pytest

from biblionet.graphs import (
    COLUMNS,
    GraphKind,
    WeightedGraph,
    build_graph,
    graph_facts,
    pair_graph,
    top_weighted_edges,
    write_dot,
    write_edge_csv,
    write_graphml,
)
from biblionet.normalize import extract_countries, extract_institutions
from biblionet.wos_ingest import BiblioRecord, Corpus, read_corpus_column, write_corpus_jsonl
from oracles import (
    add_pair,
    add_pair_graph,
    elementtree_write_graphml,
    key_sorted_top_weighted_edges,
    loop_write_dot,
    loop_write_edge_csv,
    random_corpus,
    random_records,
    validate,
)


def record(**kwargs) -> BiblioRecord:
    base = dict(publication_type="J", title="T")
    base.update(kwargs)
    return BiblioRecord(**base)


def corpus_of(*records) -> Corpus:
    return Corpus.from_records(list(records))


SEG = "[A] {inst}, Dept {i}, City, {country}."


def address(*pairs) -> str:
    return "; ".join(SEG.format(inst=inst, i=i, country=country) for i, (inst, country) in enumerate(pairs))


class TestCoauthorship:
    def test_triangle(self):
        corpus = corpus_of(record(author_full_names=["A", "B", "C"]))
        graph = build_graph(GraphKind.COAUTHOR, corpus)
        assert graph.nodes == {"A", "B", "C"}
        assert graph.edges == {("A", "B"): 1, ("A", "C"): 1, ("B", "C"): 1}

    def test_repeat_collaboration_weight(self):
        corpus = corpus_of(
            record(author_full_names=["A", "B"]),
            record(author_full_names=["B", "A"]),
        )
        graph = build_graph(GraphKind.COAUTHOR, corpus)
        assert graph.edges == {("A", "B"): 2}

    def test_solo_author_is_isolated_node(self):
        graph = build_graph(GraphKind.COAUTHOR, corpus_of(record(author_full_names=["A"])))
        assert graph.nodes == {"A"}
        assert graph.edges == {}
        assert graph_facts(graph).isolated_count == 1

    def test_no_self_loops_from_duplicate_listing(self):
        graph = build_graph(GraphKind.COAUTHOR, corpus_of(record(author_full_names=["A", "A", "B"])))
        assert graph.edges == {("A", "B"): 1}

    def test_node_set_is_all_cleaned_authors(self, fixture_corpus, fixture_records):
        graph = build_graph(GraphKind.COAUTHOR, fixture_corpus)
        expected = {name for r in fixture_records for name in r.distinct_authors()}
        assert graph.nodes == expected


class TestCountryGraph:
    def test_same_country_segments_make_self_loop(self):
        corpus = corpus_of(record(addresses=address(("I1", "MA 02115 USA"), ("I2", "NJ 08540 USA"))))
        graph = build_graph(GraphKind.COUNTRY, corpus)
        assert graph.edges == {("USA", "USA"): 1}

    def test_two_countries_plain_edge(self):
        corpus = corpus_of(record(addresses=address(("I1", "MA 02115 USA"), ("I2", "England"))))
        graph = build_graph(GraphKind.COUNTRY, corpus)
        assert graph.edges == {("USA", "United Kingdom"): 1}

    def test_single_segment_isolated_node(self):
        graph = build_graph(GraphKind.COUNTRY, corpus_of(record(addresses=address(("I1", "Italy")))))
        assert graph.nodes == {"Italy"}
        assert graph.edges == {}
        assert graph_facts(graph).isolated_count == 1


class TestInstitutionGraph:
    def test_intra_institution_self_loop(self):
        corpus = corpus_of(record(addresses=address(("Wuhan Univ", "China"), ("Wuhan Univ", "China"))))
        graph = build_graph(GraphKind.INSTITUTION, corpus)
        assert graph.edges == {("Wuhan Univ", "Wuhan Univ"): 1}

    def test_distinct_institutions_edge(self):
        corpus = corpus_of(record(addresses=address(("A Univ", "X"), ("B Univ", "Y"))))
        graph = build_graph(GraphKind.INSTITUTION, corpus)
        assert graph.edges == {("A Univ", "B Univ"): 1}

    def test_three_segment_mixed(self):
        # segments [H, H, W]: one H-H self-loop, two H-W pairs
        corpus = corpus_of(record(addresses=address(("H", "X"), ("H", "X"), ("W", "Y"))))
        graph = build_graph(GraphKind.INSTITUTION, corpus)
        assert graph.edges == {("H", "H"): 1, ("H", "W"): 2}


class TestCooccurrence:
    def test_research_area_pair(self):
        corpus = corpus_of(record(research_areas=["Infectious Diseases", "Immunology"]))
        graph = build_graph(GraphKind.RESEARCH_AREA, corpus)
        assert graph.edges == {("Immunology", "Infectious Diseases"): 1}

    def test_single_value_is_isolated(self):
        graph = build_graph(GraphKind.RESEARCH_AREA, corpus_of(record(research_areas=["Virology"])))
        assert graph.nodes == {"Virology"}
        assert graph_facts(graph).isolated_count == 1

    def test_repeated_pair_weight(self):
        corpus = corpus_of(
            record(author_keywords=["covid-19", "sars-cov-2"]),
            record(author_keywords=["sars-cov-2", "covid-19"]),
        )
        graph = build_graph(GraphKind.KEYWORD, corpus)
        assert graph.edges == {("covid-19", "sars-cov-2"): 2}

    def test_no_self_loops_possible(self):
        corpus = corpus_of(record(author_keywords=["covid-19", "covid-19", "pandemic"]))
        graph = build_graph(GraphKind.KEYWORD, corpus)
        assert graph.edges == {("covid-19", "pandemic"): 1}

    def test_unknown_kind(self):
        with pytest.raises(KeyError):
            build_graph("language", corpus_of())


class TestGraphFacts:
    def test_empty_graph(self):
        facts = graph_facts(WeightedGraph(GraphKind.COAUTHOR))
        assert facts == type(facts)(0, 0, 0, 0, 0, ())

    def test_triangle(self):
        graph = WeightedGraph(GraphKind.COAUTHOR)
        for a, b in [("a", "b"), ("b", "c"), ("a", "c")]:
            add_pair(graph, a, b)
        facts = graph_facts(graph)
        assert facts.component_count == 1
        assert facts.component_sizes == (3,)
        assert facts.isolated_count == 0

    def test_mixed_components_hand_tally(self):
        graph = WeightedGraph(GraphKind.COUNTRY)
        add_pair(graph, "a", "b")
        add_pair(graph, "b", "c")
        add_pair(graph, "d", "e")
        add_pair(graph, "f", "f")  # self-loop only: not isolated
        graph.nodes.add("g")      # truly isolated
        facts = graph_facts(graph)
        assert facts.node_count == 7
        assert facts.edge_count == 4
        assert facts.self_loop_count == 1
        assert facts.isolated_count == 1
        assert facts.component_count == 4
        assert facts.component_sizes == (3, 2, 1, 1)

    def test_component_sum_equals_node_count(self):
        for seed in range(10):
            corpus = random_corpus(seed)
            graph = build_graph(GraphKind.COAUTHOR, corpus)
            facts = graph_facts(graph)
            assert sum(facts.component_sizes) == facts.node_count


class TestTopWeightedEdges:
    def graph(self):
        g = WeightedGraph(GraphKind.COUNTRY)
        add_pair(g, "USA", "USA", 10)
        add_pair(g, "USA", "UK", 7)
        add_pair(g, "UK", "Italy", 7)
        add_pair(g, "France", "Spain", 2)
        return g

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
            shuffled = random_records(seed)
            corpus = Corpus.from_records(shuffled)
            random.Random(seed + 1).shuffle(shuffled)
            permuted = Corpus.from_records(shuffled)
            for kind in (GraphKind.COAUTHOR, GraphKind.COUNTRY, GraphKind.INSTITUTION, GraphKind.KEYWORD):
                a = build_graph(kind, corpus)
                b = build_graph(kind, permuted)
                assert a.nodes == b.nodes
                assert a.edges == b.edges

    def test_weight_conservation(self):
        # total pairwise weight equals sum over records of C(m, 2)
        for seed in range(20):
            records = random_records(seed)
            corpus = Corpus.from_records(records)
            cases = [
                (build_graph(GraphKind.COAUTHOR, corpus),
                 [len(r.distinct_authors()) for r in records]),
                (build_graph(GraphKind.COUNTRY, corpus),
                 [len(extract_countries(r.addresses)) for r in records]),
                (build_graph(GraphKind.INSTITUTION, corpus),
                 [len(extract_institutions(r.addresses)) for r in records]),
                (build_graph(GraphKind.KEYWORD, corpus),
                 [len(set(r.author_keywords)) for r in records]),
            ]
            for graph, sizes in cases:
                validate(graph)
                assert sum(graph.edges.values()) == sum(m * (m - 1) // 2 for m in sizes)

    def test_self_loops_only_in_allowed_kinds(self):
        with pytest.raises(ValueError):
            pair_graph(GraphKind.COAUTHOR, [["A", "A"]])

    def test_canonical_orientation(self):
        graph = pair_graph(GraphKind.COAUTHOR, [["z", "a"]])
        assert list(graph.edges) == [("a", "z")]


class TestExports:
    def graph(self):
        g = WeightedGraph(GraphKind.COUNTRY)
        add_pair(g, "USA", "USA", 3)
        add_pair(g, "USA", 'Uni "ted"', 2)
        add_pair(g, "Italy", "France", 1)
        g.nodes.add("Lonely")
        return g

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
    g = WeightedGraph(GraphKind.COUNTRY)
    labels = ['a&b', "<tag>", 'say "hi"', "it's", "cr\rlf\n", "tab\there", "&amp;", "back\\slash",
              "comma, \"quoted\"", "Zürich", "Łódź", "東京", "emoji \U0001f600", *extra_labels, " padded "]
    for i, label in enumerate(labels):
        add_pair(g, label, labels[(i * 5 + 3) % len(labels)], i % 4 + 1)
    add_pair(g, "tab\there", "tab\there", 7)
    g.nodes.add("isolated\t&")
    return g


def assert_graphml_matches_elementtree(graph, tmp_path):
    ours, expected = tmp_path / "direct.graphml", tmp_path / "elementtree.graphml"
    write_graphml(graph, ours)
    elementtree_write_graphml(graph, expected)
    assert ours.read_bytes() == expected.read_bytes()


class TestGraphmlMatchesElementTree:
    @pytest.mark.parametrize("kind", KIND_NAMES)
    def test_fixture_graphs(self, fixture_corpus, kind, tmp_path):
        assert_graphml_matches_elementtree(build_graph(GraphKind(kind), fixture_corpus), tmp_path)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_corpus_graphs(self, seed, tmp_path):
        corpus = random_corpus(seed, n_records=30)
        for kind in GraphKind:
            assert_graphml_matches_elementtree(build_graph(kind, corpus), tmp_path)

    def test_escaped_and_non_ascii_labels(self, tmp_path):
        g = escaped_label_graph(["lone \ud800 surrogate"])
        assert_graphml_matches_elementtree(g, tmp_path)
        assert b"&#55296;" in (tmp_path / "direct.graphml").read_bytes()

    def test_nodes_without_edges_and_empty_graph(self, tmp_path):
        g = WeightedGraph(GraphKind.KEYWORD)
        assert_graphml_matches_elementtree(g, tmp_path)
        g.nodes.update({"b", "a"})
        assert_graphml_matches_elementtree(g, tmp_path)


def assert_writers_match_references(graph, tmp_path):
    for write, reference in ((write_dot, loop_write_dot), (write_edge_csv, loop_write_edge_csv)):
        ours, expected = tmp_path / "direct", tmp_path / "reference"
        write(graph, ours)
        reference(graph, expected)
        assert ours.read_bytes() == expected.read_bytes(), write.__name__
    for k in (1, 2, 5, len(graph.edges) + 1):
        assert top_weighted_edges(graph, k) == key_sorted_top_weighted_edges(graph, k)


class TestWritersShareOneSortedEdgeList:
    @pytest.mark.parametrize("kind", KIND_NAMES)
    def test_fixture_graphs(self, fixture_corpus, kind, tmp_path):
        assert_writers_match_references(build_graph(GraphKind(kind), fixture_corpus), tmp_path)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_corpus_graphs(self, seed, tmp_path):
        corpus = random_corpus(seed, n_records=30)
        for kind in GraphKind:
            assert_writers_match_references(build_graph(kind, corpus), tmp_path)

    def test_escaped_labels_and_tied_weights(self, tmp_path):
        assert_writers_match_references(escaped_label_graph(), tmp_path)

    def test_empty_graph(self, tmp_path):
        assert_writers_match_references(WeightedGraph(GraphKind.KEYWORD), tmp_path)


def test_fixture_country_graph_has_expected_shape(fixture_corpus):
    graph = build_graph(GraphKind.COUNTRY, fixture_corpus)
    # the Wuhan record has two China segments -> self-loop; the USA pair
    # comes from the Johns Hopkins + Fudan record
    assert graph.edges[("China", "China")] == 1
    assert ("China", "USA") in graph.edges
    facts = graph_facts(graph)
    assert facts.self_loop_count >= 2  # China-China and India-India and USA-USA
    assert "Thailand" in graph.nodes


class TestPairGraphCountsOnce:
    """The counting build against one `add_pair` call per pair: the same
    nodes, and the same edges in the same insertion order."""

    @staticmethod
    def assert_same_build(kind, column):
        built, expected = pair_graph(kind, column), add_pair_graph(kind, column)
        assert built.kind == kind
        assert built.nodes == expected.nodes
        assert list(built.edges.items()) == list(expected.edges.items())
        assert type(built.edges) is dict

    @pytest.mark.parametrize("kind", list(GraphKind), ids=lambda kind: kind.value)
    def test_corpus_columns(self, fixture_records, kind, tmp_path):
        for records in [fixture_records, *(random_records(seed, n_records=60) for seed in range(6))]:
            corpus = Corpus.from_records(records)
            self.assert_same_build(kind, getattr(corpus, COLUMNS[kind]))
            # the library builds from a corpus; the CLI from the named column of a corpus file
            path = tmp_path / "corpus.jsonl"
            write_corpus_jsonl(records, path)
            assert build_graph(kind, corpus) == pair_graph(kind, read_corpus_column(path, COLUMNS[kind]))

    @pytest.mark.parametrize("kind", [GraphKind.COUNTRY, GraphKind.INSTITUTION])
    def test_repeated_values_pair_into_self_loops(self, kind):
        column = [["b", "a", "b", "b"], ["a"], [], ["c", "a", "c"], ["b", "a"]]
        self.assert_same_build(kind, column)
        assert pair_graph(kind, column).edges == {("a", "b"): 4, ("b", "b"): 3, ("a", "c"): 2, ("c", "c"): 1}

    @pytest.mark.parametrize("kind", [GraphKind.COAUTHOR, GraphKind.RESEARCH_AREA, GraphKind.KEYWORD])
    def test_self_loops_raise_where_the_kind_forbids_them(self, kind):
        with pytest.raises(ValueError, match=f"self-loops are not allowed in {kind.value} graphs"):
            pair_graph(kind, [["a", "b"], ["c", "a", "c"]])
        with pytest.raises(ValueError, match="self-loops are not allowed"):
            add_pair_graph(kind, [["a", "b"], ["c", "a", "c"]])

    def test_empty_column_and_lone_values(self):
        assert pair_graph(GraphKind.KEYWORD, []) == WeightedGraph(GraphKind.KEYWORD)
        graph = pair_graph(GraphKind.KEYWORD, [["x"], [], ["y"]])
        assert graph.nodes == {"x", "y"} and graph.edges == {}
