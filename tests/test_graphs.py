import csv
import random
from xml.etree import ElementTree

import networkx as nx
import pytest

from biblionet.graphs import (
    COLUMNS,
    GraphKind,
    WeightedGraph,
    build_coauthorship,
    build_cooccurrence,
    build_country_graph,
    build_institution_graph,
    graph_facts,
    pair_graph,
    top_weighted_edges,
    write_dot,
    write_edge_csv,
    write_graphml,
)
from biblionet.normalize import ExtractionMode, extract_countries, extract_institutions
from biblionet.wos_ingest import BiblioRecord, Corpus
from oracles import (
    add_pair_graph,
    elementtree_write_graphml,
    key_sorted_top_weighted_edges,
    loop_write_dot,
    loop_write_edge_csv,
    random_corpus,
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
        graph = build_coauthorship(corpus)
        assert graph.nodes == {"A", "B", "C"}
        assert graph.edges == {("A", "B"): 1, ("A", "C"): 1, ("B", "C"): 1}

    def test_repeat_collaboration_weight(self):
        corpus = corpus_of(
            record(author_full_names=["A", "B"]),
            record(author_full_names=["B", "A"]),
        )
        graph = build_coauthorship(corpus)
        assert graph.edges == {("A", "B"): 2}

    def test_solo_author_is_isolated_node(self):
        graph = build_coauthorship(corpus_of(record(author_full_names=["A"])))
        assert graph.nodes == {"A"}
        assert graph.edges == {}
        assert graph_facts(graph).isolated_count == 1

    def test_no_self_loops_from_duplicate_listing(self):
        graph = build_coauthorship(corpus_of(record(author_full_names=["A", "A", "B"])))
        assert graph.edges == {("A", "B"): 1}

    def test_node_set_is_all_cleaned_authors(self, fixture_corpus):
        graph = build_coauthorship(fixture_corpus)
        expected = {name for r in fixture_corpus.records for name in r.distinct_authors()}
        assert graph.nodes == expected


class TestCountryGraph:
    def test_same_country_segments_make_self_loop(self):
        corpus = corpus_of(record(addresses=address(("I1", "MA 02115 USA"), ("I2", "NJ 08540 USA"))))
        graph = build_country_graph(corpus)
        assert graph.edges == {("USA", "USA"): 1}

    def test_two_countries_plain_edge(self):
        corpus = corpus_of(record(addresses=address(("I1", "MA 02115 USA"), ("I2", "England"))))
        graph = build_country_graph(corpus)
        assert graph.edges == {("USA", "United Kingdom"): 1}

    def test_single_segment_isolated_node(self):
        graph = build_country_graph(corpus_of(record(addresses=address(("I1", "Italy")))))
        assert graph.nodes == {"Italy"}
        assert graph.edges == {}
        assert graph_facts(graph).isolated_count == 1


class TestInstitutionGraph:
    def test_intra_institution_self_loop(self):
        corpus = corpus_of(record(addresses=address(("Wuhan Univ", "China"), ("Wuhan Univ", "China"))))
        graph = build_institution_graph(corpus)
        assert graph.edges == {("Wuhan Univ", "Wuhan Univ"): 1}

    def test_distinct_institutions_edge(self):
        corpus = corpus_of(record(addresses=address(("A Univ", "X"), ("B Univ", "Y"))))
        graph = build_institution_graph(corpus)
        assert graph.edges == {("A Univ", "B Univ"): 1}

    def test_three_segment_mixed(self):
        # segments [H, H, W]: one H-H self-loop, two H-W pairs
        corpus = corpus_of(record(addresses=address(("H", "X"), ("H", "X"), ("W", "Y"))))
        graph = build_institution_graph(corpus)
        assert graph.edges == {("H", "H"): 1, ("H", "W"): 2}


class TestCooccurrence:
    def test_research_area_pair(self):
        corpus = corpus_of(record(research_areas=["Infectious Diseases", "Immunology"]))
        graph = build_cooccurrence(corpus, "research_area")
        assert graph.edges == {("Immunology", "Infectious Diseases"): 1}

    def test_single_value_is_isolated(self):
        graph = build_cooccurrence(corpus_of(record(research_areas=["Virology"])), "research_area")
        assert graph.nodes == {"Virology"}
        assert graph_facts(graph).isolated_count == 1

    def test_repeated_pair_weight(self):
        corpus = corpus_of(
            record(author_keywords=["covid-19", "sars-cov-2"]),
            record(author_keywords=["sars-cov-2", "covid-19"]),
        )
        graph = build_cooccurrence(corpus, "keyword")
        assert graph.edges == {("covid-19", "sars-cov-2"): 2}

    def test_no_self_loops_possible(self):
        corpus = corpus_of(record(author_keywords=["covid-19", "covid-19", "pandemic"]))
        graph = build_cooccurrence(corpus, "keyword")
        assert graph.edges == {("covid-19", "pandemic"): 1}

    def test_unknown_field(self):
        with pytest.raises(ValueError):
            build_cooccurrence(corpus_of(), "language")


class TestGraphFacts:
    def test_empty_graph(self):
        facts = graph_facts(WeightedGraph(GraphKind.COAUTHOR))
        assert facts == type(facts)(0, 0, 0, 0, 0, ())

    def test_triangle(self):
        graph = WeightedGraph(GraphKind.COAUTHOR)
        for a, b in [("a", "b"), ("b", "c"), ("a", "c")]:
            graph.add_pair(a, b)
        facts = graph_facts(graph)
        assert facts.component_count == 1
        assert facts.component_sizes == (3,)
        assert facts.isolated_count == 0

    def test_mixed_components_hand_tally(self):
        graph = WeightedGraph(GraphKind.COUNTRY)
        graph.add_pair("a", "b")
        graph.add_pair("b", "c")
        graph.add_pair("d", "e")
        graph.add_pair("f", "f")  # self-loop only: not isolated
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
            graph = build_coauthorship(corpus)
            facts = graph_facts(graph)
            assert sum(facts.component_sizes) == facts.node_count


class TestTopWeightedEdges:
    def graph(self):
        g = WeightedGraph(GraphKind.COUNTRY)
        g.add_pair("USA", "USA", 10)
        g.add_pair("USA", "UK", 7)
        g.add_pair("UK", "Italy", 7)
        g.add_pair("France", "Spain", 2)
        return g

    def test_k1_max(self):
        assert top_weighted_edges(self.graph(), 1) == [("USA", "USA", 10)]

    def test_tie_by_canonical_pair(self):
        top = top_weighted_edges(self.graph(), 3)
        assert top == [("USA", "USA", 10), ("Italy", "UK", 7), ("UK", "USA", 7)]

    def test_self_loop_filter(self):
        top = top_weighted_edges(self.graph(), 2, include_self_loops=False)
        assert top == [("Italy", "UK", 7), ("UK", "USA", 7)]

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            top_weighted_edges(self.graph(), 0)


class TestInvariants:
    def test_order_independence(self):
        for seed in range(8):
            corpus = random_corpus(seed)
            shuffled = list(corpus.records)
            random.Random(seed + 1).shuffle(shuffled)
            permuted = Corpus.from_records(shuffled)
            for build in (build_coauthorship,
                          build_country_graph,
                          build_institution_graph,
                          lambda c: build_cooccurrence(c, "keyword")):
                a = build(corpus)
                b = build(permuted)
                assert a.nodes == b.nodes
                assert a.edges == b.edges

    def test_weight_conservation(self):
        # total pairwise weight equals sum over records of C(m, 2)
        for seed in range(20):
            corpus = random_corpus(seed)
            cases = [
                (build_coauthorship(corpus),
                 [len(r.distinct_authors()) for r in corpus.records]),
                (build_country_graph(corpus),
                 [len(extract_countries(r.addresses, ExtractionMode.MULTISET)) for r in corpus.records]),
                (build_institution_graph(corpus),
                 [len(extract_institutions(r.addresses, ExtractionMode.MULTISET)) for r in corpus.records]),
                (build_cooccurrence(corpus, "keyword"),
                 [len(set(r.author_keywords)) for r in corpus.records]),
            ]
            for graph, sizes in cases:
                validate(graph)
                assert sum(graph.edges.values()) == sum(m * (m - 1) // 2 for m in sizes)

    def test_self_loops_only_in_allowed_kinds(self):
        graph = WeightedGraph(GraphKind.COAUTHOR)
        with pytest.raises(ValueError):
            graph.add_pair("A", "A")

    def test_canonical_orientation(self):
        graph = WeightedGraph(GraphKind.COAUTHOR)
        graph.add_pair("z", "a")
        assert list(graph.edges) == [("a", "z")]


class TestExports:
    def graph(self):
        g = WeightedGraph(GraphKind.COUNTRY)
        g.add_pair("USA", "USA", 3)
        g.add_pair("USA", 'Uni "ted"', 2)
        g.add_pair("Italy", "France", 1)
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


FIVE_KINDS = {
    "coauthor": build_coauthorship,
    "country": build_country_graph,
    "institution": build_institution_graph,
    "research_area": lambda corpus: build_cooccurrence(corpus, "research_area"),
    "keyword": lambda corpus: build_cooccurrence(corpus, "keyword"),
}


def escaped_label_graph(extra_labels=()):
    g = WeightedGraph(GraphKind.COUNTRY)
    labels = ['a&b', "<tag>", 'say "hi"', "it's", "cr\rlf\n", "tab\there", "&amp;", "back\\slash",
              "comma, \"quoted\"", "Zürich", "Łódź", "東京", "emoji \U0001f600", *extra_labels, " padded "]
    for i, label in enumerate(labels):
        g.add_pair(label, labels[(i * 5 + 3) % len(labels)], i % 4 + 1)
    g.add_pair("tab\there", "tab\there", 7)
    g.nodes.add("isolated\t&")
    return g


def assert_graphml_matches_elementtree(graph, tmp_path):
    ours, expected = tmp_path / "direct.graphml", tmp_path / "elementtree.graphml"
    write_graphml(graph, ours)
    elementtree_write_graphml(graph, expected)
    assert ours.read_bytes() == expected.read_bytes()


class TestGraphmlMatchesElementTree:
    @pytest.mark.parametrize("kind", sorted(FIVE_KINDS))
    def test_fixture_graphs(self, fixture_corpus, kind, tmp_path):
        assert_graphml_matches_elementtree(FIVE_KINDS[kind](fixture_corpus), tmp_path)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_corpus_graphs(self, seed, tmp_path):
        corpus = random_corpus(seed, n_records=30)
        for build in FIVE_KINDS.values():
            assert_graphml_matches_elementtree(build(corpus), tmp_path)

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
        for loops in (True, False):
            assert (top_weighted_edges(graph, k, include_self_loops=loops)
                    == key_sorted_top_weighted_edges(graph, k, include_self_loops=loops))


class TestWritersShareOneSortedEdgeList:
    @pytest.mark.parametrize("kind", sorted(FIVE_KINDS))
    def test_fixture_graphs(self, fixture_corpus, kind, tmp_path):
        assert_writers_match_references(FIVE_KINDS[kind](fixture_corpus), tmp_path)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_corpus_graphs(self, seed, tmp_path):
        corpus = random_corpus(seed, n_records=30)
        for build in FIVE_KINDS.values():
            assert_writers_match_references(build(corpus), tmp_path)

    def test_escaped_labels_and_tied_weights(self, tmp_path):
        assert_writers_match_references(escaped_label_graph(), tmp_path)

    def test_add_pair_drops_the_sorted_list(self, tmp_path):
        g = escaped_label_graph()
        assert_writers_match_references(g, tmp_path)
        g.add_pair("Aachen", "Zürich", 9)
        g.add_pair("<tag>", "a&b", 1)
        assert top_weighted_edges(g, 1) == [("Aachen", "Zürich", 9)]
        assert_writers_match_references(g, tmp_path)
        assert_graphml_matches_elementtree(g, tmp_path)

    def test_empty_graph(self, tmp_path):
        assert_writers_match_references(WeightedGraph(GraphKind.KEYWORD), tmp_path)


def test_fixture_country_graph_has_expected_shape(fixture_corpus):
    graph = build_country_graph(fixture_corpus)
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
    def test_corpus_columns(self, fixture_corpus, kind):
        corpora = [fixture_corpus, *(random_corpus(seed, n_records=60) for seed in range(6))]
        for corpus in corpora:
            self.assert_same_build(kind, getattr(corpus, COLUMNS[kind]))
            # the CLI builds from the named column; the library from the corpus
            assert pair_graph(kind, getattr(corpus, COLUMNS[kind])) == FIVE_KINDS[kind.value](corpus)

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
