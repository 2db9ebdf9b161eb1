"""Weighted undirected collaboration and co-occurrence graphs.

Five graph kinds are built from a corpus: co-authorship, country and
institution collaboration (where repeated values within one paper
become self-loops), and research-area / keyword co-occurrence.  Edge
weight counts pairwise co-occurrences across records.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain, combinations
from pathlib import Path

from .wos_ingest import Corpus


class GraphKind(str, Enum):
    COAUTHOR = "coauthor"
    COUNTRY = "country"
    INSTITUTION = "institution"
    RESEARCH_AREA = "research_area"
    KEYWORD = "keyword"


SELF_LOOP_KINDS = frozenset({GraphKind.COUNTRY, GraphKind.INSTITUTION})


def canonical_pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


@dataclass
class WeightedGraph:
    """Undirected weighted graph with labeled nodes.

    Edge keys are stored in canonical (lexicographic) orientation;
    self-pairs are allowed only for the country and institution kinds.

    The structural functions read one integer view of the graph, derived
    on its first read and kept: `add_pair` drops it, so nodes and edges
    must not change any other way once the graph has been analysed.
    """

    kind: GraphKind
    nodes: set[str] = field(default_factory=set)
    edges: dict[tuple[str, str], int] = field(default_factory=dict)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def self_loops(self) -> list[tuple[str, str]]:
        return [pair for pair in self.edges if pair[0] == pair[1]]

    def add_pair(self, a: str, b: str, weight: int = 1) -> None:
        if a == b and self.kind not in SELF_LOOP_KINDS:
            raise ValueError(f"self-loops are not allowed in {self.kind.value} graphs")
        pair = canonical_pair(a, b)
        self.nodes.add(a)
        self.nodes.add(b)
        self.edges[pair] = self.edges.get(pair, 0) + weight
        self.__dict__.pop("_view", None)

    @cached_property
    def _view(self) -> _GraphView:
        return _build_view(self)

    def adjacency(self) -> dict[str, set[str]]:
        """Neighbor sets of the simple-graph view (self-loops ignored)."""
        adj: dict[str, set[str]] = {node: set() for node in self.nodes}
        for (a, b) in self.edges:
            if a != b:
                adj[a].add(b)
                adj[b].add(a)
        return adj

    def validate(self) -> None:
        for (a, b), weight in self.edges.items():
            if a not in self.nodes or b not in self.nodes:
                raise ValueError(f"edge ({a!r}, {b!r}) references unknown node")
            if weight < 1:
                raise ValueError(f"edge ({a!r}, {b!r}) has nonpositive weight {weight}")
            if not a <= b:
                raise ValueError(f"edge ({a!r}, {b!r}) is not in canonical orientation")
            if a == b and self.kind not in SELF_LOOP_KINDS:
                raise ValueError(f"self-loop {a!r} in {self.kind.value} graph")


def _pair_graph(kind: GraphKind, column: list[list[str]]) -> WeightedGraph:
    """Each unordered pair of one record's values adds 1 to its weight.

    A value alone in its record still becomes a node.  Equal values of
    one multiset (from different address segments) pair into self-loops:
    intra-country / intra-institution collaboration.
    """
    graph = WeightedGraph(kind)
    for values in column:
        graph.nodes.update(values)
        for a, b in combinations(values, 2):
            graph.add_pair(a, b)
    return graph


def build_coauthorship(corpus: Corpus) -> WeightedGraph:
    """One node per author; each shared paper adds 1 to the pair weight.

    Solo authors become isolated nodes.
    """
    return _pair_graph(GraphKind.COAUTHOR, corpus.authors)


def build_country_graph(corpus: Corpus) -> WeightedGraph:
    """Country collaboration graph over per-segment country multisets."""
    return _pair_graph(GraphKind.COUNTRY, corpus.country_multisets)


def build_institution_graph(corpus: Corpus) -> WeightedGraph:
    """Institution collaboration graph over per-segment institution multisets."""
    return _pair_graph(GraphKind.INSTITUTION, corpus.institution_multisets)


def build_cooccurrence(corpus: Corpus, field: str) -> WeightedGraph:
    """Co-occurrence graph of research areas or author keywords.

    Values are de-duplicated within a record, so no self-loops arise.
    """
    if field == "research_area":
        return _pair_graph(GraphKind.RESEARCH_AREA, corpus.research_areas)
    if field == "keyword":
        return _pair_graph(GraphKind.KEYWORD, corpus.keywords)
    raise ValueError(f"unknown co-occurrence field {field!r}")


@dataclass(frozen=True)
class GraphFacts:
    node_count: int
    edge_count: int
    self_loop_count: int
    isolated_count: int
    component_count: int
    component_sizes: tuple[int, ...]


@dataclass(eq=False)
class _GraphView:
    """The simple graph (self-loops dropped) on node i = `labels[i]`.

    The `degree[i]` neighbours of node i are
    `indices[indptr[i]:indptr[i + 1]]`, in index order; `component[i]`
    is its component's position in `connected_components`.  `largest`
    keeps the largest component subgraph once it has been derived.
    """

    labels: list[str]
    indptr: np.ndarray
    indices: np.ndarray
    degree: np.ndarray
    component: np.ndarray
    largest: WeightedGraph | None = None


def _build_view(graph: WeightedGraph) -> _GraphView:
    import numpy as np
    labels = sorted(graph.nodes)
    n = len(labels)
    index = {label: i for i, label in enumerate(labels)}
    pairs = chain.from_iterable(pair for pair in graph.edges if pair[0] != pair[1])
    ends = np.fromiter(map(index.__getitem__, pairs), dtype=np.int64).reshape(-1, 2)
    # each edge in both orientations, sorted by (tail, head); canonical
    # edge keys make every arc distinct
    arcs = np.sort(np.concatenate([ends[:, 0] * n + ends[:, 1], ends[:, 1] * n + ends[:, 0]]))
    tails, indices = np.divmod(arcs, n)
    degree = np.bincount(tails, minlength=n)
    indptr = np.concatenate([[0], np.cumsum(degree)])

    # each node takes the smallest index among its own and its
    # neighbours' labels, then the label of that label, until no label
    # moves: every component ends on its smallest index (smallest label)
    root = np.arange(n, dtype=np.int64)
    while True:
        lower = root.copy()
        np.minimum.at(lower, tails, root[indices])
        lower = lower[lower]
        if np.array_equal(lower, root):
            break
        root = lower
    # a component's id is the rank of its (-size, smallest index) among all
    key = (n - np.bincount(root, minlength=n)[root]) * n + root
    component = np.searchsorted(np.sort(key[root == np.arange(n)]), key)
    return _GraphView(labels, indptr, indices, degree, component)


def connected_components(graph: WeightedGraph) -> list[set[str]]:
    """Components of the simple-graph view, largest first.

    Ties on size break by smallest member label for determinism.
    """
    view = graph._view
    members: dict[int, set[str]] = {}
    for label, component in zip(view.labels, view.component.tolist()):
        members.setdefault(component, set()).add(label)
    return [members[component] for component in range(len(members))]


def graph_facts(graph: WeightedGraph) -> GraphFacts:
    """Node/edge/self-loop/isolation/component summary.

    A node is isolated only when it has no incident edges at all; a
    node carrying just a self-loop is not isolated.
    """
    components = connected_components(graph)
    looped = {a for a, _ in graph.self_loops()}  # one self-loop key per node
    return GraphFacts(
        node_count=graph.node_count,
        edge_count=graph.edge_count,
        self_loop_count=len(looped),
        isolated_count=sum(1 for c in components if len(c) == 1 and not c <= looped),
        component_count=len(components),
        component_sizes=tuple(len(c) for c in components),
    )


def top_weighted_edges(
    graph: WeightedGraph, k: int, include_self_loops: bool = True
) -> list[tuple[str, str, int]]:
    """Heaviest k edges, ties by canonical pair ascending."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    edges = [
        (a, b, weight)
        for (a, b), weight in graph.edges.items()
        if include_self_loops or a != b
    ]
    edges.sort(key=lambda edge: (-edge[2], edge[0], edge[1]))
    return edges[:k]


def degree_counts(graph: WeightedGraph) -> Counter:
    """Histogram of distinct-neighbor degrees."""
    return Counter(graph._view.degree.tolist())


# ElementTree's attribute escaping, in its order
_XML_ATTRIBUTE_ESCAPES = (
    ("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"), ('"', "&quot;"),
    ("\r", "&#13;"), ("\n", "&#10;"), ("\t", "&#09;"),
)


def _xml_attribute(text: str) -> str:
    for char, entity in _XML_ATTRIBUTE_ESCAPES:
        if char in text:
            text = text.replace(char, entity)
    return text


def write_graphml(graph: WeightedGraph, path: str | Path) -> None:
    """GraphML export with an integer `weight` edge attribute.

    Written line by line in the bytes that ElementTree's indented output
    gives (`ElementTree.indent`, then `write` with an XML declaration):
    the same layout, attribute escaping and file encoding, where a lone
    surrogate in a label becomes a character reference.
    """
    quoted = {node: _xml_attribute(node) for node in graph.nodes}
    with open(path, "w", encoding="utf-8", errors="xmlcharrefreplace") as fh:
        fh.write(
            "<?xml version='1.0' encoding='utf-8'?>\n"
            '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n'
            '  <key id="weight" for="edge" attr.name="weight" attr.type="int" />\n'
            f'  <graph id="{graph.kind.value}" edgedefault="undirected"'
        )
        if not quoted:
            fh.write(" />\n</graphml>")
            return
        fh.write(">\n")
        fh.writelines(f'    <node id="{quoted[node]}" />\n' for node in sorted(quoted))
        fh.writelines(
            f'    <edge source="{quoted[a]}" target="{quoted[b]}">\n'
            f'      <data key="weight">{weight}</data>\n'
            "    </edge>\n"
            for (a, b), weight in sorted(graph.edges.items())
        )
        fh.write("  </graph>\n</graphml>")


def _dot_quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def write_dot(graph: WeightedGraph, path: str | Path) -> None:
    """DOT export with a `weight` edge attribute."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"graph {graph.kind.value} {{\n")
        for node in sorted(graph.nodes):
            fh.write(f"  {_dot_quote(node)};\n")
        for (a, b) in sorted(graph.edges):
            fh.write(f"  {_dot_quote(a)} -- {_dot_quote(b)} [weight={graph.edges[(a, b)]}];\n")
        fh.write("}\n")


def write_edge_csv(graph: WeightedGraph, path: str | Path) -> None:
    """Edge list as CSV (label_a, label_b, weight) in canonical order."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["label_a", "label_b", "weight"])
        for (a, b) in sorted(graph.edges):
            writer.writerow([a, b, graph.edges[(a, b)]])
