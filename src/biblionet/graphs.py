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
from operator import itemgetter
from pathlib import Path

from .wos_ingest import Corpus


class GraphKind(str, Enum):
    COAUTHOR = "coauthor"
    COUNTRY = "country"
    INSTITUTION = "institution"
    RESEARCH_AREA = "research_area"
    KEYWORD = "keyword"


SELF_LOOP_KINDS = frozenset({GraphKind.COUNTRY, GraphKind.INSTITUTION})
# the corpus column whose values each kind pairs
COLUMNS = {GraphKind.COAUTHOR: "authors", GraphKind.COUNTRY: "country_multisets",
           GraphKind.INSTITUTION: "institution_multisets", GraphKind.RESEARCH_AREA: "research_areas",
           GraphKind.KEYWORD: "keywords"}


@dataclass
class WeightedGraph:
    """Undirected weighted graph with labeled nodes.

    Edge keys are stored in canonical (lexicographic) orientation;
    self-pairs are allowed only for the country and institution kinds.

    The structural functions read one integer view of the graph, and the
    writers one sorted edge list, each derived on its first read and
    kept, so nodes and edges must not change once the graph has been
    analysed or written.
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

    @cached_property
    def _view(self) -> _GraphView:
        return _build_view(self)

    @cached_property
    def _sorted_edges(self) -> list[tuple[str, str, int]]:
        """Every (a, b, weight), in canonical pair order."""
        # flat tuples sort faster than ((a, b), weight) items; pairs are
        # distinct, so the weight never decides
        return sorted([(a, b, weight) for (a, b), weight in self.edges.items()])


def pair_graph(kind: GraphKind, column: list[list[str]]) -> WeightedGraph:
    """Each unordered pair of one record's values adds 1 to its weight.

    A value alone in its record still becomes a node.  Equal values of
    one multiset (from different address segments) pair into self-loops:
    intra-country / intra-institution collaboration.  Edges are in the
    order of their first pairs.
    """
    edges: dict[tuple[str, str], int] = {}
    for values in column:
        for a, b in combinations(values, 2):
            pair = (a, b) if a <= b else (b, a)
            edges[pair] = edges.get(pair, 0) + 1
    if kind not in SELF_LOOP_KINDS and any(a == b for a, b in edges):
        raise ValueError(f"self-loops are not allowed in {kind.value} graphs")
    return WeightedGraph(kind, set(chain.from_iterable(column)), edges)


def build_graph(kind: GraphKind, corpus: Corpus) -> WeightedGraph:
    """`pair_graph` over the corpus column that `kind` pairs.

    Authors, research areas and keywords appear once per record in their
    columns, so only country and institution graphs carry self-loops.
    """
    return pair_graph(kind, getattr(corpus, COLUMNS[kind]))


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
    is its component's position in `connected_components`.  The last
    four fields keep what is derived from the view once it has been
    asked for: the member set of each component, the largest component
    subgraph of a disconnected graph, the node whose traversal serves
    each node, and every node's distance sum.
    """

    labels: list[str]
    indptr: np.ndarray
    indices: np.ndarray
    degree: np.ndarray
    component: np.ndarray
    members: list[set[str]] | None = None
    largest: WeightedGraph | None = None
    served_by: tuple[np.ndarray, np.ndarray] | None = None
    distance_sums: np.ndarray | None = None


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

    Ties on size break by smallest member label for determinism.  The
    sets are grouped once per graph and shared by every call: read them,
    never modify them.
    """
    view = graph._view
    if view.members is None:
        members: dict[int, set[str]] = {}
        for label, component in zip(view.labels, view.component.tolist()):
            members.setdefault(component, set()).add(label)
        view.members = [members[component] for component in range(len(members))]
    return list(view.members)


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


def top_weighted_edges(graph: WeightedGraph, k: int) -> list[tuple[str, str, int]]:
    """Heaviest k edges, self-loops included, ties by canonical pair ascending."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    # a stable sort keeps the pair order among equal weights
    return sorted(graph._sorted_edges, key=itemgetter(2), reverse=True)[:k]


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
            for a, b, weight in graph._sorted_edges
        )
        fh.write("  </graph>\n</graphml>")


def _dot_quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def write_dot(graph: WeightedGraph, path: str | Path) -> None:
    """DOT export with a `weight` edge attribute."""
    quoted = {node: _dot_quote(node) for node in graph.nodes}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"graph {graph.kind.value} {{\n")
        fh.writelines(f"  {quoted[node]};\n" for node in sorted(quoted))
        fh.writelines(
            f"  {quoted[a]} -- {quoted[b]} [weight={weight}];\n" for a, b, weight in graph._sorted_edges
        )
        fh.write("}\n")


def write_edge_csv(graph: WeightedGraph, path: str | Path) -> None:
    """Edge list as CSV (label_a, label_b, weight) in canonical order."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["label_a", "label_b", "weight"])
        writer.writerows(graph._sorted_edges)
