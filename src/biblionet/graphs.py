"""Weighted undirected collaboration and co-occurrence graphs.

Five graph kinds are built from records, each cleaning only the feature
it pairs: co-authorship, country and institution collaboration (where
repeated values within one paper become self-loops), and research-area
/ keyword co-occurrence.  Edge weight counts pairwise co-occurrences
across records.

A graph is built once, in integer form (see `WeightedGraph`), and no
function changes it.  numpy is imported inside the functions, so CLI
commands that build no graph do not load it.
"""

from __future__ import annotations

import csv
import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain, combinations
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .normalize import NormalizationRules, extract_countries, extract_institutions
from .wos_ingest import BiblioRecord


class GraphKind(str, Enum):
    COAUTHOR = "coauthor"
    COUNTRY = "country"
    INSTITUTION = "institution"
    RESEARCH_AREA = "research_area"
    KEYWORD = "keyword"


# kind -> the values of one record that it pairs: distinct authors, areas and
# keywords; a country and an institution per address segment, whose repeats
# pair into self-loops.  Each call looks its cleaner up, so a replaced module
# binding takes effect.
_VALUES = {
    GraphKind.COAUTHOR: lambda record, rules: record.distinct_authors(),
    GraphKind.COUNTRY: lambda record, rules: extract_countries(record.addresses, rules),
    GraphKind.INSTITUTION: lambda record, rules: extract_institutions(record.addresses),
    GraphKind.RESEARCH_AREA: lambda record, rules: dict.fromkeys(record.research_areas),
    GraphKind.KEYWORD: lambda record, rules: dict.fromkeys(record.author_keywords),
}


@dataclass(eq=False)
class WeightedGraph:
    """Undirected weighted graph on node i = `labels[i]`, labels sorted.

    Edge e joins `tails[e]` <= `heads[e]` with weight `weights[e]`, and
    the edges are sorted by (tail, head).  As the ids follow label
    order, that is canonical pair order, each pair's labels in order;
    self-loops (tail == head) occur only in the country and institution
    kinds.

    The constructor derives the simple graph (self-loops dropped): the
    `degree[i]` neighbours of node i are
    `indices[indptr[i]:indptr[i + 1]]`, in index order, and
    `component[i]` is its component's position in
    `connected_components`.  The last four fields keep what is derived
    from the graph once it has been asked for: the member set of each
    component, the largest component of a disconnected graph, the node
    whose traversal serves each node, and every node's distance sum.
    Nothing else changes once the graph is built.
    """

    kind: GraphKind
    labels: tuple[str, ...]
    tails: np.ndarray
    heads: np.ndarray
    weights: np.ndarray
    indptr: np.ndarray = field(init=False)
    indices: np.ndarray = field(init=False)
    degree: np.ndarray = field(init=False)
    component: np.ndarray = field(init=False)
    members: list[frozenset[str]] | None = field(init=False, default=None)
    largest: WeightedGraph | None = field(init=False, default=None)
    served_by: tuple[np.ndarray, np.ndarray] | None = field(init=False, default=None)
    distance_sums: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        import numpy as np
        n = len(self.labels)
        simple = self.tails != self.heads
        tails, heads = self.tails[simple], self.heads[simple]
        # each edge in both orientations, sorted by (tail, head); distinct
        # canonical edges make every arc distinct
        arcs = np.sort(np.concatenate([tails * n + heads, heads * n + tails]))
        arc_tails, self.indices = np.divmod(arcs, n)
        self.degree = np.bincount(arc_tails, minlength=n)
        self.indptr = np.concatenate([[0], np.cumsum(self.degree)])

        # each node takes the smallest index among its own and its
        # neighbours' labels, then the label of that label, until no label
        # moves: every component ends on its smallest index (smallest label)
        root = np.arange(n, dtype=np.int64)
        while True:
            lower = root.copy()
            np.minimum.at(lower, arc_tails, root[self.indices])
            lower = lower[lower]
            if np.array_equal(lower, root):
                break
            root = lower
        # a component's id is the rank of its (-size, smallest index) among all
        key = (n - np.bincount(root, minlength=n)[root]) * n + root
        self.component = np.searchsorted(np.sort(key[root == np.arange(n)]), key)

    @property
    def node_count(self) -> int:
        return len(self.labels)

    @cached_property
    def nodes(self) -> frozenset[str]:
        return frozenset(self.labels)

    @cached_property
    def edges(self) -> Mapping[tuple[str, str], int]:
        """Read-only (label_a, label_b) -> weight, in canonical order."""
        return MappingProxyType({(a, b): weight for a, b, weight in _edge_rows(self, self.labels)})


def _edge_rows(graph: WeightedGraph, names: Sequence[str], rows=slice(None)) -> Iterator[tuple[str, str, int]]:
    """(name of tail, name of head, weight) of the edges at `rows`, in
    their order, where node i is named `names[i]`."""
    return zip(map(names.__getitem__, graph.tails[rows].tolist()),
               map(names.__getitem__, graph.heads[rows].tolist()), graph.weights[rows].tolist())


def _from_counts(kind: GraphKind, ids: dict[str, int],
                 counts: Mapping[tuple[int, int], int]) -> WeightedGraph:
    """The graph whose edge between the labels of ids i and j weighs
    `counts[i, j]`, given the ids 0..n-1 of the n labels in any order.

    The labels are sorted once and the ids renumbered to follow them;
    each pair then takes the lower id first, and one sort of the pairs
    gives canonical order.
    """
    import numpy as np
    labels = sorted(ids)
    # an id's new id: the inverse of the permutation that lists the old ids in label order
    rank = np.argsort(np.fromiter(map(ids.__getitem__, labels), dtype=np.int64, count=len(labels)))
    ends = rank[np.fromiter(chain.from_iterable(counts), dtype=np.int64, count=2 * len(counts)).reshape(-1, 2)]
    tails, heads = ends.min(axis=1), ends.max(axis=1)
    weights = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
    canonical = np.lexsort((heads, tails))
    return WeightedGraph(kind, tuple(labels), tails[canonical], heads[canonical], weights[canonical])


def build_graph(kind: GraphKind, records: Iterable[BiblioRecord],
                rules: NormalizationRules | None = None) -> WeightedGraph:
    """Each unordered pair of one record's values adds 1 to its weight.

    `records` may be any iterable, such as `iter_corpus_records(path)`:
    each record is cleaned for this kind's feature only (countries by
    `rules`), paired, and not kept.  A value alone in its record still
    becomes a node.  Only country and institution graphs carry
    self-loops: intra-country / intra-institution collaboration.  Edges
    come in canonical order, by label pair.
    """
    values_of = _VALUES[kind]
    ids: dict[str, int] = {}  # each label's id, in order of first appearance
    counts: Counter[tuple[int, int]] = Counter()
    for record in records:
        # ids in ascending order, so each pair comes lower id first
        counts.update(combinations(sorted([ids.setdefault(value, len(ids)) for value in values_of(record, rules)]), 2))
    return _from_counts(kind, ids, counts)


@dataclass(frozen=True)
class GraphFacts:
    node_count: int
    edge_count: int
    self_loop_count: int
    isolated_count: int
    component_count: int
    component_sizes: tuple[int, ...]


def connected_components(graph: WeightedGraph) -> list[frozenset[str]]:
    """Components of the simple graph, largest first.

    Ties on size break by smallest member label for determinism.  The
    sets are grouped once per graph and shared by every call.
    """
    if graph.members is None:
        members: list[list[str]] = [[] for _ in range(graph.component.max(initial=-1) + 1)]
        for label, component in zip(graph.labels, graph.component.tolist()):
            members[component].append(label)
        graph.members = list(map(frozenset, members))
    return list(graph.members)


def graph_facts(graph: WeightedGraph) -> GraphFacts:
    """Node/edge/self-loop/isolation/component summary.

    A node is isolated only when it has no incident edges at all; a
    node carrying just a self-loop is not isolated.
    """
    components = connected_components(graph)
    looped = graph.tails[graph.tails == graph.heads]  # one self-loop per node at most
    return GraphFacts(
        node_count=graph.node_count,
        edge_count=graph.tails.size,
        self_loop_count=looped.size,
        # the one-node components, less those that carry a self-loop
        isolated_count=sum(len(c) == 1 for c in components) - int((graph.degree[looped] == 0).sum()),
        component_count=len(components),
        component_sizes=tuple(len(c) for c in components),
    )


def top_weighted_edges(graph: WeightedGraph, k: int) -> list[tuple[str, str, int]]:
    """Heaviest k edges, self-loops included, ties by canonical pair ascending."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    import numpy as np
    # a stable sort keeps the canonical order among equal weights
    return list(_edge_rows(graph, graph.labels, np.argsort(-graph.weights, kind="stable")[:k]))


# ElementTree's attribute escaping, in its order
_XML_ATTRIBUTE_ESCAPES = (
    ("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"), ('"', "&quot;"),
    ("\r", "&#13;"), ("\n", "&#10;"), ("\t", "&#09;"),
)
# what XML 1.0 allows neither raw nor as a reference, lone surrogates aside
_XML_FORBIDDEN = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]")


def _xml_attribute(text: str) -> str:
    text = _XML_FORBIDDEN.sub("\ufffd", text)
    for char, entity in _XML_ATTRIBUTE_ESCAPES:
        if char in text:
            text = text.replace(char, entity)
    return text


def write_graphml(graph: WeightedGraph, path: str | Path) -> None:
    """GraphML export with an integer `weight` edge attribute.

    Written line by line in the bytes that ElementTree's indented output
    gives (`ElementTree.indent`, then `write` with an XML declaration):
    the same layout, attribute escaping and file encoding, where a lone
    surrogate in a label becomes a character reference.  A character
    that XML 1.0 forbids (C0 controls bar tab, LF and CR; U+FFFE, U+FFFF)
    becomes U+FFFD, so that XML parsers read the file; labels that
    differ only there share an id.
    """
    quoted = list(map(_xml_attribute, graph.labels))
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
        fh.writelines(f'    <node id="{node}" />\n' for node in quoted)
        fh.writelines(
            f'    <edge source="{a}" target="{b}">\n'
            f'      <data key="weight">{weight}</data>\n'
            "    </edge>\n"
            for a, b, weight in _edge_rows(graph, quoted)
        )
        fh.write("  </graph>\n</graphml>")


def _dot_quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def write_dot(graph: WeightedGraph, path: str | Path) -> None:
    """DOT export with a `weight` edge attribute."""
    quoted = list(map(_dot_quote, graph.labels))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"graph {graph.kind.value} {{\n")
        fh.writelines(f"  {node};\n" for node in quoted)
        fh.writelines(f"  {a} -- {b} [weight={weight}];\n" for a, b, weight in _edge_rows(graph, quoted))
        fh.write("}\n")


def write_edge_csv(graph: WeightedGraph, path: str | Path) -> None:
    """Edge list as CSV (label_a, label_b, weight) in canonical order."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["label_a", "label_b", "weight"])
        writer.writerows(_edge_rows(graph, graph.labels))
