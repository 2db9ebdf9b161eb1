"""Independent brute-force oracles and seeded generators for the tests.

Everything here recomputes expected values from first principles
(definitional enumeration, full DP matrices, all-pairs path counting)
so the implementations under test are checked against a second route.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
import random
import re
import string
from collections import Counter
from pathlib import Path
from unittest import mock
from xml.etree import ElementTree

import numpy as np
from hypothesis import strategies as st
from scipy.special import zeta

from biblionet import graphs
from biblionet.dedup import SuspectPair
from biblionet.errors import DegenerateDataError, FormatError
from biblionet.graph_stats import _EULER_MACLAURIN, _MACHEP, PowerLawFit
from biblionet.graphs import GraphKind, WeightedGraph, _from_counts, build_graph
from biblionet.keywords import StopwordSet, filter_stopwords
from biblionet.metrics import AuthorRow, MonthlySeries
from biblionet.normalize import extract_countries, extract_institutions, normalize_date, split_list_field
from biblionet.wos_ingest import PUBLICATION_TYPES, BiblioRecord, Corpus, ParseResult

# the kinds whose values repeat within a record (one per address segment),
# so that their graphs carry self-loops
SELF_LOOP_KINDS = frozenset({GraphKind.COUNTRY, GraphKind.INSTITUTION})


# ---------------------------------------------------------------------------
# string metrics

def dp_levenshtein(a: str, b: str) -> int:
    """Full-matrix dynamic program, straight from the recurrence."""
    n, m = len(a), len(b)
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        table[i][0] = i
    for j in range(m + 1):
        table[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1]
            else:
                table[i][j] = 1 + min(table[i - 1][j], table[i][j - 1], table[i - 1][j - 1])
    return table[n][m]


def brute_force_suspect_pairs(names: list[str], threshold: float) -> list[SuspectPair]:
    """Every name pair scored with the full DP; only the length check prunes."""
    unique = sorted(dict.fromkeys(name for name in names if name))
    pairs = []
    for i, a in enumerate(unique):
        for b in unique[i + 1:]:
            total = len(a) + len(b)
            if (total - abs(len(a) - len(b))) / total < threshold:
                continue
            ratio = (total - dp_levenshtein(a, b)) / total
            if ratio >= threshold:
                pairs.append(SuspectPair(a, b, ratio))
    pairs.sort(key=lambda p: (-p.ratio, p.name_a, p.name_b))
    return pairs


# ---------------------------------------------------------------------------
# the export parser as it was: tag lines by regex, every part stripped
# again where it is read

_REGEX_TAG_LINE = re.compile(r"^([A-Z0-9]{2})( |$)")
_REGEX_TAG_TOKEN = re.compile(r"^[A-Z0-9]{2}$")


def _int_or_default(text: str, default: int = 0) -> int:
    try:
        return int(text.strip())
    except (ValueError, AttributeError):
        return default


def restripping_build_record(fields: dict[str, list[str]], warnings: list[str], context: str) -> BiblioRecord | None:
    """Assemble a BiblioRecord from tag -> raw lines; None if unusable."""
    def joined(tag: str) -> str:
        return " ".join(part.strip() for part in fields.get(tag, [])).strip()

    title = joined("TI")
    if not title:
        warnings.append(f"{context}: record missing title, skipped")
        return None

    pt = joined("PT")
    pt = pt.split()[0].upper() if pt else "J"
    if pt not in PUBLICATION_TYPES:
        warnings.append(f"{context}: unknown publication type {pt!r}, record skipped")
        return None

    authors: list[str] = []
    for line in fields.get("AF", []):
        authors.extend(name.strip() for name in line.split(";") if name.strip())

    page_count = _int_or_default(joined("PG"), 0)
    return BiblioRecord(
        publication_type=pt,
        title=title,
        author_full_names=authors,
        source_abbrev=joined("JI"),
        language=joined("LA"),
        document_type=joined("DT"),
        author_keywords=split_list_field(joined("DE"), lowercase=True),
        abstract=joined("AB") or None,
        addresses="; ".join(part.strip() for part in fields.get("C1", []) if part.strip()),
        cited_reference_count=max(0, _int_or_default(joined("NR"))),
        times_cited=max(0, _int_or_default(joined("TC"))),
        publication_date=joined("PD"),
        publication_year=_int_or_default(joined("PY")),
        research_areas=split_list_field(joined("SC")),
        page_count=page_count if page_count > 0 else None,
        accession_id=joined("UT") or None,
    )


def regex_parse_tagged(text: str) -> ParseResult:
    """The tagged dialect, each line matched against `^([A-Z0-9]{2})( |$)`."""
    records: list[BiblioRecord] = []
    warnings: list[str] = []
    fields: dict[str, list[str]] = {}
    current_tag: str | None = None
    record_start = 1

    def flush(line_no: int) -> None:
        nonlocal fields, current_tag, record_start
        if fields:
            record = restripping_build_record(fields, warnings, f"record starting at line {record_start}")
            if record is not None:
                records.append(record)
        fields = {}
        current_tag = None
        record_start = line_no + 1

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.rstrip()
        if not line.strip():
            continue
        match = _REGEX_TAG_LINE.match(line)
        if match:
            tag = match.group(1)
            if tag == "ER":
                flush(line_no)
                continue
            if tag == "EF":
                break
            if not fields:
                record_start = line_no
            current_tag = tag
            fields.setdefault(tag, []).append(line[3:].strip())
        elif current_tag:
            fields[current_tag].append(line.strip())
    flush(0)
    return ParseResult(records=records, warnings=warnings)


def regex_parse_tab_delimited(text: str) -> ParseResult:
    """The tab-delimited dialect, header tags matched against `^[A-Z0-9]{2}$`."""
    lines = text.splitlines()
    blank = 0  # the blank lines above the header, which line numbers count
    while lines and not lines[0].strip():
        lines.pop(0)
        blank += 1
    if not lines:
        return ParseResult(records=[], warnings=[])

    header = lines[0].rstrip("\r\n").split("\t")
    tags = [tag.strip() for tag in header]
    bad = [tag for tag in tags if not _REGEX_TAG_TOKEN.match(tag)]
    if bad:
        raise FormatError(f"malformed header at line {blank + 1}: invalid field tags {bad}")

    records: list[BiblioRecord] = []
    warnings: list[str] = []
    for line_no, line in enumerate(lines[1:], start=blank + 2):
        if not line.strip():
            continue
        cells = line.split("\t")
        fields: dict[str, list[str]] = {}
        for tag, cell in zip(tags, cells):
            if cell.strip():
                fields[tag] = [cell.strip()]
        record = restripping_build_record(fields, warnings, f"line {line_no}")
        if record is not None:
            records.append(record)
    return ParseResult(records=records, warnings=warnings)


# ---------------------------------------------------------------------------
# records back to the tab-delimited dialect, for the parser's round trip

# tag -> BiblioRecord attribute, in canonical column order
_TAG_ATTRIBUTES = {
    "PT": "publication_type", "AF": "author_full_names", "TI": "title", "JI": "source_abbrev",
    "LA": "language", "DT": "document_type", "DE": "author_keywords", "AB": "abstract",
    "C1": "addresses", "NR": "cited_reference_count", "TC": "times_cited", "PD": "publication_date",
    "PY": "publication_year", "SC": "research_areas", "PG": "page_count", "UT": "accession_id",
}
RETAINED_TAGS = tuple(_TAG_ATTRIBUTES)


def _serialize_field(record: BiblioRecord, tag: str) -> str:
    value = getattr(record, _TAG_ATTRIBUTES[tag])
    if isinstance(value, list):
        return "; ".join(value)
    return "" if value is None else str(value)


def to_tab_delimited(records: list[BiblioRecord], tags: tuple[str, ...] = RETAINED_TAGS) -> str:
    """Serialize records back to the tab-delimited dialect."""
    out = io.StringIO()
    out.write("\t".join(tags))
    out.write("\n")
    for record in records:
        out.write("\t".join(_serialize_field(record, tag) for tag in tags))
        out.write("\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# address segmentation

def char_walk_address_segments(address: str) -> list[str]:
    """Split on ";" outside square brackets, one character at a time."""
    segments = []
    depth = 0
    current: list[str] = []
    for ch in address:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth = max(0, depth - 1)
        if ch == ";" and depth == 0:
            segments.append("".join(current))
            current = []
        else:
            current.append(ch)
    segments.append("".join(current))
    return [s for s in (seg.strip().rstrip(".").strip() for seg in segments) if s]


# ---------------------------------------------------------------------------
# citation indices by enumeration

def brute_h_index(citations: list[int]) -> int:
    ranked = sorted(citations, reverse=True)
    best = 0
    for h in range(len(ranked) + 1):
        if all(c >= h for c in ranked[:h]):
            best = h
    return best


def brute_g_index(citations: list[int]) -> int:
    ranked = sorted(citations, reverse=True)
    best = 0
    for g in range(len(ranked) + 1):
        if g * g <= sum(ranked[:g]):
            best = g
    return best


def every_row_author_table(records: list[BiblioRecord], k: int) -> list[AuthorRow]:
    """A row, with brute-force h and g, for every author; then the first
    k by total citations descending, name ascending."""
    vectors: dict[str, list[int]] = {}
    for record in records:
        for name in record.distinct_authors():
            vectors.setdefault(name, []).append(record.times_cited)
    rows = [AuthorRow(name, sum(vector), len(vector), sum(vector) / len(vector),
                      brute_h_index(vector), brute_g_index(vector)) for name, vector in vectors.items()]
    rows.sort(key=lambda row: (-row.total_cited, row.name))
    return rows[:k]


# ---------------------------------------------------------------------------
# the tables of metrics worked out from the records, by the per-record
# expressions that metrics read before a Corpus held each feature as a
# column

# field -> the values of one record, each value once
RECORD_FIELD_VALUES = {
    "publication_type": lambda r, rules: [r.publication_type],
    # the first non-blank category
    "document_type": lambda r, rules: [part.strip() for part in r.document_type.split(";") if part.strip()][:1],
    "language": lambda r, rules: [r.language] if r.language else [],
    "source": lambda r, rules: [r.source_abbrev] if r.source_abbrev else [],
    "country": lambda r, rules: list(dict.fromkeys(extract_countries(r.addresses, rules))),
    "institution": lambda r, rules: list(dict.fromkeys(extract_institutions(r.addresses))),
    "research_area": lambda r, rules: list(dict.fromkeys(r.research_areas)),
    "keyword": lambda r, rules: list(dict.fromkeys(r.author_keywords)),
}


def record_field_counts(records: list[BiblioRecord], field: str, rules=None) -> Counter:
    return Counter(value for r in records for value in RECORD_FIELD_VALUES[field](r, rules))


def record_monthly_counts(records: list[BiblioRecord], group_by: str, keys: list[str] | None = None,
                          rules=None) -> list[MonthlySeries]:
    """Every record's month and groups, tallied, then the series of `keys`
    (all keys, ascending, when None)."""
    dated = [(month, r) for r in records
             if (month := normalize_date(r.publication_date, r.publication_year, rules)) is not None]
    if not dated:
        raise DegenerateDataError("corpus has no dated records")
    table: dict[str, Counter] = {}
    for month, r in dated:
        for group in ["ALL"] if group_by == "all" else RECORD_FIELD_VALUES[group_by](r, rules):
            table.setdefault(group, Counter())[month] += 1
    return [MonthlySeries(key, dict(sorted(table.get(key, Counter()).items())))
            for key in (sorted(table) if keys is None else keys)]


def sorted_most_cited(records: list[BiblioRecord], k: int) -> list[tuple[str, str, int, tuple[str, ...]]]:
    """A row for every record, with its research areas as exported, sorted
    by citations descending, title ascending; then the first k."""
    rows = []
    for r in records:
        authors = r.distinct_authors()
        label = "" if not authors else authors[0] if len(authors) == 1 else f"{authors[0]} et al."
        rows.append((r.title, label, r.times_cited, tuple(r.research_areas)))
    rows.sort(key=lambda row: (-row[2], row[0]))
    return rows[:k]


def record_correlation_rows(records: list[BiblioRecord], rules=None) -> list[tuple[float, ...]]:
    """The six correlation variables of each record that observes them all."""
    rows = []
    for r in records:
        authors, areas = r.distinct_authors(), set(r.research_areas)
        countries = set(extract_countries(r.addresses, rules))
        if authors and areas and countries and r.page_count is not None:
            rows.append((float(len(authors)), float(r.cited_reference_count), float(r.times_cited),
                         float(len(areas)), float(len(countries)), float(r.page_count)))
    return rows


# ---------------------------------------------------------------------------
# keyword counts token occurrence by token occurrence, the loop that
# keywords.keyword_frequencies runs once per distinct token instead

def tokenize(title: str, abstract: str | None = None) -> list[str]:
    """Lower-case whitespace tokens with edge punctuation stripped."""
    text = f"{title} {abstract}" if abstract else title
    return [token for token in (raw.strip(string.punctuation) for raw in text.lower().split()) if token]


def per_occurrence_keyword_frequencies(
    records: list[BiblioRecord], stopwords: StopwordSet | None = None, n: int = 100,
) -> list[tuple[str, int]]:
    counts: Counter = Counter()
    for record in records:
        counts.update(filter_stopwords(tokenize(record.title, record.abstract), stopwords))
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:n]


# ---------------------------------------------------------------------------
# Pearson on numpy arrays, the formula metrics.pearson sums in numpy's
# pairwise order without numpy

def numpy_pearson(x: list[float], y: list[float]) -> float:
    """Population Pearson correlation cov(x, y) / (sigma_x sigma_y)."""
    if len(x) != len(y):
        raise ValueError("inputs must have equal length")
    if len(x) < 2:
        raise DegenerateDataError("need at least two observations")
    ax = np.asarray(x, dtype=float)
    ay = np.asarray(y, dtype=float)
    # corrected two-pass centering: when the rounded mean is off, the
    # deviations carry that error, and their own mean removes it
    dx = ax - ax.mean()
    dx -= dx.mean()
    dy = ay - ay.mean()
    dy -= dy.mean()
    sx = float(np.sqrt(np.mean(dx * dx)))
    sy = float(np.sqrt(np.mean(dy * dy)))
    if sx == 0.0 or sy == 0.0:
        raise DegenerateDataError("zero variance makes the correlation undefined")
    r = float(np.mean(dx * dy) / (sx * sy))
    # rounding can carry r just past +-1, e.g. when a product such as
    # 1e-158 * 1e-158 underflows into the subnormal range; clip as
    # numpy.corrcoef does
    return min(1.0, max(-1.0, r))


# ---------------------------------------------------------------------------
# all-pairs centrality oracle, the string-keyed CSR and components that
# the graph's integer arrays replace, and the one-source-at-a-time
# traversals that the batched graph_stats kernels replace

def allpairs_matrices(graph: WeightedGraph) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Hop distances and shortest-path counts between every node pair."""
    labels = sorted(graph.nodes)
    n = len(labels)
    index = {label: i for i, label in enumerate(labels)}
    adjacency = [[] for _ in range(n)]
    for a, b in graph.edges:
        if a != b:
            adjacency[index[a]].append(index[b])
            adjacency[index[b]].append(index[a])
    dist = np.full((n, n), np.inf)
    sigma = np.zeros((n, n))
    for s in range(n):
        dist[s, s] = 0.0
        sigma[s, s] = 1.0
        frontier = [s]
        d = 0
        while frontier:
            upcoming = []
            for v in frontier:
                for w in adjacency[v]:
                    if dist[s, w] == np.inf:
                        dist[s, w] = d + 1
                        upcoming.append(w)
                    if dist[s, w] == d + 1:
                        sigma[s, w] += sigma[s, v]
            frontier = sorted(set(upcoming))
            d += 1
    return labels, dist, sigma


def neighbor_sets(graph: WeightedGraph) -> dict[str, set[str]]:
    """Neighbor sets of the simple-graph view (self-loops ignored)."""
    adj: dict[str, set[str]] = {node: set() for node in graph.nodes}
    for (a, b) in graph.edges:
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    return adj


def validate(graph: WeightedGraph) -> None:
    """Raise ValueError unless every edge joins known nodes, in canonical
    orientation, with a positive weight, and is a self-loop only in the
    kinds that allow one."""
    for (a, b), weight in graph.edges.items():
        if a not in graph.nodes or b not in graph.nodes:
            raise ValueError(f"edge ({a!r}, {b!r}) references unknown node")
        if weight < 1:
            raise ValueError(f"edge ({a!r}, {b!r}) has nonpositive weight {weight}")
        if not a <= b:
            raise ValueError(f"edge ({a!r}, {b!r}) is not in canonical orientation")
        if a == b and graph.kind not in SELF_LOOP_KINDS:
            raise ValueError(f"self-loop {a!r} in {graph.kind.value} graph")


def compact_csr(labels: list[str], adjacency: dict[str, set[str]]) -> tuple[np.ndarray, np.ndarray]:
    """CSR of `adjacency` restricted to `labels`, row by row from neighbour sets."""
    index = {label: i for i, label in enumerate(labels)}
    indptr = np.zeros(len(labels) + 1, dtype=np.int64)
    chunks = []
    for i, label in enumerate(labels):
        neighbors = sorted(index[n] for n in adjacency[label])
        indptr[i + 1] = indptr[i] + len(neighbors)
        chunks.append(np.asarray(neighbors, dtype=np.int64))
    indices = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    return indptr, indices


def string_set_components(graph: WeightedGraph) -> list[set[str]]:
    """Components by a BFS over neighbour sets, ordered (-size, min label)."""
    adj = neighbor_sets(graph)
    seen: set[str] = set()
    components = []
    for start in sorted(graph.nodes):
        if start in seen:
            continue
        component = {start}
        frontier = [start]
        seen.add(start)
        while frontier:
            node = frontier.pop()
            for neighbor in adj[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    component.add(neighbor)
                    frontier.append(neighbor)
        components.append(component)
    components.sort(key=lambda c: (-len(c), min(c)))
    return components


def set_clustering(graph: WeightedGraph) -> tuple[dict[str, float], float]:
    """Local clustering by intersecting the neighbour sets of each edge's ends."""
    adjacency = neighbor_sets(graph)
    triangles = {node: 0 for node in graph.nodes}
    for (a, b) in graph.edges:
        if a == b:
            continue
        small, large = (adjacency[a], adjacency[b])
        if len(small) > len(large):
            small, large = large, small
        for node in small:
            if node in large:
                triangles[node] += 1
    coefficients = {}
    for node in sorted(graph.nodes):
        degree = len(adjacency[node])
        coefficients[node] = 2.0 * triangles[node] / (degree * (degree - 1)) if degree >= 2 else 0.0
    return coefficients, sum(coefficients.values()) / len(coefficients)


def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    return np.repeat(starts, counts) + offsets


def bfs_distances(indptr: np.ndarray, indices: np.ndarray, source: int, n: int) -> np.ndarray:
    """One level-synchronous BFS over a CSR; -1 marks unreachable nodes."""
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        counts = indptr[frontier + 1] - indptr[frontier]
        neighbors = indices[_concat_ranges(indptr[frontier], counts)]
        fresh = neighbors[dist[neighbors] < 0]
        if fresh.size == 0:
            break
        frontier = np.unique(fresh)
        level += 1
        dist[frontier] = level
    return dist


def brandes_dependencies(indptr: np.ndarray, indices: np.ndarray, source: int, n: int) -> np.ndarray:
    """Single-source dependency accumulation (one Brandes iteration)."""
    dist = np.full(n, -1, dtype=np.int64)
    sigma = np.zeros(n, dtype=np.float64)
    dist[source] = 0
    sigma[source] = 1.0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    transitions: list[tuple[np.ndarray, np.ndarray]] = []
    while frontier.size:
        counts = indptr[frontier + 1] - indptr[frontier]
        targets = indices[_concat_ranges(indptr[frontier], counts)]
        origins = np.repeat(frontier, counts)
        fresh = np.unique(targets[dist[targets] < 0])
        if fresh.size:
            dist[fresh] = level + 1
        # shortest-path DAG edges from this level to the next
        mask = dist[targets] == level + 1
        if mask.any():
            origin_edges = origins[mask]
            target_edges = targets[mask]
            np.add.at(sigma, target_edges, sigma[origin_edges])
            transitions.append((origin_edges, target_edges))
        frontier = fresh
        level += 1
    delta = np.zeros(n, dtype=np.float64)
    for origin_edges, target_edges in reversed(transitions):
        contrib = sigma[origin_edges] / sigma[target_edges] * (1.0 + delta[target_edges])
        np.add.at(delta, origin_edges, contrib)
    delta[source] = 0.0
    return delta


def batched_brandes_dependencies(indptr: np.ndarray, indices: np.ndarray, sources: np.ndarray,
                                 n: int) -> np.ndarray:
    """Dependency rows of a batch of sources, every level top-down.

    The kernel `graph_stats._brandes_dependencies` ran before it learned
    bottom-up levels: B searches side by side over a flattened (B, n)
    state, sigma and delta summed by `bincount` in arc order.
    """
    batch = sources.size
    offsets = np.arange(batch, dtype=np.int64) * n
    dist = np.full(batch * n, -1, dtype=np.int32)
    sigma = np.zeros(batch * n, dtype=np.float64)
    slot_of = np.zeros(batch * n, dtype=np.int64)
    frontier = offsets + sources
    dist[frontier] = 0
    sigma[frontier] = 1.0
    degree = np.diff(indptr)
    levels = []
    level = 0
    while True:
        level += 1
        local = frontier % n
        counts = degree[local]
        slots = np.repeat(np.arange(frontier.size), counts)
        targets = np.arange(slots.size)
        targets += (indptr[local] - np.cumsum(counts) + counts)[slots]
        targets = indices[targets]
        targets += (frontier - local)[slots]
        mask = dist[targets] < 0
        target_edges = targets[mask]
        if target_edges.size == 0:
            break
        origin_slots = slots[mask]
        dist[target_edges] = level
        fresh = np.flatnonzero(dist == level)
        slot_of[fresh] = np.arange(fresh.size)
        target_slots = slot_of[target_edges]
        sigma[fresh] = np.bincount(target_slots, weights=sigma[frontier[origin_slots]], minlength=fresh.size)
        levels.append((frontier, fresh, origin_slots, target_slots))
        frontier = fresh
    delta = np.zeros(batch * n, dtype=np.float64)
    for origins, targets, origin_slots, target_slots in reversed(levels):
        origin_edges = origins[origin_slots]
        target_edges = targets[target_slots]
        contrib = sigma[origin_edges] / sigma[target_edges] * (1.0 + delta[target_edges])
        delta[origins] = np.bincount(origin_slots, weights=contrib, minlength=origins.size)
    delta[offsets + sources] = 0.0
    return delta.reshape(batch, n)


def batched_betweenness(graph: WeightedGraph, sample_sources: int | None = None, seed: int = 0) -> dict[str, float]:
    """Betweenness from one Brandes traversal per source, in batches of
    up to 16 sources with B * (n + arcs) <= 2**16, each row added in
    source order: the loop `betweenness_centrality` ran before twins and
    pendants shared rows."""
    labels = sorted(graph.nodes)
    indptr, indices = compact_csr(labels, neighbor_sets(graph))
    n = len(labels)
    if n < 3:
        return {label: 0.0 for label in labels}
    if sample_sources is None or sample_sources >= n:
        sources = np.arange(n, dtype=np.int64)
    else:
        sources = np.asarray(sorted(random.Random(seed).sample(range(n), sample_sources)), dtype=np.int64)
    scale = n / sources.size
    batch = max(1, min(16, 2**16 // (n + indices.size)))
    accumulated = np.zeros(n, dtype=np.float64)
    for first in range(0, sources.size, batch):
        for row in batched_brandes_dependencies(indptr, indices, sources[first:first + batch], n):
            accumulated += row
    values = accumulated * (scale / 2.0 / ((n - 1) * (n - 2) / 2.0))
    return dict(zip(labels, values.tolist()))


def brute_betweenness(graph: WeightedGraph) -> dict[str, float]:
    """Sum sigma_sv * sigma_vt / sigma_st over all interior triples."""
    labels, dist, sigma = allpairs_matrices(graph)
    n = len(labels)
    values = np.zeros(n)
    if n >= 3:
        upper = np.triu(np.isfinite(dist), k=1)  # s < t, reachable
        for v in range(n):
            on_path = dist[:, v][:, None] + dist[v, :][None, :] == dist
            mask = upper & on_path
            mask[v, :] = False
            mask[:, v] = False
            with np.errstate(invalid="ignore", divide="ignore"):
                contrib = np.where(mask, sigma[:, v][:, None] * sigma[v, :][None, :] / sigma, 0.0)
            values[v] = contrib[mask].sum()
        values /= (n - 1) * (n - 2) / 2
    return dict(zip(labels, values.tolist()))


def brute_closeness(graph: WeightedGraph, literal: bool = False) -> dict[str, float]:
    labels, dist, _ = allpairs_matrices(graph)
    result = {}
    for i, label in enumerate(labels):
        reachable = np.isfinite(dist[i])
        size = int(reachable.sum())
        if size < 2:
            continue
        numerator = size if literal else size - 1
        result[label] = numerator / float(dist[i][reachable].sum())
    return result


def brute_degree_centrality(graph: WeightedGraph) -> dict[str, float]:
    labels = sorted(graph.nodes)
    n = len(labels)
    neighbors = {label: set() for label in labels}
    for a, b in graph.edges:
        if a != b:
            neighbors[a].add(b)
            neighbors[b].add(a)
    return {label: len(neighbors[label]) / (n - 1) for label in labels}


def brute_assortativity(graph: WeightedGraph) -> float | None:
    """Pearson over explicitly materialized endpoint-degree pairs."""
    neighbors = {label: set() for label in graph.nodes}
    for a, b in graph.edges:
        if a != b:
            neighbors[a].add(b)
            neighbors[b].add(a)
    xs, ys = [], []
    for a, b in graph.edges:
        if a == b:
            continue
        xs.extend([len(neighbors[a]), len(neighbors[b])])
        ys.extend([len(neighbors[b]), len(neighbors[a])])
    if not xs:
        return None
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.var() == 0 or y.var() == 0:
        return None
    return float(np.corrcoef(x, y)[0, 1])


# ---------------------------------------------------------------------------
# graph_stats's own Hurwitz zeta has two references: scipy's, which it
# replaced bit for bit, and its own earlier list-of-lists form

def listwise_hurwitz_zeta(alphas, q) -> np.ndarray:
    """graph_stats._hurwitz_zeta as it was before it filled its table in
    blocks, in place: every libm power kept in a Python list of lists, the
    whole (alpha x q) table taken in one step of each Cephes operation."""
    x = np.asarray(alphas, dtype=np.float64).reshape(-1, 1)
    q = np.asarray(q, dtype=np.int64)
    bases, slots = np.unique(q[:, None] + np.arange(10), return_inverse=True)
    slots = slots.reshape(q.size, 10)
    float_bases = bases.astype(np.float64).tolist()
    powers = np.array([[math.pow(base, -alpha) for base in float_bases] for alpha in x[:, 0].tolist()])

    s = powers[:, slots[:, 0]]
    for k in range(1, 10):
        s = s + powers[:, slots[:, k]]
    b = powers[:, slots[:, 9]]
    w = (q + 9).astype(np.float64)
    s = s + b * w / (x - 1.0)
    s = s - 0.5 * b
    a = np.ones_like(x)
    k = 0.0
    active = np.ones(s.shape, dtype=bool)
    for coefficient in _EULER_MACLAURIN:
        a = a * (x + k)
        b = b / w
        t = a * b / coefficient
        s = np.where(active, s + t, s)
        active &= ~(np.abs(t / s) < _MACHEP)
        if not active.any():
            break
        k += 1.0
        a = a * (x + k)
        b = b / w
        k += 1.0
    return s


def scipy_tail_ks(values: np.ndarray, counts: np.ndarray, alpha: float, xmin: int) -> float:
    """KS distance between the empirical tail CDF and the fitted one."""
    n_tail = counts.sum()
    empirical = np.cumsum(counts) / n_tail
    model = 1.0 - zeta(alpha, values + 1) / zeta(alpha, xmin)
    return float(np.max(np.abs(empirical - model)))


def scipy_fit_power_law(degrees, min_samples: int = 50) -> PowerLawFit:
    """Discrete maximum-likelihood power-law fit with KS-selected cutoff."""
    x = np.asarray(list(degrees), dtype=np.int64)
    if x.size < min_samples:
        raise DegenerateDataError(f"need at least {min_samples} samples, got {x.size}")
    if (x < 1).any():
        raise ValueError("degrees must be positive integers")
    values, counts = np.unique(x, return_counts=True)
    if values.size < 2:
        raise DegenerateDataError("all samples are equal, nothing to fit")

    candidates = values[:-1]
    tail_counts = np.cumsum(counts[::-1])[::-1]
    log_values = np.log(values.astype(np.float64))
    tail_logsum = np.cumsum((counts * log_values)[::-1])[::-1]

    alpha_grid = np.arange(1.01, 6.0, 0.01)
    zeta_grid = zeta(alpha_grid[:, None], candidates[None, :].astype(np.float64))
    loglik = (
        -tail_counts[None, : candidates.size] * np.log(zeta_grid)
        - alpha_grid[:, None] * tail_logsum[None, : candidates.size]
    )
    best_alpha_idx = np.argmax(loglik, axis=0)

    best = None
    for c, xmin in enumerate(candidates):
        alpha = float(alpha_grid[best_alpha_idx[c]])
        ks = scipy_tail_ks(values[c:], counts[c:], alpha, int(xmin))
        if best is None or ks < best[0] - 1e-15:
            best = (ks, int(xmin), alpha, c)
    ks, xmin, alpha, c = best

    fine = np.arange(max(alpha - 0.02, 1.0001), alpha + 0.02, 0.0005)
    n_tail = int(tail_counts[c])
    fine_loglik = -n_tail * np.log(zeta(fine, float(xmin))) - fine * float(tail_logsum[c])
    gamma = float(fine[np.argmax(fine_loglik)])
    ks = scipy_tail_ks(values[c:], counts[c:], gamma, xmin)
    return PowerLawFit(gamma=gamma, xmin=xmin, ks_statistic=ks, n_tail=n_tail)


# ---------------------------------------------------------------------------
# GraphML through an ElementTree, the route graphs.write_graphml skips

def xml_safe(label: str) -> str:
    """The label with each character outside XML 1.0's `Char` production
    replaced by U+FFFD, lone surrogates kept."""
    return "".join(c if c in "\t\n\r" or ("\x20" <= c and c not in "\ufffe\uffff") else "\ufffd" for c in label)


def elementtree_write_graphml(graph: WeightedGraph, path: str | Path) -> None:
    root = ElementTree.Element("graphml", xmlns="http://graphml.graphdrawing.org/xmlns")
    key = ElementTree.SubElement(root, "key")
    key.set("id", "weight")
    key.set("for", "edge")
    key.set("attr.name", "weight")
    key.set("attr.type", "int")
    container = ElementTree.SubElement(root, "graph")
    container.set("id", graph.kind.value)
    container.set("edgedefault", "undirected")
    # in label order, the first label to escape to an id keeps it; each
    # later one takes the first "~k" (k >= 2) that no other id has
    labels = sorted(graph.nodes)
    ids: dict[str, str] = {}
    for node in labels:
        base = xml_safe(node)
        if base not in ids.values():
            ids[node] = base
            continue
        k = 2
        while (f"{base}~{k}" in ids.values()
               or any(xml_safe(other) == f"{base}~{k}" for other in labels)):
            k += 1
        ids[node] = f"{base}~{k}"
    for node in labels:
        ElementTree.SubElement(container, "node", id=ids[node])
    for (a, b) in sorted(graph.edges):
        edge = ElementTree.SubElement(container, "edge", source=ids[a], target=ids[b])
        data = ElementTree.SubElement(edge, "data", key="weight")
        data.text = str(graph.edges[(a, b)])
    tree = ElementTree.ElementTree(root)
    ElementTree.indent(tree)
    tree.write(path, encoding="utf-8", xml_declaration=True)


# ---------------------------------------------------------------------------
# the DOT and CSV writers and top edges, each sorting the graph's edges
# itself, as references for the writers, which read the canonical edge
# arrays the graph is built with

def loop_write_dot(graph: WeightedGraph, path: str | Path) -> None:
    def quote(label: str) -> str:
        return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"graph {graph.kind.value} {{\n")
        for node in sorted(graph.nodes):
            fh.write(f"  {quote(node)};\n")
        for (a, b) in sorted(graph.edges):
            fh.write(f"  {quote(a)} -- {quote(b)} [weight={graph.edges[(a, b)]}];\n")
        fh.write("}\n")


def loop_write_edge_csv(graph: WeightedGraph, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["label_a", "label_b", "weight"])
        for (a, b) in sorted(graph.edges):
            writer.writerow([a, b, graph.edges[(a, b)]])


def key_sorted_top_weighted_edges(graph: WeightedGraph, k: int) -> list[tuple[str, str, int]]:
    edges = [(a, b, w) for (a, b), w in graph.edges.items()]
    edges.sort(key=lambda edge: (-edge[2], edge[0], edge[1]))
    return edges[:k]


@dataclasses.dataclass
class PairGraph:
    """The string-keyed reference graph: a node set, and an edge dict
    keyed by pairs in canonical (lexicographic) orientation."""

    kind: GraphKind
    nodes: set[str] = dataclasses.field(default_factory=set)
    edges: dict[tuple[str, str], int] = dataclasses.field(default_factory=dict)


def add_pair(graph: PairGraph, a: str, b: str, weight: int = 1) -> None:
    """Add `weight` to the pair's edge, keyed in canonical orientation."""
    if a == b and graph.kind not in SELF_LOOP_KINDS:
        raise ValueError(f"self-loops are not allowed in {graph.kind.value} graphs")
    pair = (a, b) if a <= b else (b, a)
    graph.nodes.add(a)
    graph.nodes.add(b)
    graph.edges[pair] = graph.edges.get(pair, 0) + weight


def add_pair_graph(kind: GraphKind, column: list[list[str]]) -> PairGraph:
    """The pair graph of a column, one `add_pair` call per pair of each
    record's values: the reference for the counting build."""
    graph = PairGraph(kind)
    for values in column:
        graph.nodes.update(values)
        for i, a in enumerate(values):
            for b in values[i + 1:]:
                add_pair(graph, a, b)
    return graph


def built(reference: PairGraph) -> WeightedGraph:
    """The library's graph of a reference, through the constructor that
    `build_graph` ends in, its ids in the node set's iteration order."""
    ids = {label: i for i, label in enumerate(reference.nodes)}
    return _from_counts(reference.kind, ids, {(ids[a], ids[b]): w for (a, b), w in reference.edges.items()})


def graph_of(kind: GraphKind, pairs=(), isolated=()) -> WeightedGraph:
    """The graph of `pairs`, each (a, b) or (a, b, weight), plus the
    `isolated` labels, where a repeated pair adds up its weights."""
    reference = PairGraph(kind, set(isolated))
    for pair in pairs:
        add_pair(reference, *pair)
    return built(reference)


def graph_key(graph: WeightedGraph) -> tuple:
    """What makes two graphs equal: the kind, the labels and the weighted
    edges in order; everything else derives from these."""
    return graph.kind, graph.labels, graph.tails.tolist(), graph.heads.tolist(), graph.weights.tolist()


def build_from_column(kind: GraphKind, column: list[list[str]]) -> WeightedGraph:
    """`build_graph` over one value list per record, taken as the values
    that the kind's cleaner gives."""
    with mock.patch.dict(graphs._VALUES, {kind: lambda values, rules: values}):
        return build_graph(kind, column)


# any text, and labels that sort apart only by case or accent, non-ASCII
# labels and lone surrogates
LABEL_TEXT = st.text(st.characters(exclude_categories=()), max_size=3) | st.sampled_from(
    ["a", "A", "b", "B", "é", "É", "Zürich", "zürich", "東京", "\ud800", "a\udfff"])


@st.composite
def value_columns(draw):
    """A graph kind and one value list per record, drawn from a shared
    pool so that pairs repeat across records; values repeat within a
    record only in the kinds whose repeats pair into self-loops, and a
    record may have no value."""
    kind = draw(st.sampled_from(GraphKind))
    pool = draw(st.lists(LABEL_TEXT, min_size=1, max_size=30, unique=True))
    column = draw(st.lists(st.lists(st.sampled_from(pool), max_size=5), max_size=30))
    if kind not in SELF_LOOP_KINDS:
        column = [list(dict.fromkeys(values)) for values in column]
    return kind, column


# ---------------------------------------------------------------------------
# seeded generators

def random_graph(
    seed: int,
    max_nodes: int = 50,
    kind: GraphKind = GraphKind.COAUTHOR,
    min_nodes: int = 3,
    p_range: tuple[float, float] = (0.04, 0.5),
) -> WeightedGraph:
    rng = random.Random(seed)
    n = rng.randint(min_nodes, max_nodes)
    p = rng.uniform(*p_range)
    labels = [f"n{i:03d}" for i in range(n)]
    pairs = [(labels[i], labels[j], rng.randint(1, 5))
             for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return graph_of(kind, pairs, labels)


_POWER_LAW_CDF_CACHE: dict[float, np.ndarray] = {}


def sample_discrete_power_law(gamma: float, n: int, seed: int, kmax: int = 2_000_000) -> np.ndarray:
    """Inverse-CDF samples of P(X = k) = k^-gamma / zeta(gamma), k >= 1."""
    cdf = _POWER_LAW_CDF_CACHE.get(gamma)
    if cdf is None:
        ks = np.arange(1, kmax + 1, dtype=np.float64)
        cdf = np.cumsum(ks ** -gamma / zeta(gamma, 1))
        _POWER_LAW_CDF_CACHE[gamma] = cdf
    rng = np.random.default_rng(seed)
    return (np.searchsorted(cdf, rng.random(n)) + 1).astype(np.int64)


_FIRST = ["Wei", "Maria", "John", "Anil", "Sara", "Tomas", "Lena", "Yuki", "Ana", "Omar"]
_LAST = ["Chen", "Garcia", "Smith", "Kumar", "Kim", "Novak", "Muller", "Tanaka", "Lopez", "Hassan"]


_SYLLABLES = ["ka", "lo", "mi", "ren", "sa", "to", "vel", "na", "dor", "bi", "gu", "an", "es", "ho", "pri", "zu",
              "tek", "ma", "sho", "ri", "bal", "ne", "quo", "fen", "di", "war", "ul", "jas", "po", "ke", "lin", "ay"]
_GIVEN = _FIRST + ["Pedro", "Ingrid", "Kofi", "Mei", "Olga", "Rahul", "Zeynep", "Lucas", "Amara", "Hiro",
                   "Beatriz", "Chiara", "Dmitri", "Fatima", "Giuseppe", "Hans", "Ines", "Jamal", "Katarzyna",
                   "Lars", "Nadia", "Pavel", "Grace", "Sven", "Thandiwe", "Viktor"]


def synthetic_names(n: int, seed: int) -> list[str]:
    """n distinct author names, "Surname, Given I", in a seeded order.

    Surnames are two to four syllables, so most pairs differ in many
    characters; about 3% of the names are an initials variant
    "Surname, G. I." of an earlier name, the near-duplicates that dedup
    looks for.
    """
    rng = random.Random(seed)
    people: list[tuple[str, str, str]] = []
    names: dict[str, None] = {}
    while len(names) < n:
        if people and rng.random() < 0.03:
            surname, given, initial = rng.choice(people)
            names[f"{surname}, {given[0]}. {initial}."] = None
            continue
        surname = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 4))).capitalize()
        person = (surname, rng.choice(_GIVEN), chr(ord("A") + rng.randrange(26)))
        people.append(person)
        names["{}, {} {}".format(*person)] = None
    return list(names)


def synthetic_author_pool_corpus(n_records: int, seed: int, new_author_prob: float = 0.62) -> Corpus:
    return Corpus.from_records(synthetic_author_pool_records(n_records, seed, new_author_prob))


def synthetic_author_pool_records(n_records: int, seed: int, new_author_prob: float = 0.62) -> list[BiblioRecord]:
    """Preferential-attachment corpus: authors of new papers are drawn
    from an appearance-weighted pool or minted fresh."""
    rng = random.Random(seed)
    pool: list[str] = []
    next_id = 0
    records = []
    for i in range(n_records):
        k = rng.choice((1, 2, 3, 3, 4, 5))
        authors = []
        for _ in range(k):
            if pool and rng.random() > new_author_prob:
                authors.append(rng.choice(pool))
            else:
                authors.append(f"Author {next_id:06d}")
                next_id += 1
        authors = list(dict.fromkeys(authors))
        pool.extend(authors)
        records.append(BiblioRecord(
            publication_type="J",
            title=f"Synthetic paper {i}",
            author_full_names=authors,
            publication_year=2020,
        ))
    return records


_COUNTRY_POOL = ["Italy", "Hungary", "France", "Germany", "Japan", "Brazil", "India", "Spain"]
_INSTITUTION_POOL = ["Univ Verona", "Wuhan Univ", "Johns Hopkins Univ", "Univ Tokyo", "Charite", "ETH Zurich"]
_AREA_POOL = ["Virology", "Immunology", "Psychiatry", "Mathematics", "Pediatrics"]
_KEYWORD_POOL = ["covid-19", "sars-cov-2", "pandemic", "lockdown", "mortality", "anxiety"]


def random_corpus(seed: int, n_records: int = 12) -> Corpus:
    return Corpus.from_records(random_records(seed, n_records))


def random_records(seed: int, n_records: int = 12) -> list[BiblioRecord]:
    """Small random records with authors, addresses, areas and keywords."""
    rng = random.Random(seed)
    records = []
    for i in range(n_records):
        n_authors = rng.randint(0, 4)
        authors = rng.sample([f"{l}, {f}" for f in _FIRST for l in _LAST], n_authors)
        n_segments = rng.randint(0, 3)
        segments = []
        for s in range(n_segments):
            inst = rng.choice(_INSTITUTION_POOL)
            country = rng.choice(_COUNTRY_POOL)
            segments.append(f"[{authors[0] if authors else 'Staff'}] {inst}, Dept {s}, City, {country}.")
        records.append(BiblioRecord(
            publication_type="J",
            title=f"Random paper {seed}-{i}",
            author_full_names=authors,
            author_keywords=rng.sample(_KEYWORD_POOL, rng.randint(0, 3)),
            abstract=None,
            addresses="; ".join(segments),
            cited_reference_count=rng.randint(0, 40),
            times_cited=rng.randint(0, 300),
            publication_date=rng.choice(["JAN", "FEB 2", "SEP 10", "WIN", ""]),
            publication_year=2020,
            research_areas=rng.sample(_AREA_POOL, rng.randint(0, 2)),
            page_count=rng.choice([None, 2, 5, 8, 13]),
            accession_id=f"WOS:R{seed:03d}{i:03d}",
        ))
    return records


_DOCUMENT_TYPES = ["Article", "Article; Early Access", "Review", "Letter; Retracted", " ; Editorial", ""]
_LANGUAGES = ["English", "English", "German", ""]
_SOURCES = ["J. One", "J. Two", "Lancet", ""]


def varied_records(seed: int, n_records: int = 12) -> list[BiblioRecord]:
    """`random_records` with document types (one with a blank leading
    category), languages, sources, and research areas listed twice."""
    rng = random.Random(-1 - seed)
    return [dataclasses.replace(
        record,
        document_type=rng.choice(_DOCUMENT_TYPES),
        language=rng.choice(_LANGUAGES),
        source_abbrev=rng.choice(_SOURCES),
        research_areas=record.research_areas * rng.choice((1, 1, 2)),
    ) for record in random_records(seed, n_records)]
