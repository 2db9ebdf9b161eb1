"""Structural network analysis: centralities, clustering, path lengths,
small-world check, power-law degree fit, and degree assortativity.

Shortest paths are unweighted hop counts; edge weights are collaboration
counts, not distances.  All traversals run on an integer-indexed CSR
view of the simple graph (self-loops ignored).  Closeness and path
length share a bit-parallel breadth-first search that advances 64
sources at once, one per bit of a uint64 word; betweenness runs Brandes
dependency accumulation for a batch of up to 16 sources per pass.

numpy is imported inside the functions that use it, so CLI commands
that analyse no graph do not pay its start-up cost.  It is the only
library `network` loads: the power-law fit computes its own Hurwitz
zeta.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import DegenerateDataError
from .graphs import WeightedGraph, connected_components

# ---------------------------------------------------------------------------
# compact CSR view

def _compact(labels: list[str], adjacency: dict[str, set[str]]) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np
    index = {label: i for i, label in enumerate(labels)}
    indptr = np.zeros(len(labels) + 1, dtype=np.int64)
    chunks = []
    for i, label in enumerate(labels):
        neighbors = sorted(index[n] for n in adjacency[label])
        indptr[i + 1] = indptr[i] + len(neighbors)
        chunks.append(np.asarray(neighbors, dtype=np.int64))
    indices = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    return indptr, indices


def _distance_sums(indptr: np.ndarray, indices: np.ndarray, sources) -> np.ndarray:
    """Total hop distance from each source to every node it reaches.

    Bit-parallel multi-source BFS (Then et al., "The More the Merrier",
    VLDB 2015): bit j of a node's uint64 word marks it as reached from
    the j-th source of the current batch of 64, so one pass over the
    arcs per level advances all 64 searches at once.
    """
    import numpy as np
    n = indptr.size - 1
    sources = np.asarray(sources, dtype=np.int64)
    totals = np.zeros(sources.size, dtype=np.int64)
    # reduceat yields the row's first element, not 0, for an empty row,
    # so only rows with at least one arc are reduced
    rows = np.flatnonzero(np.diff(indptr))
    if rows.size == 0:
        return totals
    starts = indptr[rows]
    for first in range(0, sources.size, 64):
        batch = sources[first:first + 64]
        seen = np.zeros(n, dtype=np.uint64)
        np.bitwise_or.at(seen, batch, np.left_shift(np.uint64(1), np.arange(batch.size, dtype=np.uint64)))
        frontier = seen.copy()
        level = 0
        while True:
            level += 1
            reached = np.zeros(n, dtype=np.uint64)
            reached[rows] = np.bitwise_or.reduceat(frontier[indices], starts)
            reached &= ~seen
            fresh = reached[reached != 0]
            if fresh.size == 0:
                break
            seen |= reached
            frontier = reached
            bits = np.unpackbits(fresh.astype("<u8").view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
            totals[first:first + batch.size] += level * bits.sum(axis=0, dtype=np.int64)[:batch.size]
    return totals


# A batch of B sources holds B * n slots of per-node state, and its
# widest level a few arrays of up to B * arcs slots.  Batching pays on
# sparse graphs, whose many narrow levels are dominated by per-call
# overhead; on dense graphs a few wide levels dominate and larger
# batches only cost memory.  The budget keeps B * (n + arcs) at or
# below 2**16 slots.
_BRANDES_BUDGET = 2**16
_BRANDES_MAX_BATCH = 16


def _brandes_dependencies(indptr: np.ndarray, indices: np.ndarray, sources: np.ndarray, n: int) -> np.ndarray:
    """Dependency accumulation (Brandes 2001) for a batch of sources.

    The B searches run side by side over a flattened (B, n) state; row b
    of the result holds the dependencies of every node on sources[b].
    """
    import numpy as np
    batch = sources.size
    offsets = np.arange(batch, dtype=np.int64) * n
    dist = np.full(batch * n, -1, dtype=np.int32)
    sigma = np.zeros(batch * n, dtype=np.float64)
    slot_of = np.zeros(batch * n, dtype=np.int64)  # position within its level
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
        # one slot per arc leaving the frontier, tagged with its origin
        slots = np.repeat(np.arange(frontier.size), counts)
        targets = np.arange(slots.size)
        targets += (indptr[local] - np.cumsum(counts) + counts)[slots]
        targets = indices[targets]
        targets += (frontier - local)[slots]
        # shortest-path DAG edges from this level to the next
        mask = dist[targets] < 0
        target_edges = targets[mask]
        if target_edges.size == 0:
            break
        origin_slots = slots[mask]
        dist[target_edges] = level
        fresh = np.flatnonzero(dist == level)
        slot_of[fresh] = np.arange(fresh.size)
        target_slots = slot_of[target_edges]
        # every slot written here is still 0, so bincount sums exactly
        # as an in-order scatter-add would
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


def _component_subgraph(graph: WeightedGraph, members: set[str]) -> WeightedGraph:
    edges = {pair: w for pair, w in graph.edges.items() if pair[0] in members}
    return WeightedGraph(kind=graph.kind, nodes=set(members), edges=edges)


def largest_component_subgraph(graph: WeightedGraph) -> WeightedGraph:
    components = connected_components(graph)
    if not components:
        raise DegenerateDataError("graph has no nodes")
    return _component_subgraph(graph, components[0])


# ---------------------------------------------------------------------------
# centralities

def degree_centrality(graph: WeightedGraph) -> dict[str, float]:
    """Distinct-neighbor degree over (N - 1), N the analyzed node count."""
    n = graph.node_count
    if n < 2:
        raise DegenerateDataError("degree centrality needs at least 2 nodes")
    adjacency = graph.adjacency()
    return {node: len(adjacency[node]) / (n - 1) for node in sorted(graph.nodes)}


def betweenness_centrality(
    graph: WeightedGraph,
    sample_sources: int | None = None,
    seed: int = 0,
) -> dict[str, float]:
    """Shortest-path betweenness, endpoints excluded.

    Normalized by (N-1)(N-2)/2 so the center of a star scores 1.  With
    `sample_sources` set, dependencies are accumulated from a seeded
    uniform source sample and scaled by N/sample, an unbiased estimate
    that reproduces the exact values when the sample covers all nodes.
    """
    import numpy as np
    labels = sorted(graph.nodes)
    n = len(labels)
    if n < 3:
        return {label: 0.0 for label in labels}
    indptr, indices = _compact(labels, graph.adjacency())
    if sample_sources is None or sample_sources >= n:
        sources = range(n)
        scale = 1.0
    else:
        if sample_sources < 1:
            raise ValueError("sample_sources must be >= 1")
        sources = sorted(random.Random(seed).sample(range(n), sample_sources))
        scale = n / sample_sources
    sources = np.asarray(sources, dtype=np.int64)
    batch = max(1, min(_BRANDES_MAX_BATCH, _BRANDES_BUDGET // (n + indices.size)))
    accumulated = np.zeros(n, dtype=np.float64)
    for first in range(0, sources.size, batch):
        for row in _brandes_dependencies(indptr, indices, sources[first:first + batch], n):
            accumulated += row
    # halve: each unordered pair is seen from both endpoints
    values = accumulated * (scale / 2.0 / ((n - 1) * (n - 2) / 2.0))
    return dict(zip(labels, values.tolist()))


def closeness_centrality(graph: WeightedGraph, literal: bool = False) -> dict[str, float]:
    """Closeness per connected component.

    Default is (N_c - 1) / total hop distance within the component; with
    `literal=True` the numerator is N_c (the Bavelas form), which can
    exceed 1 on small components.  Size-1 components are omitted.
    """
    result: dict[str, float] = {}
    adjacency = graph.adjacency()
    for component in connected_components(graph):
        if len(component) < 2:
            continue
        labels = sorted(component)
        indptr, indices = _compact(labels, adjacency)
        numerator = len(component) if literal else len(component) - 1
        totals = _distance_sums(indptr, indices, range(len(labels)))
        for label, total in zip(labels, totals.tolist()):
            result[label] = numerator / total
    return result


def clustering(graph: WeightedGraph) -> tuple[dict[str, float], float]:
    """Local clustering coefficients and their average over all nodes.

    Nodes of degree < 2 contribute 0.
    """
    if not graph.nodes:
        raise DegenerateDataError("clustering of an empty graph is undefined")
    adjacency = graph.adjacency()
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
    average = sum(coefficients.values()) / len(coefficients)
    return coefficients, average


# ---------------------------------------------------------------------------
# path lengths and the small-world heuristic

def avg_shortest_path(
    graph: WeightedGraph,
    sample_sources: int | None = None,
    seed: int = 0,
) -> float:
    """Mean hop distance over ordered pairs of the largest component.

    Exact (full traversal from every node) unless `sample_sources` is
    set, in which case a seeded uniform source sample estimates it.
    """
    component = largest_component_subgraph(graph)
    n = component.node_count
    if n < 2:
        raise DegenerateDataError("largest component has fewer than 2 nodes")
    labels = sorted(component.nodes)
    indptr, indices = _compact(labels, component.adjacency())
    if sample_sources is None or sample_sources >= n:
        sources = range(n)
    else:
        if sample_sources < 1:
            raise ValueError("sample_sources must be >= 1")
        sources = sorted(random.Random(seed).sample(range(n), sample_sources))
    means = [float(total) / (n - 1) for total in _distance_sums(indptr, indices, sources).tolist()]
    return sum(means) / len(means)


@dataclass(frozen=True)
class SmallWorldReport:
    avg_shortest_path: float
    ln_node_count: float
    avg_clustering: float
    sampled: bool
    verdict: str


SMALL_WORLD_RATIO_RANGE = (0.1, 10.0)


def small_world_check(
    graph: WeightedGraph,
    sample_sources: int | None = None,
    seed: int = 0,
) -> SmallWorldReport:
    """Compare mean path length of the largest component against ln N.

    The verdict is a heuristic label, not a statistical test: the graph
    is called small-world-consistent when L and ln N share an order of
    magnitude (ratio within [0.1, 10]).
    """
    component = largest_component_subgraph(graph)
    n = component.node_count
    if n < 2:
        raise DegenerateDataError("largest component has fewer than 2 nodes")
    length = avg_shortest_path(component, sample_sources, seed)
    ln_n = math.log(n)
    _, avg_clust = clustering(component)
    ratio = length / ln_n
    low, high = SMALL_WORLD_RATIO_RANGE
    consistent = low <= ratio <= high
    verdict = (
        f"L={length:.4f} vs ln(N)={ln_n:.4f} (ratio {ratio:.4f}): "
        + ("small-world-consistent" if consistent else "not-small-world")
    )
    return SmallWorldReport(
        avg_shortest_path=length,
        ln_node_count=ln_n,
        avg_clustering=avg_clust,
        sampled=sample_sources is not None and sample_sources < n,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# power-law degree fit

@dataclass(frozen=True)
class PowerLawFit:
    gamma: float
    xmin: int
    ks_statistic: float
    n_tail: int


# (2k)! / B_2k for k = 1..12: the Euler-Maclaurin coefficients of the
# Cephes Hurwitz zeta (Moshier), as the Cephes source writes them
_EULER_MACLAURIN = (
    12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9, 7.47242496e10,
    -2.950130727918164224e12, 1.1646782814350067249e14, -4.5979787224074726105e15,
    1.8152105401943546773e17, -7.1661652561756670113e18,
)
_MACHEP = 2.0 ** -53


def _hurwitz_zeta(alphas, q) -> np.ndarray:
    """Hurwitz zeta(alpha, q) = sum over k >= 0 of (q + k)^-alpha, for
    every alpha (rows) and q (columns).

    Moshier's Cephes `zeta(x, q)` step for step, so the results are
    bit-identical to that routine: q^-alpha plus nine further direct
    terms, the tail b*w/(alpha - 1) - b/2 with w = q + 9 and
    b = w^-alpha, then up to 12 Euler-Maclaurin corrections, each entry
    stopping once its correction falls below 2**-53 of its sum.  The
    powers come from libm `pow` (via `math.pow`), once per exponent and
    distinct base; numpy's vectorised `power` can differ from libm in
    the last bit.

    Domain: integer q >= 1 and 1 < alpha <= 6.02, all the power-law fit
    asks for.  There a direct term never falls below 2**-53 of the sum,
    so Cephes' early exit from the direct sum never fires, and degrees
    stay far below Cephes' asymptotic branch for q > 1e8; both are left
    out.
    """
    import numpy as np
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


def _tail_ks(counts: np.ndarray, zetas: np.ndarray, zeta_xmin: float) -> float:
    """KS distance between the empirical tail CDF and the fitted one,
    given zeta(alpha, value + 1) for each tail value and zeta(alpha, xmin)."""
    import numpy as np
    n_tail = counts.sum()
    empirical = np.cumsum(counts) / n_tail
    model = 1.0 - zetas / zeta_xmin
    return float(np.max(np.abs(empirical - model)))


def fit_power_law(degrees, min_samples: int = 50) -> PowerLawFit:
    """Discrete maximum-likelihood power-law fit with KS-selected cutoff.

    For every candidate cutoff the tail exponent is estimated by
    maximizing the discrete log-likelihood (zeta-function normalization)
    over a fine grid, and the cutoff minimizing the Kolmogorov-Smirnov
    distance between the empirical and fitted tail distributions wins
    (Clauset, Shalizi & Newman, SIAM Review 2009).
    """
    import numpy as np
    x = np.asarray(list(degrees), dtype=np.int64)
    if x.size < min_samples:
        raise DegenerateDataError(f"need at least {min_samples} samples, got {x.size}")
    if (x < 1).any():
        raise ValueError("degrees must be positive integers")
    values, counts = np.unique(x, return_counts=True)
    if values.size < 2:
        raise DegenerateDataError("all samples are equal, nothing to fit")

    # tails and log sums for every candidate cutoff (all but the largest value)
    candidates = values[:-1]
    tail_counts = np.cumsum(counts[::-1])[::-1]
    log_values = np.log(values.astype(np.float64))
    tail_logsum = np.cumsum((counts * log_values)[::-1])[::-1]

    # one zeta table serves the likelihood grid (q = each cutoff) and
    # every cutoff's KS distance (q = each tail value + 1); an entry does
    # not depend on the rest of the table
    alpha_grid = np.arange(1.01, 6.0, 0.01)
    qs = np.union1d(candidates, values + 1)
    table = _hurwitz_zeta(alpha_grid, qs)
    candidate_cols = np.searchsorted(qs, candidates)
    shifted_cols = np.searchsorted(qs, values + 1)

    # discrete log-likelihood on an (alpha x candidate) grid in one shot
    zeta_grid = table[:, candidate_cols]
    loglik = (
        -tail_counts[None, : candidates.size] * np.log(zeta_grid)
        - alpha_grid[:, None] * tail_logsum[None, : candidates.size]
    )
    best_alpha_idx = np.argmax(loglik, axis=0)

    best = None
    for c, xmin in enumerate(candidates):
        row = table[best_alpha_idx[c]]
        ks = _tail_ks(counts[c:], row[shifted_cols[c:]], row[candidate_cols[c]])
        if best is None or ks < best[0] - 1e-15:
            best = (ks, int(xmin), float(alpha_grid[best_alpha_idx[c]]), c)
    ks, xmin, alpha, c = best

    # refine the exponent locally for the chosen cutoff
    fine = np.arange(max(alpha - 0.02, 1.0001), alpha + 0.02, 0.0005)
    n_tail = int(tail_counts[c])
    fine_loglik = -n_tail * np.log(_hurwitz_zeta(fine, [xmin])[:, 0]) - fine * float(tail_logsum[c])
    gamma = float(fine[np.argmax(fine_loglik)])
    zetas = _hurwitz_zeta([gamma], np.append(values[c:] + 1, xmin))[0]
    ks = _tail_ks(counts[c:], zetas[:-1], zetas[-1])
    return PowerLawFit(gamma=gamma, xmin=xmin, ks_statistic=ks, n_tail=n_tail)


# ---------------------------------------------------------------------------
# assortativity

@dataclass(frozen=True)
class AssortativityResult:
    r: float | None
    component_size: int

    @property
    def defined(self) -> bool:
        return self.r is not None


def _assortativity_over_edges(edges, degree: dict[str, int], size: int) -> AssortativityResult:
    # exact integer sums over both edge orientations; the remaining-degree
    # shift by 1 cancels out of the correlation
    sum_x = sum_xy = sum_xx = 0
    count = 0
    for a, b in edges:
        da, db = degree[a], degree[b]
        sum_x += da + db
        sum_xy += 2 * da * db
        sum_xx += da * da + db * db
        count += 2
    if count == 0:
        return AssortativityResult(r=None, component_size=size)
    cov_num = count * sum_xy - sum_x * sum_x
    var_num = count * sum_xx - sum_x * sum_x
    if var_num == 0:
        return AssortativityResult(r=None, component_size=size)
    return AssortativityResult(r=cov_num / var_num, component_size=size)


def degree_assortativity(graph: WeightedGraph) -> AssortativityResult:
    """Pearson correlation of distinct-neighbor degrees at edge endpoints.

    Each edge is counted in both orientations; self-loops are ignored.
    Undefined (r=None) when the endpoint-degree variance is zero, as on
    regular graphs.
    """
    edges = [pair for pair in graph.edges if pair[0] != pair[1]]
    if not edges:
        raise DegenerateDataError("assortativity needs at least one non-loop edge")
    adjacency = graph.adjacency()
    degree = {node: len(neighbors) for node, neighbors in adjacency.items()}
    return _assortativity_over_edges(edges, degree, graph.node_count)


def per_component_assortativity(graph: WeightedGraph) -> list[AssortativityResult]:
    """Assortativity of every connected component, largest first.

    Undefined entries are kept in the output (flagged via r=None) so a
    caller can exclude them from plots without losing the raw series.
    """
    adjacency = graph.adjacency()
    degree = {node: len(neighbors) for node, neighbors in adjacency.items()}
    components = connected_components(graph)
    member_of: dict[str, int] = {}
    for i, component in enumerate(components):
        for node in component:
            member_of[node] = i
    edges_by_component: dict[int, list[tuple[str, str]]] = {}
    for pair in graph.edges:
        if pair[0] != pair[1]:
            edges_by_component.setdefault(member_of[pair[0]], []).append(pair)
    return [
        _assortativity_over_edges(edges_by_component.get(i, []), degree, len(component))
        for i, component in enumerate(components)
    ]


# ---------------------------------------------------------------------------
# combined centrality table

@dataclass(frozen=True)
class CentralityRow:
    node: str
    degree: float
    betweenness: float
    closeness: float | None


@dataclass(frozen=True)
class CentralityTable:
    rows: tuple[CentralityRow, ...]


def centrality_table(
    graph: WeightedGraph,
    betweenness_sample: int | None = None,
    seed: int = 0,
    scope: str = "largest",
    literal_closeness: bool = False,
) -> CentralityTable:
    """Degree, betweenness and closeness joined per node.

    By default the largest connected component is analyzed; pass
    scope="whole" to keep every node (singleton components then have no
    closeness value).  Rows sort by betweenness descending, node label
    ascending.
    """
    if scope == "largest":
        target = largest_component_subgraph(graph)
    elif scope == "whole":
        target = graph
    else:
        raise ValueError(f"unknown scope {scope!r}")
    if target.node_count < 2:
        raise DegenerateDataError("centrality table needs at least 2 nodes")
    degree = degree_centrality(target)
    betweenness = betweenness_centrality(target, betweenness_sample, seed)
    closeness = closeness_centrality(target, literal=literal_closeness)
    rows = [
        CentralityRow(
            node=node,
            degree=degree[node],
            betweenness=betweenness[node],
            closeness=closeness.get(node),
        )
        for node in sorted(target.nodes)
    ]
    rows.sort(key=lambda row: (-row.betweenness, row.node))
    return CentralityTable(rows=tuple(rows))
