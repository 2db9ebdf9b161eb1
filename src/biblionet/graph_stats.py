"""Structural network analysis: centralities, clustering, path lengths,
small-world check, power-law degree fit, and degree assortativity.

Shortest paths are unweighted hop counts; edge weights are collaboration
counts, not distances.  Every function reads the integer arrays that
the graph is built with: the CSR of the simple graph (self-loops
ignored) and its component ids.

Every traversal is exact, and fewer are run than there are sources: the
true twins of a class (equal closed neighbourhoods) share one, and a
pendant (degree 1) reuses its hub's, with a closed-form correction.
Closeness and path length read one cached pass per graph, a bit-parallel
breadth-first search that advances 64 sources at once, one per bit of a
uint64 word.  Betweenness runs Brandes dependency accumulation for a
batch of up to 16 sources per pass, each wide level bottom-up, and keeps
the rows that later twins and pendants reuse in a cache of fixed size;
its values are bit-identical to one traversal per source.

numpy is imported inside the functions that use it, so CLI commands
that analyse no graph do not pay its start-up cost.  It is the only
library `network` loads: the power-law fit computes its own Hurwitz
zeta.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import repeat

from .errors import DegenerateDataError
from .graphs import WeightedGraph, connected_components

# ---------------------------------------------------------------------------
# traversal kernels over a CSR

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
# bytes of dependency rows that betweenness keeps for later twins and pendants
_ROW_CACHE_BYTES = 2**21
# (edge, neighbour) pairs that `clustering` checks at once
_WEDGE_BUDGET = 2**15


def _row_arcs(indptr: np.ndarray, rows: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every arc of `rows`, row by row: the position of its row in `rows`
    and its position in the CSR.  `counts` holds each row's degree."""
    import numpy as np
    slots = np.repeat(np.arange(rows.size), counts)
    positions = np.arange(slots.size)
    positions += (indptr[rows] - np.cumsum(counts) + counts)[slots]
    return slots, positions


def _brandes_dependencies(indptr: np.ndarray, indices: np.ndarray, sources: np.ndarray, n: int) -> np.ndarray:
    """Dependency accumulation (Brandes 2001) for a batch of sources.

    The B searches run side by side over a flattened (B, n) state; row b
    of the result holds the dependencies of every node on sources[b].

    A level runs top-down, over the arcs leaving the frontier, or
    bottom-up, where every unreached (source, node) pair scans its own
    row for parents on the frontier, whichever scans fewer arcs
    (direction-optimizing BFS: Beamer, Asanovic & Patterson, SC 2012).
    Either way a node's parents, and a parent's children, reach
    `bincount` in ascending order, so every sigma and delta is summed in
    the same order and the result does not depend on the direction.
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
    slot_of[frontier] = np.arange(batch)
    degree = np.diff(indptr)
    local = sources
    counts = degree[local]
    frontier_arcs = int(counts.sum())
    unreached_arcs = batch * indices.size - frontier_arcs
    levels = []
    level = 0
    while True:
        level += 1
        if frontier_arcs <= unreached_arcs:
            # one slot per arc leaving the frontier, tagged with its origin
            origin_slots, targets = _row_arcs(indptr, local, counts)
            targets = indices[targets]
            targets += (frontier - local)[origin_slots]
            # shortest-path DAG edges from this level to the next
            edges = np.flatnonzero(dist[targets] < 0)
            if edges.size == 0:
                break
            target_edges = targets[edges]
            origin_slots = origin_slots[edges]
            dist[target_edges] = level
            fresh = np.flatnonzero(dist == level)
            slot_of[fresh] = np.arange(fresh.size)
            target_slots = slot_of[target_edges]
            parents = frontier[origin_slots]
        else:
            unreached = np.flatnonzero(dist < 0)
            unreached_local = unreached % n
            children, candidates = _row_arcs(indptr, unreached_local, degree[unreached_local])
            candidates = indices[candidates]
            candidates += (unreached - unreached_local)[children]
            edges = np.flatnonzero(dist[candidates] == level - 1)
            if edges.size == 0:
                break
            parents = candidates[edges]
            children = children[edges]
            first = np.ones(children.size, dtype=bool)
            np.not_equal(children[1:], children[:-1], out=first[1:])
            fresh = unreached[children[first]]
            target_slots = np.cumsum(first) - 1
            target_edges = fresh[target_slots]
            dist[fresh] = level
            slot_of[fresh] = np.arange(fresh.size)
            origin_slots = slot_of[parents]
        # every slot written here is still 0, so bincount sums exactly
        # as an in-order scatter-add would
        weights = sigma[parents]
        sigma[fresh] = np.bincount(target_slots, weights=weights, minlength=fresh.size)
        levels.append((frontier, origin_slots, target_edges, weights))
        frontier = fresh
        local = fresh % n
        counts = degree[local]
        frontier_arcs = int(counts.sum())
        unreached_arcs -= frontier_arcs
    delta = np.zeros(batch * n, dtype=np.float64)
    for origins, origin_slots, target_edges, weights in reversed(levels):
        contrib = weights / sigma[target_edges] * (1.0 + delta[target_edges])
        delta[origins] = np.bincount(origin_slots, weights=contrib, minlength=origins.size)
    delta[offsets + sources] = 0.0
    return delta.reshape(batch, n)


def _dependency_rows(indptr: np.ndarray, indices: np.ndarray, keys: list[int], batch: int, capacity: int):
    """Yield the dependency row of each node of `keys`, in order.

    A node's row is computed once for all its repeats, in batches of up
    to `batch` nodes taken in order of first use, and is kept until its
    last use.  At most `capacity` rows are kept; when that is not enough,
    the kept row needed again latest is dropped, to be computed anew.
    """
    import numpy as np
    n = indptr.size - 1
    never = len(keys)
    following = [never] * len(keys)  # position of the next use of the same key
    first_use = {}
    for position in range(len(keys) - 1, -1, -1):
        following[position] = first_use.get(keys[position], never)
        first_use[keys[position]] = position
    by_first_use = list(dict.fromkeys(keys))
    pointer = 0  # by_first_use[:pointer] have been computed
    cache: dict[int, np.ndarray] = {}
    next_use: dict[int, int] = {}
    for position, key in enumerate(keys):
        if key not in cache:
            wanted = [key]
            if pointer < len(by_first_use) and by_first_use[pointer] == key:
                pointer += 1
            while len(wanted) < batch and pointer < len(by_first_use):
                wanted.append(by_first_use[pointer])
                pointer += 1
            while len(cache) + len(wanted) > capacity:
                victim = max(next_use, key=next_use.__getitem__)
                del cache[victim], next_use[victim]
            rows = _brandes_dependencies(indptr, indices, np.asarray(wanted, dtype=np.int64), n)
            for node, row in zip(wanted, rows):
                cache[node] = row.copy()  # a view would keep the whole batch alive
                next_use[node] = first_use[node]
        row = cache[key]
        if following[position] == never:
            del cache[key], next_use[key]
        else:
            next_use[key] = following[position]
        yield row


def largest_component_subgraph(graph: WeightedGraph) -> WeightedGraph:
    """The largest connected component: the graph itself when it is
    connected, else a subgraph derived once and kept on the graph.

    The subgraph is a slice of the graph's arrays: its nodes, in label
    order, are renumbered 0..c-1, so its edges keep canonical order.
    Only the parent refers to the subgraph, never the other way, so
    reference counting frees both.
    """
    components = connected_components(graph)
    if not components:
        raise DegenerateDataError("graph has no nodes")
    if len(components) == 1:
        return graph
    if graph.largest is None:
        import numpy as np
        kept = graph.component == 0
        renumbered = np.cumsum(kept) - 1
        edges = kept[graph.tails]  # an edge's ends share a component
        graph.largest = WeightedGraph(
            graph.kind, tuple(map(graph.labels.__getitem__, np.flatnonzero(kept).tolist())),
            renumbered[graph.tails[edges]], renumbered[graph.heads[edges]], graph.weights[edges])
    return graph.largest


def _sources(n: int, sample_sources: int | None, seed: int):
    """Every node, or a seeded uniform sample of `sample_sources` nodes in index order."""
    if sample_sources is None or sample_sources >= n:
        return range(n)
    if sample_sources < 1:
        raise ValueError("sample_sources must be >= 1")
    return sorted(random.Random(seed).sample(range(n), sample_sources))


def _served_by(graph: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """The node whose traversal serves each node, and whether the node is
    a pendant of it; derived once per graph.

    True twins, nodes with equal closed neighbourhoods, lie at equal
    distances from every other node and have bit-identical Brandes rows,
    so the smallest member of each twin class serves the class.  A
    pendant, a node of degree 1 whose neighbour (its hub) has a larger
    degree, lies one hop further than its hub from every other node, so
    the hub serves it (Sariyuce, Kaya, Saule & Catalyurek, "Graph
    Manipulations for Fast Centrality Computation", TKDD 2017).

    Twin candidates share a degree and a 64-bit fingerprint of their
    closed neighbourhood; each candidate is checked against the smallest
    one, so a fingerprint collision can only cost a reduction.
    """
    if graph.served_by is not None:
        return graph.served_by
    import numpy as np
    indptr, indices, degree = graph.indptr, graph.indices, graph.degree
    n = degree.size
    nodes = np.arange(n, dtype=np.int64)
    # a splitmix64 word per node; N[v] is fingerprinted by the wrapping
    # sum of the words of v and of its neighbours
    word = (nodes.astype(np.uint64) + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        word = (word ^ (word >> np.uint64(shift))) * np.uint64(factor)
    word ^= word >> np.uint64(31)
    running = np.zeros(indices.size + 1, dtype=np.uint64)
    np.cumsum(word[indices], out=running[1:])
    fingerprint = running[indptr[1:]] - running[indptr[:-1]] + word
    order = np.lexsort((nodes, fingerprint, degree))
    starts = np.ones(n, dtype=bool)
    starts[1:] = (np.diff(degree[order]) != 0) | (np.diff(fingerprint[order]) != 0)
    candidate = np.empty(n, dtype=np.int64)
    candidate[order] = order[np.flatnonzero(starts)][np.cumsum(starts) - 1]
    # v and its candidate r, both of degree d, are twins when they are
    # adjacent and N(v) without r equals N(r) without v
    pairs = np.flatnonzero(candidate != nodes)
    partners = candidate[pairs]
    segment, own = _row_arcs(indptr, pairs, degree[pairs])
    _, theirs = _row_arcs(indptr, partners, degree[pairs])
    own, theirs = indices[own], indices[theirs]
    keep_own = own != partners[segment]
    keep_theirs = theirs != pairs[segment]
    adjacent = np.bincount(segment[~keep_own], minlength=pairs.size) > 0
    differ = np.bincount(segment[keep_own][own[keep_own] != theirs[keep_theirs]], minlength=pairs.size) > 0
    twin = pairs[adjacent & ~differ]
    served = nodes.copy()
    served[twin] = candidate[twin]
    leaves = np.flatnonzero(degree == 1)
    hubs = indices[indptr[leaves]]
    on_hub = degree[hubs] > 1  # the two ends of a lone edge are twins instead
    served[leaves[on_hub]] = hubs[on_hub]
    pendant = np.zeros(n, dtype=bool)
    pendant[leaves[on_hub]] = True
    graph.served_by = served, pendant
    return graph.served_by


def _component_distance_sums(graph: WeightedGraph) -> np.ndarray:
    """Total hop distance from each node to the rest of its component,
    derived once per graph.

    One bit-parallel pass serves every twin class and hub: a twin's sum
    is its class's, and a pendant's is its hub's plus c - 2, with c the
    size of its component.
    """
    if graph.distance_sums is not None:
        return graph.distance_sums
    import numpy as np
    served, pendant = _served_by(graph)
    traversed = np.zeros(graph.node_count, dtype=bool)
    traversed[served] = True
    traversed &= graph.degree > 0
    sources = np.flatnonzero(traversed)
    # a batch stops at its deepest search, so components stay together
    sources = sources[np.argsort(graph.component[sources], kind="stable")]
    totals = np.zeros(traversed.size, dtype=np.int64)
    totals[sources] = _distance_sums(graph.indptr, graph.indices, sources)
    sums = totals[served]
    sums += np.where(pendant, np.bincount(graph.component)[graph.component] - 2, 0)
    graph.distance_sums = sums
    return sums


# ---------------------------------------------------------------------------
# centralities

def degree_centrality(graph: WeightedGraph) -> dict[str, float]:
    """Distinct-neighbor degree over (N - 1), N the analyzed node count."""
    n = graph.node_count
    if n < 2:
        raise DegenerateDataError("degree centrality needs at least 2 nodes")
    return {node: degree / (n - 1) for node, degree in zip(graph.labels, graph.degree.tolist())}


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

    Only the nodes that serve the sources (see `_served_by`) are
    traversed.  A twin's row is its class's row.  A pendant v's row is
    its hub u's row except at u, where v's search reaches every other
    neighbour w of u with sigma 1, so the entry is the sum, in CSR order
    and from 0.0, of 1.0 + (u's dependency on w), as `bincount` forms it
    in the kernel.  The rows are added in source order, as one row per
    source would be, so the values are bit-identical.
    """
    import numpy as np
    labels, indptr, indices = graph.labels, graph.indptr, graph.indices
    n = len(labels)
    if n < 3:
        return {label: 0.0 for label in labels}
    sources = _sources(n, sample_sources, seed)
    scale = n / len(sources)
    served, pendant = _served_by(graph)
    batch = max(1, min(_BRANDES_MAX_BATCH, _BRANDES_BUDGET // (n + indices.size)))
    capacity = max(batch, _ROW_CACHE_BYTES // (8 * n))
    keys = served[sources].tolist()
    accumulated = np.zeros(n, dtype=np.float64)
    for source, hub, row in zip(sources, keys, _dependency_rows(indptr, indices, keys, batch, capacity)):
        accumulated += row
        if pendant[source]:
            others = indices[indptr[hub]:indptr[hub + 1]]
            others = others[others != source]
            # row[hub] is 0.0, so this gives what adding v's own row would
            accumulated[hub] += np.bincount(np.zeros(others.size, dtype=np.int64), weights=1.0 + row[others],
                                            minlength=1)[0]
    # halve: each unordered pair is seen from both endpoints
    values = accumulated * (scale / 2.0 / ((n - 1) * (n - 2) / 2.0))
    return dict(zip(labels, values.tolist()))


def closeness_centrality(graph: WeightedGraph, literal: bool = False) -> dict[str, float]:
    """Closeness per connected component.

    Default is (N_c - 1) / total hop distance within the component; with
    `literal=True` the numerator is N_c (the Bavelas form), which can
    exceed 1 on small components.  Size-1 components are omitted.

    The distance sums come from the graph's one shared pass, which
    `avg_shortest_path` reads too; nodes are keyed component by
    component.
    """
    import numpy as np
    sizes = np.array([len(c) for c in connected_components(graph)], dtype=np.int64)[graph.component]
    sources = np.flatnonzero(sizes >= 2)
    sources = sources[np.argsort(graph.component[sources], kind="stable")]
    numerators = sizes[sources] - (0 if literal else 1)
    totals = _component_distance_sums(graph)[sources]
    return {
        graph.labels[source]: numerator / total
        for source, numerator, total in zip(sources.tolist(), numerators.tolist(), totals.tolist())
    }


def clustering(graph: WeightedGraph) -> tuple[dict[str, float], float]:
    """Local clustering coefficients and their average over all nodes.

    Nodes of degree < 2 contribute 0.
    """
    if not graph.labels:
        raise DegenerateDataError("clustering of an empty graph is undefined")
    import numpy as np
    indptr, indices, degree = graph.indptr, graph.indices, graph.degree
    n = graph.node_count
    tails = np.repeat(np.arange(n), degree)
    # each edge from its end of lower (degree, index): a neighbour x of
    # that end that is adjacent to the other end closes a triangle at x
    order = degree * n + np.arange(n)
    lower = order[tails] < order[indices]
    near, far = tails[lower], indices[lower]
    arcs = tails * n + indices  # ascending: the CSR lists rows, then neighbours, in order
    counts = degree[near]
    triangles = np.zeros(n, dtype=np.int64)
    # edges in slices of at most _WEDGE_BUDGET wedges, to bound the memory
    step = max(1, _WEDGE_BUDGET // int(counts.max(initial=1)))
    for lo in range(0, near.size, step):
        # the neighbours of each edge's near end, one run per edge
        edge, positions = _row_arcs(indptr, near[lo:lo + step], counts[lo:lo + step])
        wedges = indices[positions]
        keys = wedges * n + far[lo:lo + step][edge]
        closed = arcs[np.minimum(np.searchsorted(arcs, keys), arcs.size - 1)] == keys
        triangles += np.bincount(wedges[closed], minlength=n)
    coefficients = {
        node: 2.0 * t / (d * (d - 1)) if d >= 2 else 0.0
        for node, t, d in zip(graph.labels, triangles.tolist(), degree.tolist())
    }
    average = sum(coefficients.values()) / len(coefficients)
    return coefficients, average


# ---------------------------------------------------------------------------
# path lengths and the small-world heuristic

def avg_shortest_path(graph: WeightedGraph) -> float:
    """Mean hop distance over ordered pairs of the largest component, exact.

    It reads the distance sums of the graph that already holds them: the
    graph's own after closeness over the whole graph, else the largest
    component's.  The largest component's nodes are those of component 0
    in the graph, in the same order, with the same sums.
    """
    component = largest_component_subgraph(graph)
    n = component.node_count
    if n < 2:
        raise DegenerateDataError("largest component has fewer than 2 nodes")
    holder = graph if graph.distance_sums is not None else component
    totals = _component_distance_sums(holder)[holder.component == 0]
    means = [float(total) / (n - 1) for total in totals.tolist()]
    return sum(means) / len(means)


@dataclass(frozen=True)
class SmallWorldReport:
    avg_shortest_path: float
    ln_node_count: float
    avg_clustering: float
    verdict: str


SMALL_WORLD_RATIO_RANGE = (0.1, 10.0)


def small_world_check(graph: WeightedGraph) -> SmallWorldReport:
    """Compare mean path length of the largest component against ln N.

    The verdict is a heuristic label, not a statistical test: the graph
    is called small-world-consistent when L and ln N share an order of
    magnitude (ratio within [0.1, 10]).
    """
    component = largest_component_subgraph(graph)
    n = component.node_count
    length = avg_shortest_path(graph)  # raises below 2 nodes
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


# alphas per block of a zeta table: a block's transient arrays hold this
# many rows, so the table itself is the only array that grows with the grid
_ZETA_BLOCK = 64


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

    The table is filled `_ZETA_BLOCK` rows at a time, in place.  Every
    entry takes the same operations in the same order whatever the
    block, so the block size changes no value; a block whose entries
    have all converged stops early.

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
    w = (q + 9).astype(np.float64)
    table = np.empty((x.shape[0], q.size))
    for first in range(0, x.shape[0], _ZETA_BLOCK):
        xb = x[first:first + _ZETA_BLOCK]
        s = table[first:first + _ZETA_BLOCK]
        powers = np.empty((xb.shape[0], bases.size))
        for row, alpha in zip(powers, xb[:, 0].tolist()):
            row[:] = np.fromiter(map(math.pow, float_bases, repeat(-alpha)), np.float64, bases.size)
        np.take(powers, slots[:, 0], axis=1, out=s)
        for k in range(1, 10):
            s += powers[:, slots[:, k]]
        b = powers[:, slots[:, 9]]
        t = b * w
        t /= xb - 1.0
        s += t
        np.multiply(b, 0.5, out=t)
        s -= t
        a = np.ones_like(xb)
        k = 0.0
        active = np.ones(s.shape, dtype=bool)
        for coefficient in _EULER_MACLAURIN:
            a *= xb + k
            b /= w
            np.multiply(a, b, out=t)
            t /= coefficient
            np.add(s, t, out=s, where=active)
            t /= s
            active &= ~(np.abs(t, out=t) < _MACHEP)
            if not active.any():
                break
            k += 1.0
            a *= xb + k
            b /= w
            k += 1.0
    return table


def _tail_ks(counts: np.ndarray, zetas: np.ndarray, zeta_xmin: float) -> float:
    """KS distance between the empirical tail CDF and the fitted one,
    given zeta(alpha, value + 1) for each tail value and zeta(alpha, xmin)."""
    import numpy as np
    n_tail = counts.sum()
    empirical = np.cumsum(counts) / n_tail
    model = 1.0 - zetas / zeta_xmin
    return float(np.max(np.abs(empirical - model)))


# the fewest degrees that `fit_power_law` fits
POWER_LAW_MIN_SAMPLES = 50


def fit_power_law(degrees) -> PowerLawFit:
    """Discrete maximum-likelihood power-law fit with KS-selected cutoff.

    For every candidate cutoff the tail exponent is estimated by
    maximizing the discrete log-likelihood (zeta-function normalization)
    over a fine grid, and the cutoff minimizing the Kolmogorov-Smirnov
    distance between the empirical and fitted tail distributions wins
    (Clauset, Shalizi & Newman, SIAM Review 2009).
    """
    import numpy as np
    x = np.asarray(list(degrees), dtype=np.int64)
    if x.size < POWER_LAW_MIN_SAMPLES:
        raise DegenerateDataError(f"need at least {POWER_LAW_MIN_SAMPLES} samples, got {x.size}")
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
    # their sorted union; np.union1d would import numpy.ma
    qs = np.sort(np.concatenate([candidates, values + 1]))
    qs = qs[np.concatenate([[True], qs[1:] != qs[:-1]])]
    table = _hurwitz_zeta(alpha_grid, qs)
    candidate_cols = np.searchsorted(qs, candidates)
    shifted_cols = np.searchsorted(qs, values + 1)

    # discrete log-likelihood on the (alpha x candidate) grid, one block
    # of alphas at a time; a later block takes a candidate only with a
    # strictly larger value, so ties keep the first alpha, as np.argmax does
    columns = np.arange(candidates.size)
    best_alpha_idx = np.zeros(candidates.size, dtype=np.int64)
    best_loglik = np.full(candidates.size, -np.inf)
    for first in range(0, alpha_grid.size, _ZETA_BLOCK):
        rows = slice(first, first + _ZETA_BLOCK)
        loglik = (
            -tail_counts[None, : candidates.size] * np.log(table[rows, candidate_cols])
            - alpha_grid[rows, None] * tail_logsum[None, : candidates.size]
        )
        block_best = np.argmax(loglik, axis=0)
        block_loglik = loglik[block_best, columns]
        better = block_loglik > best_loglik
        best_alpha_idx[better] = block_best[better] + first
        best_loglik[better] = block_loglik[better]

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


def _assortativity(graph: WeightedGraph, groups: int, group_of: np.ndarray) -> list[float | None]:
    """Assortativity of each group of arcs, given each node's group.

    Exact integer sums over every arc (both orientations of each non-loop
    edge); the remaining-degree shift by 1 cancels out of the correlation.
    A group without arcs or without endpoint-degree variance gets None.
    """
    import numpy as np
    degree = graph.degree
    tails = np.repeat(np.arange(degree.size), degree)
    x, y = degree[tails], degree[graph.indices]
    group = group_of[tails]
    sums = np.zeros((4, groups), dtype=np.int64)
    for row, values in enumerate((np.ones_like(x), x, x * y, x * x)):
        np.add.at(sums[row], group, values)
    results = []
    for count, sum_x, sum_xy, sum_xx in zip(*sums.tolist()):
        var_num = count * sum_xx - sum_x * sum_x
        results.append(None if count == 0 or var_num == 0 else (count * sum_xy - sum_x * sum_x) / var_num)
    return results


def degree_assortativity(graph: WeightedGraph) -> AssortativityResult:
    """Pearson correlation of distinct-neighbor degrees at edge endpoints.

    Each edge is counted in both orientations; self-loops are ignored.
    Undefined (r=None) when the endpoint-degree variance is zero, as on
    regular graphs.
    """
    import numpy as np
    if graph.indices.size == 0:
        raise DegenerateDataError("assortativity needs at least one non-loop edge")
    [r] = _assortativity(graph, 1, np.zeros(graph.node_count, dtype=np.int64))
    return AssortativityResult(r=r, component_size=graph.node_count)


def per_component_assortativity(graph: WeightedGraph) -> list[AssortativityResult]:
    """Assortativity of every connected component, largest first.

    Undefined entries are kept in the output (flagged via r=None) so a
    caller can exclude them from plots without losing the raw series.
    """
    components = connected_components(graph)
    series = _assortativity(graph, len(components), graph.component)
    return [AssortativityResult(r=r, component_size=len(c)) for r, c in zip(series, components)]


# ---------------------------------------------------------------------------
# combined centrality table

@dataclass(frozen=True)
class CentralityRow:
    node: str
    degree: float
    betweenness: float
    closeness: float | None


def centrality_table(
    graph: WeightedGraph,
    betweenness_sample: int | None = None,
    seed: int = 0,
    scope: str = "largest",
    literal_closeness: bool = False,
) -> tuple[CentralityRow, ...]:
    """Degree, betweenness and closeness joined per node, one row each.

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
        for node in target.labels
    ]
    rows.sort(key=lambda row: (-row.betweenness, row.node))
    return tuple(rows)
