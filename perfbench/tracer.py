"""Outside-in tracer for the biblionet layers.

`Tracer.install()` wraps every public function of the layer modules in
every module namespace that binds it, so that a call through
`graph_stats.connected_components` and one through
`graphs.connected_components` land in the same wrapper. Each call
records a span (function, start, end, parent) in memory; nothing is
written until the caller asks for `Tracer.dump()`. A few wrappers also
note cheap facts about their arguments or results (records parsed,
files written, graph sizes) so that counts are taken where the work
happens; graph traversal sizes are worked out after the command ends,
outside every span.

`layer_metrics()` turns the spans of one workload into the per-layer
metrics: self times summed over calls, call counts and derived ratios.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict, deque

LAYERS = ("wos_ingest", "normalize", "metrics", "keywords", "dedup", "graphs", "graph_stats", "cli")

# metric -> functions (of the metric's layer) whose self times it sums; a
# function that only delegates to another public function of its layer
# would otherwise read as zero
SELF_TIME_METRICS = {
    "wos_ingest.parse_file_s": ("parse_file", "parse_export", "sniff_format"),
    "wos_ingest.merge_corpora_s": ("merge_corpora", "detect_duplicates"),
    "wos_ingest.write_corpus_jsonl_s": ("write_corpus_jsonl",),
    "wos_ingest.read_corpus_jsonl_s": ("read_corpus_jsonl",),
    "normalize.extract_countries_s": ("extract_countries", "canonicalize_country"),
    "normalize.extract_institutions_s": ("extract_institutions",),
    "normalize.split_authors_s": ("split_authors",),
    "normalize.normalize_date_s": ("normalize_date",),
    "metrics.field_counts_s": ("field_counts",),
    "metrics.monthly_counts_s": ("monthly_counts",),
    "metrics.correlation_matrix_s": ("correlation_matrix", "pearson"),
    "metrics.international_collab_ratio_s": ("international_collab_ratio",),
    "metrics.author_table_s": ("author_table", "author_citation_vectors", "h_index", "g_index"),
    "metrics.most_cited_s": ("most_cited",),
    "keywords.keyword_frequencies_s": ("keyword_frequencies", "tokenize", "filter_stopwords"),
    "dedup.find_suspect_pairs_s": ("find_suspect_pairs", "similarity_ratio", "levenshtein"),
    "graphs.build_s": ("build_coauthorship", "build_country_graph", "build_institution_graph",
                       "build_cooccurrence", "canonical_pair"),
    "graphs.connected_components_s": ("connected_components",),
    "graphs.graph_facts_s": ("graph_facts",),
    "graphs.write_graphml_s": ("write_graphml",),
    "graphs.write_dot_s": ("write_dot",),
    "graphs.write_edge_csv_s": ("write_edge_csv",),
    "graph_stats.betweenness_centrality_s": ("betweenness_centrality",),
    "graph_stats.closeness_centrality_s": ("closeness_centrality",),
    "graph_stats.avg_shortest_path_s": ("avg_shortest_path",),
    "graph_stats.clustering_s": ("clustering",),
    "graph_stats.fit_power_law_s": ("fit_power_law",),
    "graph_stats.per_component_assortativity_s": ("per_component_assortativity",),
}

CALL_COUNT_METRICS = {
    "wos_ingest.read_corpus_jsonl_calls": "wos_ingest.read_corpus_jsonl",
    "normalize.extract_countries_calls": "normalize.extract_countries",
    "normalize.extract_institutions_calls": "normalize.extract_institutions",
    "normalize.split_authors_calls": "normalize.split_authors",
    "keywords.tokenize_calls": "keywords.tokenize",
    "dedup.similarity_calls": "dedup.similarity_ratio",
    "graphs.connected_components_calls": "graphs.connected_components",
}

OBSERVED_COUNTS = (
    "wos_ingest.records_parsed", "wos_ingest.records_skipped", "wos_ingest.duplicates_removed",
    "wos_ingest.bytes_read", "wos_ingest.bytes_written", "dedup.names_compared",
    "dedup.suspect_pairs", "graphs.nodes", "graphs.edges", "graphs.components",
    "graph_stats.bfs_sources", "graph_stats.traversed_arcs",
)

_TRAVERSALS = ("graph_stats.betweenness_centrality", "graph_stats.closeness_centrality",
               "graph_stats.avg_shortest_path")


def _parse_file(counts, args, kwargs, result):
    counts["wos_ingest.records_parsed"] += len(result.records)
    counts["wos_ingest.records_skipped"] += result.skipped
    counts["wos_ingest.bytes_read"] += os.path.getsize(args[0])


def _merge_corpora(counts, args, kwargs, result):
    counts["wos_ingest.duplicates_removed"] += sum(map(len, args[0])) - len(result)


def _write_corpus_jsonl(counts, args, kwargs, result):
    counts["wos_ingest.bytes_written"] += os.path.getsize(args[1])


def _read_corpus_jsonl(counts, args, kwargs, result):
    counts["wos_ingest.bytes_read"] += os.path.getsize(args[0])


def _find_suspect_pairs(counts, args, kwargs, result):
    counts["dedup.names_compared"] += len({name for name in args[0] if name})
    counts["dedup.suspect_pairs"] += len(result)


def _graph_facts(counts, args, kwargs, result):
    counts["graphs.nodes"] += result.node_count
    counts["graphs.edges"] += result.edge_count
    counts["graphs.components"] += result.component_count


# qualified name -> observer(counts, args, kwargs, result), run right after the span closes
_OBSERVERS = {
    "wos_ingest.parse_file": _parse_file,
    "wos_ingest.merge_corpora": _merge_corpora,
    "wos_ingest.write_corpus_jsonl": _write_corpus_jsonl,
    "wos_ingest.read_corpus_jsonl": _read_corpus_jsonl,
    "dedup.find_suspect_pairs": _find_suspect_pairs,
    "graphs.graph_facts": _graph_facts,
}

# writers whose output files belong to their own layer, not to cli
_WRITERS = frozenset({
    "wos_ingest.write_corpus_jsonl", "graphs.write_graphml", "graphs.write_dot",
    "graphs.write_edge_csv", "dedup.write_suspect_pairs_csv",
})


def _components(graph) -> list[tuple[int, int]]:
    """(node count, arc count) of each connected component, self-loops ignored."""
    adjacency = defaultdict(set)
    for a, b in graph.edges:
        if a != b:
            adjacency[a].add(b)
            adjacency[b].add(a)
    seen = set()
    result = []
    for start in graph.nodes:
        if start in seen:
            continue
        seen.add(start)
        queue = deque([start])
        nodes = arcs = 0
        while queue:
            node = queue.popleft()
            nodes += 1
            arcs += len(adjacency[node])
            for neighbor in adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
        result.append((nodes, arcs))
    return result


def traversal_size(name: str, graph, sample) -> tuple[int, int]:
    """BFS sources and arcs traversed by one call of a graph_stats traversal.

    Every BFS from a source visits each arc of the source's component
    once. A sampled call is charged the mean arcs per uniformly drawn
    source; the CLI samples only components above its auto-sample
    threshold, which are connected, so the figure is exact there.
    """
    components = _components(graph)
    if name == "graph_stats.closeness_centrality":
        components = [(n, arcs) for n, arcs in components if n >= 2]
    elif name == "graph_stats.avg_shortest_path":
        components = [max(components, key=lambda c: c[0])]
    elif graph.node_count < 3:  # betweenness returns zeros without traversing
        return 0, 0
    n = sum(size for size, _ in components)
    work = sum(size * arcs for size, arcs in components)
    if sample is None or sample >= n or name == "graph_stats.closeness_centrality":
        return n, work
    return sample, sample * work // n


class Tracer:
    """Wraps the layer functions of an imported biblionet and records spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int] | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.written: list[str] = []
        self._traversals: list[tuple[str, object, object]] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, qualname: str):
        fid = len(self.names)
        self.names.append(qualname)
        spans, stack, counts = self.spans, self._stack, self.counts
        observer = _OBSERVERS.get(qualname)
        writer = qualname in _WRITERS
        traversal = qualname in _TRAVERSALS
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (fid, start, end, parent)
            if observer is not None:
                observer(counts, args, kwargs, result)
            if writer:
                self.written.append(os.path.abspath(args[1] if len(args) > 1 else kwargs["path"]))
            if traversal:
                sample = args[1] if len(args) > 1 else kwargs.get("sample_sources")
                self._traversals.append((qualname, args[0], sample))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every loaded layer module, in place."""
        modules = {name: sys.modules[f"biblionet.{name}"] for name in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not attr.startswith("_") and not inspect.isgeneratorfunction(value)):
                    wrappers[value] = self._wrap(value, f"{layer}.{attr}")
        for module in [sys.modules["biblionet"], *modules.values()]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def dump(self, run_id: str) -> dict:
        """Spans and counts of this run; resolves traversal sizes first."""
        for qualname, graph, sample in self._traversals:
            sources, arcs = traversal_size(qualname, graph, sample)
            self.counts["graph_stats.bfs_sources"] += sources
            self.counts["graph_stats.traversed_arcs"] += arcs
        self._traversals.clear()
        return {
            "run_id": run_id,
            "names": self.names,
            "spans": self.spans,
            "counts": dict(self.counts),
            "written": self.written,
        }


# ---------------------------------------------------------------------------
# analysis of dumped spans

def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for fid, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for index, (fid, start, end, parent) in enumerate(spans):
        covered = 0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start, child_end = max(child_start, cursor), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result.append(end - start - covered)
    return result


def command_profile(dump: dict) -> dict:
    """Self time per function and per layer, call counts and root time of one command."""
    names = dump["names"]
    spans = dump["spans"]
    own = self_times(spans)
    by_function: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    for (fid, start, end, parent), ns in zip(spans, own):
        by_function[names[fid]] += ns
        calls[names[fid]] += 1
    by_layer: dict[str, int] = defaultdict(int)
    for qualname, ns in by_function.items():
        by_layer[qualname.split(".", 1)[0]] += ns
    root_ns = sum(end - start for fid, start, end, parent in spans if parent < 0)
    return {"self_ns": by_function, "layer_ns": by_layer, "calls": calls, "root_ns": root_ns}


def layer_metrics(profiles: list[dict], counts: dict[str, int], corpus_size: int,
                  files_written: int, bytes_written: int, import_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass over a workload's commands."""
    self_ns: dict[str, int] = defaultdict(int)
    layer_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    for profile in profiles:
        for key, value in profile["self_ns"].items():
            self_ns[key] += value
        for key, value in profile["layer_ns"].items():
            layer_ns[key] += value
        for key, value in profile["calls"].items():
            calls[key] += value

    metrics: dict[str, float] = {}
    for metric, functions in SELF_TIME_METRICS.items():
        layer = metric.split(".", 1)[0]
        metrics[metric] = sum(self_ns[f"{layer}.{fn}"] for fn in functions) / 1e9
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_ns[layer] / 1e9
    for metric, qualname in CALL_COUNT_METRICS.items():
        metrics[metric] = calls[qualname]
    for key in OBSERVED_COUNTS:
        metrics[key] = counts.get(key, 0)

    extractions = calls["normalize.extract_countries"] + calls["normalize.extract_institutions"]
    metrics["normalize.address_extractions_per_record"] = extractions / corpus_size
    metrics["dedup.hit_ratio"] = (
        metrics["dedup.suspect_pairs"] / metrics["dedup.similarity_calls"]
        if metrics["dedup.similarity_calls"] else 0.0
    )
    traversal_ns = sum(self_ns[name] for name in _TRAVERSALS)
    arcs = metrics["graph_stats.traversed_arcs"]
    metrics["graph_stats.ns_per_arc"] = traversal_ns / arcs if arcs else 0.0
    metrics["cli.import_s"] = import_s
    metrics["cli.files_written"] = files_written
    metrics["cli.bytes_written"] = bytes_written
    return metrics
