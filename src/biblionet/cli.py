"""Command-line pipeline: parse, stats, network, keywords, dedup-authors.

Outputs use fixed filenames under the chosen output directory so that
downstream plotting scripts stay stable; identical inputs, configuration
and seed produce byte-identical output trees.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from . import dedup, graph_stats, graphs, keywords, metrics
from .errors import DegenerateDataError, FormatError
from .normalize import NormalizationRules, normalize_date
from .wos_ingest import (
    Corpus, iter_corpus_records, merge_corpora, parse_file, read_corpus_jsonl, write_corpus_jsonl,
)

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_CONFIG_ERROR = 2
EXIT_DEGENERATE = 3

OUT_DIR_ENV = "BIBLIONET_OUT"

# exact betweenness is impractical above this size; a sampled estimate
# activates automatically and the sample size lands in the report meta
AUTO_SAMPLE_THRESHOLD = 20_000
AUTO_SAMPLE_SIZE = 1_000

# config key -> the argparse dest of the flag that overrides it
_FLAGS = {"out": "out", "format": "format", "top_k": "top_k", "fuzzy_threshold": "threshold",
          "seed": "seed", "sample": "sample", "stopwords": "stopwords", "rules": "rules"}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    out: Path = Path("out")
    format: str = "auto"
    top_k: int = 10
    fuzzy_threshold: float = dedup.DEFAULT_THRESHOLD
    seed: int = 0
    sample: int | None = None
    stopwords: str | None = None
    rules: str | None = None
    # parsed from `rules` by load_config; None means the built-in tables
    rule_tables: NormalizationRules | None = None


def _check_int(key: str, value, minimum: int | None = None) -> None:
    # bool is an int subclass, but `true` is no count
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {value}")


def load_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                data = json.load(fh)
            # json reads "\ud800" as a lone surrogate, which no path or output can hold
            json.dumps(data, ensure_ascii=False).encode("utf-8")
        except (OSError, UnicodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {args.config} must be a JSON object, got {data!r}")
        unknown = set(data) - _FLAGS.keys()
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            # paths are strings; only stopwords and rules may be null (unset)
            unset = value is None and key != "out"
            if key in ("out", "stopwords", "rules") and not (isinstance(value, str) or unset):
                raise ConfigError(f"{key} must be a file path, got {value!r}")
            if key == "out" and not value:
                raise ConfigError("out must not be empty, which would write into the working directory")
            setattr(config, key, value)
    # the environment overrides the config file, and a flag both; an
    # unset variable, a flag the command lacks or one given as "" sets nothing
    overrides = [(key, getattr(args, flag, None)) for key, flag in _FLAGS.items()]
    for key, value in [("out", os.environ.get(OUT_DIR_ENV)), *overrides]:
        if value is not None and value != "":
            setattr(config, key, value)
    config.out = Path(config.out)
    _check_int("top_k", config.top_k, minimum=1)
    _check_int("seed", config.seed, minimum=0)
    if config.sample is not None:
        _check_int("sample", config.sample, minimum=1)
    if isinstance(config.fuzzy_threshold, bool) or not isinstance(config.fuzzy_threshold, (int, float)):
        raise ConfigError(f"fuzzy_threshold must be a number, got {config.fuzzy_threshold!r}")
    if not 0 < config.fuzzy_threshold <= 1:
        raise ConfigError(f"fuzzy_threshold must lie in (0, 1], got {config.fuzzy_threshold}")
    if config.format not in ("auto", "tagged", "tab_delimited"):
        raise ConfigError(f"unknown format {config.format!r}")
    if getattr(args, "n", None) is not None:
        _check_int("n", args.n, minimum=1)
    if config.rules:
        try:
            config.rule_tables = NormalizationRules.from_file(config.rules)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load rules {config.rules}: {exc}") from exc
    return config


# ---------------------------------------------------------------------------
# deterministic emission helpers

def _sig6(x: float) -> float:
    return float(f"{x:.6g}")


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, ensure_ascii=False)
        fh.write("\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _sha256_hex(data: bytes) -> str:
    """The SHA-256 hex digest of `data`, from CPython's built-in module
    (`_sha2` since 3.12, `_sha256` before) where it exists: `hashlib`
    would load OpenSSL, ~3.6 MiB of RSS, for this one digest."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


def _write_manifest(outdir: Path, command: str, config: RunConfig, **extra) -> None:
    payload = {
        "command": command,
        "seed": config.seed,
        "sample": config.sample,
        "top_k": config.top_k,
        "fuzzy_threshold": config.fuzzy_threshold,
        "format": config.format,
    }
    payload.update(extra)
    _write_json(outdir / "manifest.json", payload)


def _write_staged(out: Path, name: str, write) -> None:
    """Run `write` on a fresh staging directory `out/.<name>.partial` and,
    when it returns, move each entry it staged into `out`: a staged
    directory replaces any earlier one of the same name whole.

    A `write` that raises leaves no partial output and the earlier
    outputs untouched; the staging directory goes either way.
    """
    staging = out / f".{name}.partial"
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir(parents=True)
    try:
        write(staging)
        for path in sorted(staging.iterdir()):
            target = out / path.name
            if path.is_dir() and target.exists():
                shutil.rmtree(target)
            os.replace(path, target)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def _shown(path) -> str:
    """`path` as printable text: a name that is not UTF-8 holds surrogate
    escapes, which no UTF-8 output can hold, so its undecodable bytes
    show as backslash escapes."""
    return os.fsencode(path).decode("utf-8", "backslashreplace")


def _counts_table(outdir: Path, name: str, counts, k: int) -> None:
    ranked = metrics.top_k(counts, k)
    _write_csv(outdir / f"{name}.csv", ["value", "count"], ranked)
    _write_json(outdir / f"{name}.json", [{"value": value, "count": count} for value, count in ranked])


# ---------------------------------------------------------------------------
# commands

def cmd_parse(args: argparse.Namespace, config: RunConfig) -> None:
    rules = config.rule_tables
    parts = []
    parsed = 0
    skipped = 0
    warnings: list[str] = []
    for path in args.inputs:
        result = parse_file(path, config.format)
        parts.append(result.records)
        parsed += len(result.records)
        skipped += result.skipped
        warnings.extend(f"{_shown(path)}: {message}" for message in result.warnings)
    records = merge_corpora(parts)
    duplicates_removed = parsed - len(records)
    dated = sum(normalize_date(r.publication_date, r.publication_year, rules) is not None for r in records)

    summary = {
        "files": len(args.inputs),
        "records_parsed": parsed,
        "records_skipped": skipped,
        "duplicates_removed": duplicates_removed,
        "corpus_size": len(records),
        "dated_view_size": dated,
        "warnings": warnings,
    }

    def write(outdir: Path) -> None:
        write_corpus_jsonl(records, outdir / "corpus.jsonl")
        _write_json(outdir / "parse_summary.json", summary)
        _write_manifest(outdir, "parse", config)

    _write_staged(config.out, "parse", write)
    print(
        f"parsed {parsed} records ({skipped} skipped, {duplicates_removed} duplicates removed); "
        f"corpus {len(records)}, dated view {dated}"
    )


def cmd_stats(args: argparse.Namespace, config: RunConfig) -> None:
    # its columns are built as the records stream past, so no record is kept
    corpus = read_corpus_jsonl(args.corpus, config.rule_tables)
    _write_staged(config.out, "stats", lambda staging: _write_stats_tables(corpus, staging / "stats", config))
    print(f"stats written to {_shown(config.out / 'stats')}")


def _write_stats_tables(corpus: Corpus, outdir: Path, config: RunConfig) -> None:
    k = config.top_k
    table = "field counts"
    counts = {}
    try:
        for name, field in (
            ("publication_types", "publication_type"),
            ("document_types", "document_type"),
            ("languages", "language"),
            ("sources", "source"),
            ("countries", "country"),
            ("institutions", "institution"),
            ("research_areas", "research_area"),
            ("author_keywords", "keyword"),
        ):
            table = name
            counts[field] = metrics.field_counts(corpus, field)
            _counts_table(outdir, name, counts[field], k)

        table = "page_stats"
        pages = [pages for pages in corpus.page_counts if pages is not None]
        _write_json(outdir / "page_stats.json", _stats_payload(pages))

        table = "authors_per_paper"
        _write_json(outdir / "authors_per_paper.json", _stats_payload(metrics.authors_per_paper(corpus)))

        table = "most_cited"
        cited = metrics.most_cited(corpus, k)
        _write_csv(
            outdir / "most_cited.csv",
            ["title", "authors", "times_cited", "research_areas"],
            [(title, authors, cited_count, "; ".join(areas)) for title, authors, cited_count, areas in cited],
        )
        _write_json(outdir / "most_cited.json", [
            {"title": title, "authors": authors, "times_cited": cited_count, "research_areas": list(areas)}
            for title, authors, cited_count, areas in cited
        ])

        table = "author_table"
        rows = metrics.author_table(corpus, k)
        _write_csv(
            outdir / "author_table.csv",
            ["name", "total_cited", "papers", "cited_per_paper", "h_index", "g_index"],
            [(r.name, r.total_cited, r.papers, f"{r.cited_per_paper:.6g}", r.h, r.g) for r in rows],
        )
        _write_json(outdir / "author_table.json", {
            "note": "papers without a citation count contribute 0 to their authors' vectors",
            "rows": [
                {
                    "name": r.name, "total_cited": r.total_cited, "papers": r.papers,
                    "cited_per_paper": _sig6(r.cited_per_paper), "h_index": r.h, "g_index": r.g,
                }
                for r in rows
            ],
        })

        for name, group_by in (
            ("monthly_all", "all"),
            ("monthly_by_country", "country"),
            ("monthly_by_source", "source"),
            ("monthly_by_research_area", "research_area"),
        ):
            table = name
            keys = None if group_by == "all" else [key for key, _ in metrics.top_k(counts[group_by], k)]
            series = metrics.monthly_counts(corpus, group_by, keys)
            _write_csv(
                outdir / f"{name}.csv",
                ["key", "month", "count"],
                [(s.key, str(ym), count) for s in series for ym, count in s.points.items()],
            )
            _write_json(outdir / f"{name}.json", [
                {"key": s.key, "points": {str(ym): count for ym, count in s.points.items()}}
                for s in series
            ])

        table = "collaboration"
        _write_json(outdir / "collaboration.json", {
            "degree_of_collaboration": _sig6(metrics.degree_of_collaboration(corpus)),
            "international_collaboration_ratio": _sig6(metrics.international_collab_ratio(corpus)),
            "multidisciplinary_ratio": _sig6(metrics.multidisciplinary_ratio(corpus)),
        })

        table = "correlation_matrix"
        matrix = metrics.correlation_matrix(corpus)
        _write_csv(
            outdir / "correlation_matrix.csv",
            ["variable", *matrix.variables],
            [
                (variable, *["" if value is None else f"{value:.6g}" for value in row])
                for variable, row in zip(matrix.variables, matrix.entries)
            ],
        )
        _write_json(outdir / "correlation_matrix.json", {
            "variables": list(matrix.variables),
            "entries": [[None if value is None else _sig6(value) for value in row] for row in matrix.entries],
        })
    except DegenerateDataError as exc:
        raise DegenerateDataError(f"stats: {table}: {exc}") from exc
    _write_manifest(outdir, "stats", config)


def _stats_payload(values: list) -> dict:
    stats = metrics.descriptive_stats(values)
    return {
        "min": _sig6(stats.minimum),
        "max": _sig6(stats.maximum),
        "mean": _sig6(stats.mean),
        "median": _sig6(stats.median),
        "mode": _sig6(stats.mode),
        "n": len(values),
    }


def cmd_network(args: argparse.Namespace, config: RunConfig) -> None:
    kind = graphs.GraphKind(args.kind.replace("-", "_"))
    # built as the records stream past, so no record is kept
    graph = graphs.build_graph(kind, iter_corpus_records(args.corpus), config.rule_tables)
    name = f"network_{kind.value}"
    _write_staged(config.out, name, lambda staging: _write_network(graph, staging / name, args, config))
    print(f"network analytics for kind={args.kind} written to {_shown(config.out / name)}")


def _write_network(graph: graphs.WeightedGraph, outdir: Path, args: argparse.Namespace, config: RunConfig) -> None:
    facts = graphs.graph_facts(graph)
    _write_json(outdir / "facts.json", {
        "kind": graph.kind.value,
        "node_count": facts.node_count,
        "edge_count": facts.edge_count,
        "self_loop_count": facts.self_loop_count,
        "isolated_count": facts.isolated_count,
        "component_count": facts.component_count,
        "component_sizes_top10": list(facts.component_sizes[:10]),
    })

    graphs.write_graphml(graph, outdir / "graph.graphml")
    graphs.write_dot(graph, outdir / "graph.dot")
    graphs.write_edge_csv(graph, outdir / "edges.csv")
    _write_csv(
        outdir / "top_edges.csv",
        ["label_a", "label_b", "weight"],
        graphs.top_weighted_edges(graph, config.top_k),
    )
    histogram = sorted(Counter(graph.degree.tolist()).items())
    _write_csv(outdir / "degree_histogram.csv", ["degree", "count"], histogram)

    component_size = facts.component_sizes[0] if facts.component_sizes else 0
    sample = config.sample
    auto_sampled = sample is None and component_size > AUTO_SAMPLE_THRESHOLD
    if auto_sampled:
        sample = AUTO_SAMPLE_SIZE
    meta = {"seed": config.seed, "sample": sample, "auto_sampled": auto_sampled}

    try:
        rows = graph_stats.centrality_table(
            graph, betweenness_sample=sample, seed=config.seed,
            scope="whole" if args.whole_graph else "largest",
            literal_closeness=args.literal_closeness,
        )
        _write_csv(
            outdir / "centrality.csv",
            ["node", "degree", "betweenness", "closeness"],
            [
                (
                    row.node, f"{row.degree:.6f}", f"{row.betweenness:.6f}",
                    "" if row.closeness is None else f"{row.closeness:.6f}",
                )
                for row in rows
            ],
        )
        _write_json(outdir / "centrality.json", {
            "meta": meta,
            "rows": [
                {
                    "node": row.node,
                    "degree": _sig6(row.degree),
                    "betweenness": _sig6(row.betweenness),
                    "closeness": None if row.closeness is None else _sig6(row.closeness),
                }
                for row in rows
            ],
        })
    except DegenerateDataError as exc:
        _write_csv(outdir / "centrality.csv", ["node", "degree", "betweenness", "closeness"], [])
        _write_json(outdir / "centrality.json", {"meta": meta, "skipped": str(exc)})

    try:
        report = graph_stats.small_world_check(graph)
        _write_json(outdir / "smallworld.json", {
            "meta": meta,
            "avg_shortest_path": _sig6(report.avg_shortest_path),
            "ln_node_count": _sig6(report.ln_node_count),
            "avg_clustering": _sig6(report.avg_clustering),
            # path length is always exact; the key stays for readers of older trees
            "sampled": False,
            "verdict": report.verdict,
        })
    except DegenerateDataError as exc:
        _write_json(outdir / "smallworld.json", {"meta": meta, "skipped": str(exc)})

    degrees = [degree for degree, count in histogram if degree for _ in range(count)]
    try:
        fit = graph_stats.fit_power_law(degrees)
        digest = _sha256_hex(",".join(map(str, degrees)).encode())
        _write_json(outdir / "powerlaw.json", {
            "meta": meta,
            "gamma": _sig6(fit.gamma),
            "xmin": fit.xmin,
            "ks": _sig6(fit.ks_statistic),
            "n_tail": fit.n_tail,
            "sampled_degrees_hash": digest,
        })
    except DegenerateDataError as exc:
        _write_json(outdir / "powerlaw.json", {"meta": meta, "skipped": str(exc)})

    series = graph_stats.per_component_assortativity(graph)
    _write_csv(
        outdir / "assortativity.csv",
        ["component_size", "assortativity", "defined"],
        [
            (res.component_size, "" if res.r is None else f"{res.r:.6f}", str(res.r is not None).lower())
            for res in series
        ],
    )
    _write_json(outdir / "assortativity.json", {
        "meta": meta,
        "components": [
            {"component_size": res.component_size, "r": None if res.r is None else _sig6(res.r)}
            for res in series
        ],
    })

    _write_manifest(outdir, "network", config, kind=args.kind)


def cmd_keywords(args: argparse.Namespace, config: RunConfig) -> None:
    stopword_set = (
        keywords.StopwordSet.from_file(config.stopwords) if config.stopwords else keywords.StopwordSet()
    )
    # counted as the records stream past, so no record is kept
    ranked = keywords.keyword_frequencies(iter_corpus_records(args.corpus), stopword_set, args.n)

    def write(staging: Path) -> None:
        outdir = staging / "keywords"
        _write_csv(outdir / "keyword_frequencies.csv", ["token", "count"], ranked)
        _write_json(outdir / "keyword_frequencies.json", [
            {"token": token, "count": count} for token, count in ranked
        ])
        _write_manifest(outdir, "keywords", config, n=args.n)

    _write_staged(config.out, "keywords", write)
    print(f"{len(ranked)} keyword frequencies written to {_shown(config.out / 'keywords')}")


def cmd_dedup_authors(args: argparse.Namespace, config: RunConfig) -> None:
    names = sorted({name for record in iter_corpus_records(args.corpus) for name in record.distinct_authors()})
    if config.sample is not None:
        names = dedup.sample_names(names, config.sample, config.seed)
    pairs = dedup.find_suspect_pairs(names, config.fuzzy_threshold)

    def write(staging: Path) -> None:
        outdir = staging / "dedup"
        outdir.mkdir()  # which write_suspect_pairs_csv does not make
        dedup.write_suspect_pairs_csv(pairs, outdir / "suspect_pairs.csv")
        _write_manifest(outdir, "dedup-authors", config, names_compared=len(names))

    _write_staged(config.out, "dedup", write)
    print(f"{len(pairs)} suspect pairs (threshold {config.fuzzy_threshold}) "
          f"written to {_shown(config.out / 'dedup')}")


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--out", help=f"output directory (env {OUT_DIR_ENV} overrides config)")
    common.add_argument("--seed", type=int, help="seed (>= 0) for sampled betweenness and dedup (default 0)")
    common.add_argument("--top-k", dest="top_k", type=int, help="rows per ranking table (default 10)")
    common.add_argument("--sample", type=int,
                        help="source sample size for betweenness, name sample for dedup-authors; "
                             "path length is always exact")
    common.add_argument("--rules", help="JSON file overriding country/month rule tables")

    parser = argparse.ArgumentParser(prog="biblionet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_parse = sub.add_parser("parse", parents=[common], help="parse export files into a corpus")
    p_parse.add_argument("inputs", nargs="+", help="export files (.txt)")
    p_parse.add_argument("--format", choices=["auto", "tagged", "tab_delimited"], help="export dialect")
    p_parse.set_defaults(func=cmd_parse)

    p_stats = sub.add_parser("stats", parents=[common], help="descriptive tables and ratios")
    p_stats.add_argument("corpus", help="corpus.jsonl produced by parse")
    p_stats.set_defaults(func=cmd_stats)

    p_network = sub.add_parser("network", parents=[common], help="build and analyze one graph")
    p_network.add_argument("corpus", help="corpus.jsonl produced by parse")
    p_network.add_argument("--kind", required=True,
                           choices=sorted(kind.value.replace("_", "-") for kind in graphs.GraphKind))
    p_network.add_argument("--whole-graph", action="store_true", help="centrality over the whole graph instead of the largest component")
    p_network.add_argument("--literal-closeness", action="store_true", help="closeness numerator N instead of N-1")
    p_network.set_defaults(func=cmd_network)

    p_keywords = sub.add_parser("keywords", parents=[common], help="title+abstract keyword frequencies")
    p_keywords.add_argument("corpus", help="corpus.jsonl produced by parse")
    p_keywords.add_argument("--n", type=int, default=100, help="number of keywords (default 100)")
    p_keywords.add_argument("--stopwords", help="custom stopword list, one word per line")
    p_keywords.set_defaults(func=cmd_keywords)

    p_dedup = sub.add_parser("dedup-authors", parents=[common], help="report near-duplicate author names")
    p_dedup.add_argument("corpus", help="corpus.jsonl produced by parse")
    p_dedup.add_argument("--threshold", type=float, help="similarity threshold (default 0.8)")
    p_dedup.set_defaults(func=cmd_dedup_authors)
    return parser


def main(argv: list[str] | None = None) -> int:
    # no command calls BLAS, so numpy's OpenBLAS need start no worker threads
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args, load_config(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (FormatError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except DegenerateDataError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
