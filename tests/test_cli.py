import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import networkx as nx
import numpy as np
import pytest

from biblionet import cli, graph_stats, graphs
from biblionet.keywords import keyword_frequencies
from biblionet.cli import EXIT_CONFIG_ERROR, EXIT_DEGENERATE, EXIT_INPUT_ERROR, EXIT_OK, main
from biblionet.metrics import correlation_matrix
from biblionet.wos_ingest import BiblioRecord, Corpus, iter_corpus_records, read_corpus_jsonl, write_corpus_jsonl
from oracles import synthetic_author_pool_records


def run(*argv) -> int:
    return main([str(a) for a in argv])


def forbid_whole_corpus_reads(monkeypatch) -> None:
    """Make every read that builds a whole Corpus raise."""
    def load_whole_corpus(*args, **kwargs):
        raise AssertionError("the command keeps no record")

    monkeypatch.setattr(cli, "read_corpus_jsonl", load_whole_corpus)
    monkeypatch.setattr(Corpus, "from_records", load_whole_corpus)


@pytest.fixture()
def parsed_out(tmp_path, fixture_paths):
    out = tmp_path / "run"
    code = run("parse", *fixture_paths, "--out", out, "--seed", "42")
    assert code == EXIT_OK
    return out


class TestParseCommand:
    def test_summary_numbers(self, parsed_out):
        summary = json.loads((parsed_out / "parse_summary.json").read_text())
        assert summary["files"] == 2
        assert summary["records_parsed"] == 21
        assert summary["records_skipped"] == 1
        assert summary["duplicates_removed"] == 1
        assert summary["corpus_size"] == 20
        assert summary["dated_view_size"] == 18
        assert len(summary["warnings"]) == 1

    def test_corpus_file_exists(self, parsed_out):
        lines = (parsed_out / "corpus.jsonl").read_text().splitlines()
        assert len(lines) == 20

    def test_empty_file(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "out"
        assert run("parse", empty, "--out", out) == EXIT_OK
        summary = json.loads((out / "parse_summary.json").read_text())
        assert summary["records_parsed"] == 0
        assert summary["records_skipped"] == 0

    def test_unreadable_input_exit_code(self, tmp_path):
        assert run("parse", tmp_path / "missing.txt", "--out", tmp_path / "o") == EXIT_INPUT_ERROR

    def test_export_names_keep_their_bytes_in_the_summary(self, tmp_path):
        untitled = "PT J\nAU X\nER\nEF\n"
        not_utf8 = tmp_path / os.fsdecode(b"bad\xff.txt")
        try:
            not_utf8.write_text(untitled, encoding="utf-8")
        except (OSError, UnicodeError):
            pytest.skip("the file system refuses a name that is not UTF-8")
        (tmp_path / "caf\u00e9.txt").write_text(untitled, encoding="utf-8")
        out = tmp_path / "out"
        assert run("parse", not_utf8, tmp_path / "caf\u00e9.txt", "--out", out) == EXIT_OK
        summary = json.loads((out / "parse_summary.json").read_bytes().decode("utf-8"))
        skipped = ": record starting at line 1: record missing title, skipped"
        assert summary["warnings"] == [f"{tmp_path}/bad\\xff.txt{skipped}", f"{tmp_path}/caf\u00e9.txt{skipped}"]

    def test_malformed_tab_header_exit_code(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("PT\tNOTATAG\nJ\tx\n", encoding="utf-8")
        assert run("parse", bad, "--format", "tab_delimited", "--out", tmp_path / "o") == EXIT_INPUT_ERROR


def one_record_corpus(tmp_path):
    record = {
        "publication_type": "J", "title": "Only", "author_full_names": ["A, B"],
        "source_abbrev": "J.", "language": "English", "document_type": "Article",
        "author_keywords": ["x"], "abstract": None,
        "addresses": "[A, B] Inst, Dept, City, Italy.",
        "cited_reference_count": 1, "times_cited": 2, "publication_date": "MAR",
        "publication_year": 2020, "research_areas": ["X"], "page_count": 3,
        "accession_id": "WOS:1",
    }
    corpus = tmp_path / "one.jsonl"
    corpus.write_text(json.dumps(record) + "\n", encoding="utf-8")
    return corpus


def empty_corpus(tmp_path):
    corpus = tmp_path / "empty.jsonl"
    corpus.write_text("", encoding="utf-8")
    return corpus


# every file that `stats` writes
STATS_FILES = {
    f"{name}.{ext}"
    for name in (
        "publication_types", "document_types", "languages", "sources", "countries",
        "institutions", "research_areas", "author_keywords", "most_cited", "author_table",
        "monthly_all", "monthly_by_country", "monthly_by_source", "monthly_by_research_area",
        "correlation_matrix",
    )
    for ext in ("csv", "json")
} | {"page_stats.json", "authors_per_paper.json", "collaboration.json", "manifest.json"}


class TestStatsCommand:
    def test_file_set_and_values(self, parsed_out):
        assert run("stats", parsed_out / "corpus.jsonl", "--out", parsed_out, "--seed", "42") == EXIT_OK
        stats = parsed_out / "stats"
        assert {p.name for p in stats.iterdir()} == STATS_FILES

        collab = json.loads((stats / "collaboration.json").read_text())
        # hand tally over the fixture: 19 authored papers, 13 with >= 2 authors
        assert collab["degree_of_collaboration"] == pytest.approx(13 / 19, abs=1e-6)

        doc_types = json.loads((stats / "document_types.json").read_text())
        by_value = {row["value"]: row["count"] for row in doc_types}
        # 'Article; Early Access' folds into 'Article': 15 articles total
        assert by_value["Article"] == 15

        monthly = json.loads((stats / "monthly_all.json").read_text())
        assert monthly[0]["key"] == "ALL"
        assert monthly[0]["points"]["2020-09"] == 6

    def test_rerun_is_byte_identical(self, parsed_out, tmp_path):
        corpus = parsed_out / "corpus.jsonl"
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run("stats", corpus, "--out", out_a, "--seed", "42") == EXIT_OK
        assert run("stats", corpus, "--out", out_b, "--seed", "42") == EXIT_OK
        files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel

    def test_degenerate_corpus_exit_code(self, tmp_path, capsys):
        # a corpus with no records has no table to write
        assert run("stats", empty_corpus(tmp_path), "--out", tmp_path / "o") == EXIT_DEGENERATE
        # reported by main, in the form of every other exit-3 failure
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0] == "analysis error: stats: corpus has no records"

    def test_one_record_corpus_skips_only_the_correlation_matrix(self, tmp_path):
        # a single record cannot produce a correlation matrix; every other table is defined
        out = tmp_path / "o"
        assert run("stats", one_record_corpus(tmp_path), "--out", out) == EXIT_OK
        stats = out / "stats"
        assert {p.name for p in stats.iterdir()} == STATS_FILES
        assert json.loads((stats / "correlation_matrix.json").read_text()) == {
            "skipped": "need at least 2 complete rows, found 1"
        }
        header = "variable,authors,cited_refs,times_cited,research_areas,countries,pages\n"
        assert (stats / "correlation_matrix.csv").read_text() == header
        assert json.loads((stats / "page_stats.json").read_text())["n"] == 1
        assert json.loads((stats / "collaboration.json").read_text()) == {
            "degree_of_collaboration": 0.0, "international_collaboration_ratio": 0.0, "multidisciplinary_ratio": 0.0,
        }

    def test_constant_variable_leaves_its_coefficients_null(self, tmp_path):
        # every paper from one country: the countries variable is constant
        records = [
            {
                "publication_type": "J", "title": f"P{i}", "author_full_names": [f"A{j}, B" for j in range(1 + i % 4)],
                "source_abbrev": "J.", "language": "English", "document_type": "Article",
                "author_keywords": ["x"], "abstract": None, "addresses": f"[A0, B] Inst{i % 3}, Dept, City, Italy.",
                "cited_reference_count": 5 + i * 7 % 11, "times_cited": i * 13 % 17, "publication_date": "MAR",
                "publication_year": 2020, "research_areas": ["X", "Y", "Z"][: 1 + i % 3], "page_count": 3 + i % 5,
                "accession_id": f"WOS:{i}",
            }
            for i in range(40)
        ]
        corpus = tmp_path / "italy.jsonl"
        corpus.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        out = tmp_path / "o"
        assert run("stats", corpus, "--out", out) == EXIT_OK
        assert {p.name for p in (out / "stats").iterdir()} == STATS_FILES

        matrix = correlation_matrix(read_corpus_jsonl(corpus))
        columns = np.array([
            [len(r["author_full_names"]), r["cited_reference_count"], r["times_cited"],
             len(r["research_areas"]), 1, r["page_count"]]
            for r in records
        ], dtype=float).T
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = np.corrcoef(columns)
        entries = np.array([[np.nan if v is None else v for v in row] for row in matrix.entries])
        assert np.array_equal(np.isnan(entries), np.isnan(expected))
        assert np.isnan(expected).sum() == 11  # the countries row and column
        assert np.allclose(entries, expected, atol=1e-12, equal_nan=True)

        written = json.loads((out / "stats" / "correlation_matrix.json").read_text())
        assert [[v is None for v in row] for row in written["entries"]] == np.isnan(expected).tolist()
        rows = (out / "stats" / "correlation_matrix.csv").read_text().splitlines()[1:]
        assert [[cell == "" for cell in row.split(",")[1:]] for row in rows] == np.isnan(expected).tolist()

    def test_degenerate_corpus_leaves_no_stats_directory(self, tmp_path):
        assert run("stats", empty_corpus(tmp_path), "--out", tmp_path / "o") == EXIT_DEGENERATE
        # the corpus is checked before anything is staged, so not even --out is made
        assert not (tmp_path / "o").exists()

    def test_failed_rerun_leaves_complete_stats_untouched(self, parsed_out, tmp_path):
        assert run("stats", parsed_out / "corpus.jsonl", "--out", parsed_out) == EXIT_OK
        before = snapshot(parsed_out / "stats")
        assert "manifest.json" in before
        assert run("stats", empty_corpus(tmp_path), "--out", parsed_out) == EXIT_DEGENERATE
        assert snapshot(parsed_out / "stats") == before
        assert not [p for p in parsed_out.iterdir() if p.name.startswith(".")]

    def test_successful_rerun_replaces_stats(self, parsed_out):
        stale = parsed_out / "stats" / "stale.csv"
        stale.parent.mkdir(parents=True)
        stale.write_text("left over\n", encoding="utf-8")
        assert run("stats", parsed_out / "corpus.jsonl", "--out", parsed_out, "--top-k", "3") == EXIT_OK
        first = snapshot(parsed_out / "stats")
        assert "stale.csv" not in first
        assert run("stats", parsed_out / "corpus.jsonl", "--out", parsed_out, "--top-k", "5") == EXIT_OK
        second = snapshot(parsed_out / "stats")
        assert set(second) == set(first)
        assert json.loads(second["manifest.json"])["top_k"] == 5
        assert second["countries.csv"] != first["countries.csv"]


# the first 200 records of the seed-7 corpus_tables export, blanked field by
# field: (fields set, tables that read them, those tables in skipped form)
BLANKED = {
    "no_pages": (
        {"page_count": None},
        {"page_stats", "correlation_matrix"},
        {"page_stats": "no values to summarize", "correlation_matrix": "need at least 2 complete rows, found 0"},
    ),
    "no_dates": (
        {"publication_date": "", "publication_year": 0},
        {"monthly_all", "monthly_by_country", "monthly_by_source", "monthly_by_research_area"},
        dict.fromkeys(
            ["monthly_all", "monthly_by_country", "monthly_by_source", "monthly_by_research_area"],
            "corpus has no dated records",
        ),
    ),
    "no_addresses": (
        {"addresses": ""},
        {"countries", "institutions", "monthly_by_country", "collaboration", "correlation_matrix"},
        {"correlation_matrix": "need at least 2 complete rows, found 0"},
    ),
}


@pytest.fixture(scope="module")
def tables_head(tmp_path_factory):
    """The first 200 corpus lines of the benchmark's seed-7 corpus_tables
    export, and their `stats` tree."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    from generate import generate
    from run import TABLES

    root = tmp_path_factory.mktemp("tables_head")
    inputs, _ = generate(TABLES, 7, root / "inputs")
    assert run("parse", *inputs, "--out", root / "parsed") == EXIT_OK
    lines = (root / "parsed" / "corpus.jsonl").read_text(encoding="utf-8").splitlines()[:200]
    corpus = root / "kept.jsonl"
    corpus.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    assert run("stats", corpus, "--out", root / "kept") == EXIT_OK
    return lines, snapshot(root / "kept" / "stats")


class TestDegenerateStatsCorpora:
    @pytest.mark.parametrize("case", sorted(BLANKED))
    def test_undefined_tables_are_skipped_and_the_rest_written(self, case, tables_head, tmp_path):
        fields, reading, skipped = BLANKED[case]
        lines, kept = tables_head
        corpus = tmp_path / f"{case}.jsonl"
        corpus.write_text("".join(json.dumps({**json.loads(line), **fields}) + "\n" for line in lines), encoding="utf-8")
        out = tmp_path / "o"
        assert run("stats", corpus, "--out", out) == EXIT_OK
        written = snapshot(out / "stats")
        assert set(written) == STATS_FILES
        for name, reason in skipped.items():
            assert json.loads(written[f"{name}.json"]) == {"skipped": reason}
            if f"{name}.csv" in STATS_FILES:
                # the header alone, as the full run writes it
                assert written[f"{name}.csv"] == kept[f"{name}.csv"].splitlines(keepends=True)[0]
        for file_name, data in written.items():
            if file_name.split(".")[0] not in reading:
                assert data == kept[file_name], file_name

    def test_an_undefined_collaboration_ratio_is_null_and_the_others_kept(self, tables_head, tmp_path):
        lines, kept = tables_head
        corpus = tmp_path / "no_addresses.jsonl"
        corpus.write_text("".join(json.dumps({**json.loads(line), "addresses": ""}) + "\n" for line in lines),
                          encoding="utf-8")
        assert run("stats", corpus, "--out", tmp_path / "o") == EXIT_OK
        collaboration = json.loads((tmp_path / "o" / "stats" / "collaboration.json").read_text())
        full = json.loads(kept["collaboration.json"])
        assert collaboration == {**full, "international_collaboration_ratio": None}
        assert full["international_collaboration_ratio"] is not None
        assert json.loads((tmp_path / "o" / "stats" / "countries.json").read_text()) == []


def snapshot(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def failing_write_dot(graph, path):
    raise OSError("no space left on device")


class TestNetworkStaging:
    def test_oserror_mid_write_keeps_the_earlier_tree(self, parsed_out, monkeypatch):
        corpus = parsed_out / "corpus.jsonl"
        assert run("network", corpus, "--kind", "coauthor", "--out", parsed_out) == EXIT_OK
        before = snapshot(parsed_out / "network_coauthor")
        assert "manifest.json" in before
        # graph.dot comes after facts.json and graph.graphml
        monkeypatch.setattr(graphs, "write_dot", failing_write_dot)
        assert run("network", corpus, "--kind", "coauthor", "--out", parsed_out, "--top-k", "3") == EXIT_INPUT_ERROR
        assert snapshot(parsed_out / "network_coauthor") == before
        assert not [p for p in parsed_out.iterdir() if p.name.startswith(".")]

    def test_oserror_on_a_first_run_leaves_no_network_directory(self, parsed_out, tmp_path, monkeypatch):
        monkeypatch.setattr(graphs, "write_dot", failing_write_dot)
        out = tmp_path / "fresh"
        assert run("network", parsed_out / "corpus.jsonl", "--kind", "coauthor", "--out", out) == EXIT_INPUT_ERROR
        assert list(out.iterdir()) == []

    def test_successful_rerun_replaces_the_tree(self, parsed_out):
        corpus = parsed_out / "corpus.jsonl"
        stale = parsed_out / "network_coauthor" / "stale.csv"
        stale.parent.mkdir(parents=True)
        stale.write_text("left over\n", encoding="utf-8")
        assert run("network", corpus, "--kind", "coauthor", "--out", parsed_out, "--top-k", "3") == EXIT_OK
        tree = snapshot(parsed_out / "network_coauthor")
        assert "stale.csv" not in tree
        assert json.loads(tree["manifest.json"])["top_k"] == 3
        assert not [p for p in parsed_out.iterdir() if p.name.startswith(".")]


def failing_write_manifest(outdir, *args, **kwargs):
    # the manifest is each tree's last file; leave it half written
    (outdir / "manifest.json").write_text("{", encoding="utf-8")
    raise OSError("no space left on device")


STAGED_COMMANDS = {"keywords": ("keywords",), "dedup": ("dedup-authors", "--sample", "30")}


@pytest.mark.parametrize("name", sorted(STAGED_COMMANDS))
class TestKeywordsAndDedupStaging:
    def test_oserror_mid_write_keeps_the_earlier_tree(self, parsed_out, monkeypatch, name):
        command, *flags = STAGED_COMMANDS[name]
        corpus = parsed_out / "corpus.jsonl"
        assert run(command, corpus, *flags, "--out", parsed_out) == EXIT_OK
        before = snapshot(parsed_out / name)
        assert "manifest.json" in before
        monkeypatch.setattr(cli, "_write_manifest", failing_write_manifest)
        assert run(command, corpus, *flags, "--out", parsed_out, "--seed", "7") == EXIT_INPUT_ERROR
        assert snapshot(parsed_out / name) == before
        assert not [p for p in parsed_out.iterdir() if p.name.startswith(".")]

    def test_oserror_on_a_first_run_leaves_no_directory(self, parsed_out, tmp_path, monkeypatch, name):
        command, *flags = STAGED_COMMANDS[name]
        monkeypatch.setattr(cli, "_write_manifest", failing_write_manifest)
        out = tmp_path / "fresh"
        assert run(command, parsed_out / "corpus.jsonl", *flags, "--out", out) == EXIT_INPUT_ERROR
        assert list(out.iterdir()) == []

    def test_successful_rerun_replaces_the_tree(self, parsed_out, name):
        command, *flags = STAGED_COMMANDS[name]
        stale = parsed_out / name / "stale.csv"
        stale.parent.mkdir(parents=True)
        stale.write_text("left over\n", encoding="utf-8")
        assert run(command, parsed_out / "corpus.jsonl", *flags, "--out", parsed_out, "--seed", "3") == EXIT_OK
        tree = snapshot(parsed_out / name)
        assert "stale.csv" not in tree
        assert json.loads(tree["manifest.json"])["seed"] == 3
        assert not [p for p in parsed_out.iterdir() if p.name.startswith(".")]


def half_write_json(path, payload):
    # the parse summary is parse's first JSON file; leave it half written
    text = json.dumps(payload)
    path.write_text(text[: len(text) // 2], encoding="utf-8")
    raise OSError("no space left on device")


class TestParseStaging:
    def test_oserror_mid_write_keeps_the_earlier_files(self, tmp_path, fixture_paths, monkeypatch):
        out = tmp_path / "run"
        assert run("parse", fixture_paths[0], "--out", out) == EXIT_OK
        before = snapshot(out)
        assert sorted(before) == ["corpus.jsonl", "manifest.json", "parse_summary.json"]
        monkeypatch.setattr(cli, "_write_json", half_write_json)
        # both parts and another seed: every one of the three files would change
        assert run("parse", *fixture_paths, "--out", out, "--seed", "7") == EXIT_INPUT_ERROR
        assert snapshot(out) == before

    def test_oserror_on_a_first_run_leaves_nothing(self, tmp_path, fixture_paths, monkeypatch):
        monkeypatch.setattr(cli, "_write_json", half_write_json)
        out = tmp_path / "fresh"
        assert run("parse", *fixture_paths, "--out", out) == EXIT_INPUT_ERROR
        assert list(out.iterdir()) == []

    def test_rerun_replaces_the_three_files_and_keeps_the_trees(self, parsed_out, fixture_paths):
        assert run("keywords", parsed_out / "corpus.jsonl", "--out", parsed_out) == EXIT_OK
        keywords = snapshot(parsed_out / "keywords")
        assert run("parse", fixture_paths[0], "--out", parsed_out, "--seed", "3") == EXIT_OK
        assert sorted(p.name for p in parsed_out.iterdir()) == [
            "corpus.jsonl", "keywords", "manifest.json", "parse_summary.json"]
        assert json.loads((parsed_out / "manifest.json").read_text())["seed"] == 3
        assert json.loads((parsed_out / "parse_summary.json").read_text())["files"] == 1
        assert snapshot(parsed_out / "keywords") == keywords


class TestNetworkCommand:
    @pytest.mark.parametrize("kind", ["coauthor", "country", "institution", "research-area", "keyword"])
    def test_outputs_exist_and_parse(self, parsed_out, kind):
        assert run("network", parsed_out / "corpus.jsonl", "--kind", kind,
                   "--out", parsed_out, "--seed", "42") == EXIT_OK
        outdir = parsed_out / f"network_{kind.replace('-', '_')}"
        for name in ("facts.json", "graph.graphml", "graph.dot", "edges.csv", "top_edges.csv",
                     "degree_histogram.csv", "centrality.csv", "centrality.json",
                     "smallworld.json", "powerlaw.json", "assortativity.csv",
                     "assortativity.json", "manifest.json"):
            assert (outdir / name).exists(), name
        nx.read_graphml(outdir / "graph.graphml")
        facts = json.loads((outdir / "facts.json").read_text())
        assert facts["node_count"] >= 1

    def test_graphml_with_a_control_character_reads_back(self, tmp_path):
        # XML 1.0 forbids U+0001 even as a character reference
        export = tmp_path / "export.txt"
        export.write_text("FN Export\nVR 1.0\nPT J\nAF Ctrl\x01Name, Ann; Plain, Bob\n"
                          "TI Control characters\nPY 2020\nER\nEF\n", encoding="utf-8")
        out = tmp_path / "run"
        assert run("parse", export, "--out", out) == EXIT_OK
        assert run("network", out / "corpus.jsonl", "--kind", "coauthor", "--out", out) == EXIT_OK
        path = out / "network_coauthor" / "graph.graphml"
        ids = [node.get("id") for node in ElementTree.parse(path).iter("{http://graphml.graphdrawing.org/xmlns}node")]
        assert ids == ["Ctrl\ufffdName, Ann", "Plain, Bob"]
        assert list(nx.read_graphml(path).edges) == [("Ctrl\ufffdName, Ann", "Plain, Bob")]

    def test_country_facts_match_fixture(self, parsed_out):
        run("network", parsed_out / "corpus.jsonl", "--kind", "country", "--out", parsed_out)
        facts = json.loads((parsed_out / "network_country" / "facts.json").read_text())
        assert facts["self_loop_count"] >= 2
        assert sum(facts["component_sizes_top10"]) <= facts["node_count"]

    def test_power_law_skipped_on_tiny_graph(self, parsed_out):
        run("network", parsed_out / "corpus.jsonl", "--kind", "country", "--out", parsed_out)
        payload = json.loads((parsed_out / "network_country" / "powerlaw.json").read_text())
        assert "skipped" in payload  # fewer than 50 positive-degree nodes

    @pytest.mark.parametrize("connected", [True, False])
    def test_run_builds_each_analysed_graph_once(self, tmp_path, monkeypatch, connected):
        if connected:
            records = [BiblioRecord("J", "Paper", ["Chen, Wei", "Garcia, Maria", "Smith, John"])]
        else:
            records = synthetic_author_pool_records(300, seed=5)
        write_corpus_jsonl(records, tmp_path / "corpus.jsonl")
        builds = []
        build = graphs.WeightedGraph.__post_init__

        def counted(graph):
            builds.append(graph)
            return build(graph)

        monkeypatch.setattr(graphs.WeightedGraph, "__post_init__", counted)
        assert run("network", tmp_path / "corpus.jsonl", "--kind", "coauthor", "--out", tmp_path / "out") == EXIT_OK
        facts = json.loads((tmp_path / "out" / "network_coauthor" / "facts.json").read_text())
        assert (facts["component_count"] == 1) == connected
        # the graph, and its largest component when that is not the graph
        assert len(builds) == (1 if connected else 2)

    @pytest.mark.parametrize("kind", ["coauthor", "country", "institution", "research-area", "keyword"])
    def test_streams_the_corpus(self, parsed_out, monkeypatch, kind):
        forbid_whole_corpus_reads(monkeypatch)
        assert run("network", parsed_out / "corpus.jsonl", "--kind", kind, "--out", parsed_out) == EXIT_OK
        assert (parsed_out / f"network_{kind.replace('-', '_')}" / "manifest.json").exists()

    def test_seed_recorded_in_reports(self, parsed_out):
        run("network", parsed_out / "corpus.jsonl", "--kind", "coauthor",
            "--out", parsed_out, "--seed", "42")
        payload = json.loads((parsed_out / "network_coauthor" / "centrality.json").read_text())
        assert payload["meta"]["seed"] == 42


def coauthor_network(corpus, out, *flags) -> dict:
    """Run `network --kind coauthor` and read its JSON reports by name."""
    assert run("network", corpus, "--kind", "coauthor", "--out", out, *flags) == EXIT_OK
    tree = out / "network_coauthor"
    return {name: json.loads((tree / f"{name}.json").read_text()) for name in ("centrality", "smallworld")}


def without_meta(payload: dict) -> dict:
    return {key: value for key, value in payload.items() if key != "meta"}


class TestPathLengthIsExact:
    """`--sample` and the auto-sample threshold sample betweenness only;
    the path length of `smallworld.json` is always the exact one."""

    @pytest.fixture()
    def corpus(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        # a 450-node largest component, well above the samples below
        write_corpus_jsonl(synthetic_author_pool_records(300, seed=5), corpus)
        return corpus

    @pytest.mark.parametrize("scope", [(), ("--whole-graph",)])
    def test_sample_flag_leaves_path_length_exact(self, corpus, tmp_path, scope):
        exact = coauthor_network(corpus, tmp_path / "exact", *scope)["smallworld"]
        sampled = coauthor_network(corpus, tmp_path / "sampled", "--sample", "50", *scope)["smallworld"]
        assert sampled["meta"]["sample"] == 50
        assert without_meta(sampled) == without_meta(exact)
        assert exact["sampled"] is False

    @pytest.mark.parametrize("scope", [(), ("--whole-graph",)])
    def test_every_run_makes_one_distance_pass(self, corpus, tmp_path, scope, monkeypatch):
        passes = []
        real = graph_stats._distance_sums

        def counted(*args):
            passes.append(args)
            return real(*args)

        monkeypatch.setattr(graph_stats, "_distance_sums", counted)
        for run_index, sample in enumerate(((), ("--sample", "50"))):
            passes.clear()
            coauthor_network(corpus, tmp_path / str(run_index), *scope, *sample)
            assert len(passes) == 1

    def test_auto_sample_branch(self, corpus, tmp_path, monkeypatch):
        exact = coauthor_network(corpus, tmp_path / "exact", "--seed", "3")
        monkeypatch.setattr(cli, "AUTO_SAMPLE_THRESHOLD", 100)
        monkeypatch.setattr(cli, "AUTO_SAMPLE_SIZE", 40)
        reports = coauthor_network(corpus, tmp_path / "auto", "--seed", "3")
        meta = reports["centrality"]["meta"]
        assert meta == {"seed": 3, "sample": 40, "auto_sampled": True}
        graph = graphs.build_graph(graphs.GraphKind.COAUTHOR, iter_corpus_records(corpus))
        largest = graph_stats.largest_component_subgraph(graph)
        expected = graph_stats.betweenness_centrality(largest, 40, 3)
        assert {row["node"]: row["betweenness"] for row in reports["centrality"]["rows"]} == {
            node: cli._sig6(value) for node, value in expected.items()
        }
        smallworld = reports["smallworld"]
        assert smallworld["meta"] == meta
        assert smallworld["sampled"] is False
        assert smallworld["avg_shortest_path"] == cli._sig6(graph_stats.avg_shortest_path(graph))
        assert without_meta(smallworld) == without_meta(exact["smallworld"])


@pytest.mark.parametrize("command", [("stats",), ("network", "--kind", "country"), ("keywords",),
                                     ("dedup-authors",)])
def test_out_path_that_is_not_utf8_is_printed_with_escapes(parsed_out, tmp_path, command):
    name = b"bad_\xff"
    try:
        (tmp_path / os.fsdecode(name)).mkdir()
    except (OSError, UnicodeError):
        pytest.skip("the file system refuses a name that is not UTF-8")
    env = {**os.environ, "PYTHONIOENCODING": "utf-8",
           "PYTHONPATH": os.pathsep.join([str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "biblionet", command[0], str(parsed_out / "corpus.jsonl"), *command[1:],
         "--out", name],
        cwd=tmp_path, env=env, capture_output=True,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert b"Traceback" not in proc.stderr
    assert b"bad_\\xff" in proc.stdout


class TestPowerLawDigest:
    @pytest.fixture()
    def coauthor_corpus(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        write_corpus_jsonl(synthetic_author_pool_records(300, seed=5), corpus)
        return corpus

    @staticmethod
    def digest_and_degrees(corpus, out):
        assert run("network", corpus, "--kind", "coauthor", "--out", out) == EXIT_OK
        tree = out / "network_coauthor"
        powerlaw = json.loads((tree / "powerlaw.json").read_text())
        histogram = [line.split(",") for line in (tree / "degree_histogram.csv").read_text().splitlines()[1:]]
        degrees = [degree for degree, count in histogram if degree != "0" for _ in range(int(count))]
        return powerlaw["sampled_degrees_hash"], degrees

    def test_digest_is_the_sha256_of_the_degree_list(self, coauthor_corpus, tmp_path):
        digest, degrees = self.digest_and_degrees(coauthor_corpus, tmp_path / "out")
        assert len(degrees) >= 50
        assert digest == hashlib.sha256(",".join(degrees).encode()).hexdigest()

    def test_hashlib_fallback_gives_the_same_digest(self, coauthor_corpus, tmp_path, monkeypatch):
        built_in, _ = self.digest_and_degrees(coauthor_corpus, tmp_path / "built_in")
        for name in ("_sha2", "_sha256"):
            monkeypatch.setitem(sys.modules, name, None)  # import raises ImportError
        calls = []
        openssl_sha256 = hashlib.sha256

        def sha256(data):
            calls.append(data)
            return openssl_sha256(data)

        monkeypatch.setattr(hashlib, "sha256", sha256)
        fallback, _ = self.digest_and_degrees(coauthor_corpus, tmp_path / "fallback")
        assert len(calls) == 1
        assert fallback == built_in


class TestKeywordsCommand:
    def test_default_and_override(self, parsed_out):
        assert run("keywords", parsed_out / "corpus.jsonl", "--out", parsed_out) == EXIT_OK
        rows = json.loads((parsed_out / "keywords" / "keyword_frequencies.json").read_text())
        assert 0 < len(rows) <= 100
        assert run("keywords", parsed_out / "corpus.jsonl", "--out", parsed_out, "--n", "5") == EXIT_OK
        rows = json.loads((parsed_out / "keywords" / "keyword_frequencies.json").read_text())
        assert len(rows) == 5

    def test_no_stopword_in_output(self, parsed_out):
        from biblionet.stopwords import DEFAULT_STOPWORDS
        run("keywords", parsed_out / "corpus.jsonl", "--out", parsed_out)
        rows = json.loads((parsed_out / "keywords" / "keyword_frequencies.json").read_text())
        assert not any(row["token"] in DEFAULT_STOPWORDS for row in rows)


    def test_streams_the_corpus(self, parsed_out, monkeypatch):
        corpus = parsed_out / "corpus.jsonl"
        expected = keyword_frequencies(list(iter_corpus_records(corpus)))
        forbid_whole_corpus_reads(monkeypatch)
        assert run("keywords", corpus, "--out", parsed_out) == EXIT_OK
        rows = json.loads((parsed_out / "keywords" / "keyword_frequencies.json").read_text())
        assert [(row["token"], row["count"]) for row in rows] == expected


class TestDedupCommand:
    def test_flags_known_variant_pair(self, parsed_out):
        assert run("dedup-authors", parsed_out / "corpus.jsonl", "--out", parsed_out) == EXIT_OK
        content = (parsed_out / "dedup" / "suspect_pairs.csv").read_text()
        assert '"Rodriguez-Jimenez, P.","Rodriguez-Jimenez, Pedro"' in content

    def test_streams_the_corpus(self, parsed_out, monkeypatch):
        forbid_whole_corpus_reads(monkeypatch)
        assert run("dedup-authors", parsed_out / "corpus.jsonl", "--out", parsed_out) == EXIT_OK
        assert "Rodriguez-Jimenez" in (parsed_out / "dedup" / "suspect_pairs.csv").read_text()

    def test_threshold_flag(self, parsed_out):
        assert run("dedup-authors", parsed_out / "corpus.jsonl", "--out", parsed_out,
                   "--threshold", "0.99") == EXIT_OK
        lines = (parsed_out / "dedup" / "suspect_pairs.csv").read_text().splitlines()
        assert lines == ["name_a,name_b,ratio"]


# config key -> a command that has its flag, the flag, a config value and
# a flag value; path values are file names under the test's directory
CONFIG_ROWS = {
    "out": (("keywords", "corpus.jsonl"), "--out", "from_config", "from_flag"),
    "format": (("parse", "export.txt"), "--format", "tagged", "tab_delimited"),
    "top_k": (("stats", "corpus.jsonl"), "--top-k", 3, 5),
    "fuzzy_threshold": (("dedup-authors", "corpus.jsonl"), "--threshold", 0.9, 0.95),
    "seed": (("network", "corpus.jsonl", "--kind", "country"), "--seed", 7, 9),
    "sample": (("network", "corpus.jsonl", "--kind", "coauthor"), "--sample", 4, 6),
    "stopwords": (("keywords", "corpus.jsonl"), "--stopwords", "a.txt", "b.txt"),
    "rules": (("stats", "corpus.jsonl"), "--rules", "a.json", "b.json"),
}
PATH_KEYS = ("out", "stopwords", "rules")


def resolve(argv, **namespace):
    args = cli.build_parser().parse_args([str(a) for a in argv])
    vars(args).update(namespace)
    return cli.load_config(args)


class TestConfigResolution:
    def test_one_row_per_config_key(self):
        assert CONFIG_ROWS.keys() == cli._FLAGS.keys()

    @pytest.mark.parametrize("key", sorted(CONFIG_ROWS))
    def test_flag_overrides_config_and_empty_flag_sets_nothing(self, tmp_path, monkeypatch, key):
        monkeypatch.delenv(cli.OUT_DIR_ENV, raising=False)
        command, flag, from_config, from_flag = CONFIG_ROWS[key]
        if key in PATH_KEYS:
            from_config, from_flag = str(tmp_path / from_config), str(tmp_path / from_flag)
        if key == "rules":
            for path in (from_config, from_flag):
                Path(path).write_text("{}", encoding="utf-8")
        resolved = Path if key == "out" else (lambda value: value)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: from_config}), encoding="utf-8")
        argv = (*command, "--config", config)
        assert getattr(resolve(argv), key) == resolved(from_config)
        assert getattr(resolve((*argv, flag, from_flag)), key) == resolved(from_flag)
        # argparse passes "" to the path flags only; the rule holds for every flag
        empty = resolve((*argv, flag, "")) if key in PATH_KEYS else resolve(argv, **{cli._FLAGS[key]: ""})
        assert getattr(empty, key) == resolved(from_config)
        if key == "out":
            # the environment sits between the config file and the flag
            monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "from_env"))
            assert resolve(argv).out == tmp_path / "from_env"
            assert resolve((*argv, flag, "")).out == tmp_path / "from_env"
            assert resolve((*argv, flag, from_flag)).out == Path(from_flag)
            monkeypatch.setenv(cli.OUT_DIR_ENV, "")
            assert resolve(argv).out == Path(from_config)

    def test_config_file_applies(self, tmp_path, fixture_paths, parsed_out):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"top_k": 3, "seed": 7}), encoding="utf-8")
        out = tmp_path / "cfg_out"
        assert run("stats", parsed_out / "corpus.jsonl", "--config", config, "--out", out) == EXIT_OK
        rows = json.loads((out / "stats" / "countries.json").read_text())
        assert len(rows) == 3
        manifest = json.loads((out / "stats" / "manifest.json").read_text())
        assert manifest["seed"] == 7 and manifest["top_k"] == 3

    def test_cli_overrides_config(self, tmp_path, parsed_out):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"top_k": 3}), encoding="utf-8")
        out = tmp_path / "cfg_out"
        assert run("stats", parsed_out / "corpus.jsonl", "--config", config,
                   "--out", out, "--top-k", "2") == EXIT_OK
        rows = json.loads((out / "stats" / "countries.json").read_text())
        assert len(rows) == 2

    def test_env_var_overrides_config_out(self, tmp_path, parsed_out, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"out": str(tmp_path / "from_config")}), encoding="utf-8")
        env_out = tmp_path / "from_env"
        monkeypatch.setenv("BIBLIONET_OUT", str(env_out))
        assert run("keywords", parsed_out / "corpus.jsonl", "--config", config) == EXIT_OK
        assert (env_out / "keywords" / "keyword_frequencies.csv").exists()
        assert not (tmp_path / "from_config").exists()

    def test_unknown_config_key_is_config_error(self, tmp_path, parsed_out):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"nope": 1}), encoding="utf-8")
        assert run("stats", parsed_out / "corpus.jsonl", "--config", config,
                   "--out", tmp_path / "o") == EXIT_CONFIG_ERROR

    @pytest.mark.parametrize("flags", [
        ("--sample", "0"), ("--sample", "-3"), ("--top-k", "0"), ("--seed", "-1"),
    ])
    def test_bad_flag_is_config_error_before_any_write(self, tmp_path, parsed_out, flags):
        out = tmp_path / "o"
        assert run("network", parsed_out / "corpus.jsonl", "--kind", "coauthor",
                   "--out", out, *flags) == EXIT_CONFIG_ERROR
        assert not out.exists()

    @pytest.mark.parametrize("values", [
        {"sample": "5"}, {"sample": 0}, {"sample": 2.5}, {"top_k": "5"}, {"top_k": True},
        {"seed": "1"}, {"seed": 1.5}, {"seed": -1}, {"fuzzy_threshold": "0.9"},
        {"out": 5}, {"out": None}, {"out": ""}, {"stopwords": 3}, {"stopwords": True},
        {"out": "o\ud800"}, {"stopwords": "s\udfff"},
        [], ["out"], 123, None,
    ])
    def test_bad_config_value_is_config_error_before_any_write(self, tmp_path, parsed_out, values):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(values), encoding="utf-8")
        out = tmp_path / "o"
        for command in (("network", parsed_out / "corpus.jsonl", "--kind", "coauthor"),
                        ("dedup-authors", parsed_out / "corpus.jsonl")):
            assert run(*command, "--config", config, "--out", out) == EXIT_CONFIG_ERROR
            assert not out.exists()

    def test_bad_threshold_is_config_error(self, tmp_path, parsed_out):
        assert run("dedup-authors", parsed_out / "corpus.jsonl", "--out", tmp_path / "o",
                   "--threshold", "2.0") == EXIT_CONFIG_ERROR

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_bad_keyword_count_is_config_error_before_any_write(self, tmp_path, parsed_out, n):
        out = tmp_path / "o"
        assert run("keywords", parsed_out / "corpus.jsonl", "--out", out, "--n", n) == EXIT_CONFIG_ERROR
        assert not out.exists()

    def test_non_integer_keyword_count_exits_2_before_any_write(self, tmp_path, parsed_out):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            run("keywords", parsed_out / "corpus.jsonl", "--out", out, "--n", "ten")
        assert exc.value.code == EXIT_CONFIG_ERROR
        assert not out.exists()

    @pytest.mark.parametrize("content", [
        "{bad",
        '{"months": {"VEND": 13}}',
        '{"months": {"VEND": 0}}',
        '{"months": {"VEND": "10"}}',
        '{"months": {"VEND": 9.5}}',
        '{"months": {"VEND": true}}',
        '{"months": ["VEND"]}',
        '["months"]',
        '{"seasons": "MON"}',
        '{"country_exact": {"Holland": 1}}',
        '{"month": {"VEND": 10}}',
        '{"country_exact": {"France": "Fr\\ud800"}}',
        '{"seasons": ["\\udc00"]}',
        '{"country_contains": {"": "Atlantis"}}',
        '{"country_contains": {"USA": " "}}',
        '{"country_exact": {"france": ""}}',
        '{"country_exact": {"  ": "France"}}',
    ])
    def test_bad_rules_file_is_config_error_before_any_write(self, tmp_path, parsed_out, content):
        rules = tmp_path / "rules.json"
        rules.write_text(content, encoding="utf-8")
        out = tmp_path / "o"
        for command in (("stats", parsed_out / "corpus.jsonl"),
                        ("parse", parsed_out.parent / "missing.txt")):
            assert run(*command, "--rules", rules, "--out", out) == EXIT_CONFIG_ERROR
            assert not out.exists()

    @pytest.mark.parametrize("make_path", [
        lambda tmp: tmp / "missing.json",
        lambda tmp: tmp,
    ], ids=["missing", "directory"])
    def test_unreadable_rules_file_is_config_error_before_any_write(self, tmp_path, parsed_out, make_path):
        out = tmp_path / "o"
        assert run("stats", parsed_out / "corpus.jsonl", "--rules", make_path(tmp_path),
                   "--out", out) == EXIT_CONFIG_ERROR
        assert not out.exists()

    def test_non_string_rules_config_value_is_config_error(self, tmp_path, parsed_out):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"rules": 3}), encoding="utf-8")
        out = tmp_path / "o"
        assert run("stats", parsed_out / "corpus.jsonl", "--config", config, "--out", out) == EXIT_CONFIG_ERROR
        assert not out.exists()


def test_custom_rules_flow_through(tmp_path, fixture_paths):
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"country_exact": {"Hungary": "Magyarorszag"}}), encoding="utf-8")
    out = tmp_path / "out"
    assert run("parse", *fixture_paths, "--out", out, "--rules", rules) == EXIT_OK
    assert run("stats", out / "corpus.jsonl", "--out", out, "--rules", rules, "--top-k", "30") == EXIT_OK
    rows = json.loads((out / "stats" / "countries.json").read_text())
    values = {row["value"] for row in rows}
    assert "Magyarorszag" in values and "Hungary" not in values


class TestNonUtf8Input:
    """Bytes that are not UTF-8 end in a one-line message and no output."""

    def assert_rejected(self, capsys, out, code, argv):
        assert run(*argv, "--out", out) == code
        message = capsys.readouterr().err
        assert message.count("\n") == 1 and "utf-8" in message.lower()
        assert not out.exists()
        return message

    def test_latin1_export(self, tmp_path, capsys):
        export = tmp_path / "latin1.txt"
        export.write_bytes(b"PT J\nAF Sm\xe9th, J\nTI A title\nER\nEF\n")
        message = self.assert_rejected(capsys, tmp_path / "o", EXIT_INPUT_ERROR, ("parse", export))
        assert str(export) in message

    def test_corpus(self, tmp_path, parsed_out, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes((parsed_out / "corpus.jsonl").read_bytes() + b'{"title": "\xff"}\n')
        message = self.assert_rejected(capsys, tmp_path / "o", EXIT_INPUT_ERROR, ("stats", corpus))
        assert f"{corpus}:21:" in message

    def test_config(self, tmp_path, parsed_out, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"seed": 1\xff}')
        self.assert_rejected(capsys, tmp_path / "o", EXIT_CONFIG_ERROR,
                             ("stats", parsed_out / "corpus.jsonl", "--config", config))

    def test_stopwords(self, tmp_path, parsed_out, capsys):
        stopwords = tmp_path / "stopwords.txt"
        stopwords.write_bytes(b"the\n\xffand\n")
        message = self.assert_rejected(capsys, tmp_path / "o", EXIT_INPUT_ERROR,
                                       ("keywords", parsed_out / "corpus.jsonl", "--stopwords", stopwords))
        assert str(stopwords) in message


# each corpus command, and the tree it writes under --out
CORPUS_COMMANDS = {
    "stats": (("stats",), "stats"),
    "keywords": (("keywords",), "keywords"),
    "dedup-authors": (("dedup-authors",), "dedup"),
    **{f"network-{kind}": (("network", "--kind", kind), f"network_{kind.replace('-', '_')}")
       for kind in ("coauthor", "country", "institution", "research-area", "keyword")},
}


class TestMistypedCorpus:
    """A corpus line whose field holds the wrong JSON type or a lone
    surrogate ends in a one-line message naming the line, exit 1 and no
    output tree."""

    @pytest.mark.parametrize("field, value, reason", [
        ("author_full_names", "Smith, John", "author_full_names must be "),
        ("times_cited", 2.5, "times_cited must be "),
        ("title", 7, "title must be "),
        # json.dumps writes the escape \ud800, which json.loads reads back as a lone surrogate
        ("title", "T\ud800", "'utf-8' codec can't encode character '\\ud800'"),
    ], ids=["author_full_names-Smith, John", "times_cited-2.5", "title-7", "title-lone-surrogate"])
    @pytest.mark.parametrize("command", CORPUS_COMMANDS)
    def test_rejected_before_any_write(self, tmp_path, parsed_out, capsys, command, field, value, reason):
        lines = (parsed_out / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
        lines[4] = json.dumps({**json.loads(lines[4]), field: value}, sort_keys=True)
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv, tree = CORPUS_COMMANDS[command]
        out = tmp_path / "o"
        assert run(argv[0], corpus, *argv[1:], "--out", out) == EXIT_INPUT_ERROR
        message = capsys.readouterr().err
        assert message.startswith(f"input error: {corpus}:5: bad corpus record: {reason}")
        assert message.count("\n") == 1
        assert not (out / tree).exists()
        assert not out.exists()
