"""Tests of the benchmark's own parts: generator, tracer arithmetic and coverage, gate.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from generate import CorpusSpec, generate  # noqa: E402

from biblionet import cli  # noqa: E402

SMALL = CorpusSpec(records=300, new_author_prob=0.55, authors_per_paper=(1, 2, 2, 3, 3),
                   institutions=20, keyword_vocabulary=60, untitled_share=0.01)


def _parse(tmp_path: Path, seed: int = 5) -> tuple[Path, dict]:
    paths, truth = generate(SMALL, seed, tmp_path / "inputs")
    out = tmp_path / "out0"
    assert cli.main(["parse", *map(str, paths), "--out", str(out)]) == 0
    return out, truth.as_dict()


def test_same_seed_same_files_other_seed_other_files(tmp_path):
    first, truth_a = generate(SMALL, 7, tmp_path / "a")
    again, truth_b = generate(SMALL, 7, tmp_path / "b")
    other, _ = generate(SMALL, 8, tmp_path / "c")
    assert [p.read_bytes() for p in first] == [p.read_bytes() for p in again]
    assert truth_a == truth_b
    assert all(p.read_bytes() != q.read_bytes() for p, q in zip(first, other))


def test_exports_exercise_the_cleaning_rules(tmp_path):
    paths, truth = generate(SMALL, 3, tmp_path)
    text = "".join(p.read_text(encoding="utf-8") for p in paths)
    for token in ("NJ 08540 USA", "Scotland", "Wales", "England", "North Ireland", "Peoples R China",
                  "Viet Nam", "SEP 10", "Sept.", "SEP-DEC", "FAL", "[anonymous]"):
        assert token in text, token
    assert truth.duplicates_removed > 0 and truth.records_skipped > 0
    assert 0 < truth.dated_view_size < truth.corpus_size


def test_self_times_of_nested_spans():
    # root 0..100 with children 10..30 and 40..90; the second has a child 50..60
    spans = [(0, 0, 100, -1), (1, 10, 30, 0), (1, 40, 90, 0), (2, 50, 60, 2)]
    assert tracer.self_times(spans) == [30, 20, 40, 10]
    profile = tracer.command_profile({"names": ["cli.main", "graphs.a", "graph_stats.b"], "spans": spans})
    assert profile["layer_ns"] == {"cli": 30, "graphs": 60, "graph_stats": 10}
    assert sum(profile["layer_ns"].values()) == profile["root_ns"] == 100


def test_self_times_clip_overlapping_children():
    spans = [(0, 0, 100, -1), (1, 10, 50, 0), (1, 40, 120, 0)]
    assert tracer.self_times(spans)[0] == 10


def test_tracer_counts_connected_components_per_network_run(tmp_path):
    out, truth = _parse(tmp_path)
    trace = tracer.Tracer()
    trace.install()
    try:
        code = cli.main(["network", str(out / "corpus.jsonl"), "--kind", "coauthor", "--out", str(tmp_path / "net")])
    finally:
        trace.uninstall()
    assert code == 0
    dump = trace.dump("test")
    profile = tracer.command_profile(dump)
    assert profile["calls"]["graphs.connected_components"] == 6
    assert profile["calls"]["cli.main"] == 1
    assert sum(profile["layer_ns"].values()) == profile["root_ns"]
    assert dump["counts"]["graphs.nodes"] == truth["coauthor_nodes"]
    assert dump["counts"]["graph_stats.bfs_sources"] > 0
    assert len(dump["written"]) == 3
    from biblionet import graph_stats, graphs
    assert graph_stats.connected_components is graphs.connected_components
    assert not hasattr(graphs.connected_components, "__wrapped__")


def test_gate_passes_clean_outputs_and_flags_tampered_ones(tmp_path):
    out, truth = _parse(tmp_path)
    checker = gate.Gate(truth, None)
    problems, digest = checker.check(("parse",), out)
    assert problems == []
    with open(out / "corpus.jsonl", "ab") as fh:
        fh.write(b"\n")
    problems, tampered = checker.check(("parse",), out)
    assert tampered != digest
    assert any("digest" in p for p in problems)

    summary = json.loads((out / "parse_summary.json").read_text(encoding="utf-8"))
    summary["corpus_size"] += 1
    (out / "parse_summary.json").write_text(json.dumps(summary), encoding="utf-8")
    assert any("corpus_size" in p for p in gate.check_parse(out, truth))


def test_gate_rescores_suspect_pairs(tmp_path):
    (tmp_path / "dedup").mkdir()
    pairs = tmp_path / "dedup" / "suspect_pairs.csv"
    pairs.write_text('name_a,name_b,ratio\n"Smith, J. A.","Smith, John A",0.840000\n', encoding="utf-8")
    assert gate.check_suspect_pairs(tmp_path) == []
    pairs.write_text('name_a,name_b,ratio\n"Kalo, Maria B","Zhuren, Olga",0.900000\n', encoding="utf-8")
    assert gate.check_suspect_pairs(tmp_path) != []


@pytest.mark.parametrize("a,b", [("", ""), ("kitten", "sitting"), ("Smith, J. A.", "Smith, John A"), ("abc", "")])
def test_edit_distance_matches_biblionet(a, b):
    from biblionet.dedup import levenshtein
    assert gate.edit_distance(a, b) == levenshtein(a, b)


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.unit_of(name) for name in run.per_layer_metric_names()}
