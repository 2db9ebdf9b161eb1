"""Import footprint: numpy loads only on the code paths that use it, no
command loads scipy, and `network` leaves `numpy.ma` unloaded.

Each case runs in a fresh interpreter, because this test process has
already imported numpy and scipy through other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from biblionet.wos_ingest import write_corpus_jsonl
from oracles import synthetic_author_pool_corpus

SRC = Path(__file__).resolve().parents[1] / "src"
LAYERS = ("wos_ingest", "normalize", "metrics", "keywords", "dedup", "graphs", "graph_stats", "cli")


def modules_after(script: str) -> set[str]:
    """Top-level names of the modules loaded once `script` has run."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    code = f"{script}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                            timeout=120, check=True)
    return set(json.loads(result.stdout.splitlines()[-1]))


def run_cli(*argv) -> str:
    return f"import biblionet.cli as cli\nassert cli.main({[str(a) for a in argv]!r}) == 0"


def test_importing_cli_loads_every_layer_but_neither_numpy_nor_scipy():
    loaded = modules_after("import biblionet.cli")
    assert {f"biblionet.{layer}" for layer in LAYERS} <= loaded
    assert "numpy" not in loaded
    assert "scipy" not in loaded


def test_parse_stats_keywords_and_dedup_leave_numpy_unloaded(tmp_path, fixture_paths):
    out = tmp_path / "out"
    corpus = out / "corpus.jsonl"
    loaded = modules_after("\n".join([
        run_cli("parse", *fixture_paths, "--out", out),
        run_cli("stats", corpus, "--out", out),
        run_cli("keywords", corpus, "--out", out),
        run_cli("dedup-authors", corpus, "--out", out),
    ]))
    assert (out / "stats" / "correlation_matrix.csv").exists()
    assert (out / "keywords" / "keyword_frequencies.csv").exists()
    assert (out / "dedup" / "suspect_pairs.csv").exists()
    assert "numpy" not in loaded


def test_network_without_power_law_fit_leaves_scipy_unloaded(tmp_path, fixture_paths):
    out = tmp_path / "out"
    corpus = out / "corpus.jsonl"
    loaded = modules_after("\n".join([
        run_cli("parse", *fixture_paths, "--out", out),
        run_cli("network", corpus, "--kind", "research-area", "--out", out),
    ]))
    facts = json.loads((out / "network_research_area" / "facts.json").read_text())
    powerlaw = json.loads((out / "network_research_area" / "powerlaw.json").read_text())
    assert facts["node_count"] < 50
    assert "skipped" in powerlaw
    assert "numpy" in loaded
    assert "scipy" not in loaded


def test_network_with_power_law_fit_leaves_scipy_unloaded(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(synthetic_author_pool_corpus(300, seed=5), corpus)
    out = tmp_path / "out"
    loaded = modules_after(run_cli("network", corpus, "--kind", "coauthor", "--out", out))
    powerlaw = json.loads((out / "network_coauthor" / "powerlaw.json").read_text())
    assert "skipped" not in powerlaw
    assert powerlaw["n_tail"] >= 1
    assert "numpy" in loaded
    assert "scipy" not in loaded
    # np.union1d and a flagless np.unique would import it, ~15 ms
    assert "numpy.ma" not in loaded
