"""Import footprint: numpy loads only on the code paths that use it, no
command loads scipy or OpenSSL (`_hashlib`: `network` takes its power-law
digest from CPython's built-in SHA-256), and `network` leaves `numpy.ma`
unloaded and, since no kernel calls BLAS, starts no OpenBLAS worker
threads.

Each case runs in a fresh interpreter, because this test process has
already imported numpy and scipy through other tests.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from biblionet.wos_ingest import write_corpus_jsonl
from oracles import synthetic_author_pool_records

SRC = Path(__file__).resolve().parents[1] / "src"
LAYERS = ("wos_ingest", "normalize", "metrics", "keywords", "dedup", "graphs", "graph_stats", "cli")
BLAS_NAMES = {"dot", "matmul", "vdot", "inner", "tensordot", "einsum", "linalg"}


def report_after(script: str, expression: str, **env_overrides: str):
    """The JSON value of `expression` once `script` has run in a fresh
    interpreter, whose environment lacks OPENBLAS_NUM_THREADS (an
    in-process `cli.main` call may have set it here) unless given."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env.update(env_overrides)
    code = f"{script}\nimport json, os, sys\nprint(json.dumps({expression}))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                            timeout=120, check=True)
    return json.loads(result.stdout.splitlines()[-1])


def modules_after(script: str) -> set[str]:
    """Top-level names of the modules loaded once `script` has run."""
    return set(report_after(script, "sorted(sys.modules)"))


def run_cli(*argv) -> str:
    return f"import biblionet.cli as cli\nassert cli.main({[str(a) for a in argv]!r}) == 0"


def test_importing_cli_loads_every_layer_but_neither_numpy_nor_scipy():
    """The benchmark's tracer needs every layer loaded by `import biblionet.cli`:
    `Tracer.install` (perfbench/tracer.py:227) reads each one from `sys.modules`
    right after that import, so a layer imported lazily per command would make
    every `--trace 1` run fail. Do not loosen this test to import layers lazily."""
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
    assert "_hashlib" not in loaded


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
    write_corpus_jsonl(synthetic_author_pool_records(300, seed=5), corpus)
    out = tmp_path / "out"
    loaded = modules_after(run_cli("network", corpus, "--kind", "coauthor", "--out", out))
    powerlaw = json.loads((out / "network_coauthor" / "powerlaw.json").read_text())
    assert "skipped" not in powerlaw
    assert powerlaw["n_tail"] >= 1
    assert "numpy" in loaded
    assert "_hashlib" not in loaded
    assert "scipy" not in loaded
    # np.union1d and a flagless np.unique would import it, ~15 ms
    assert "numpy.ma" not in loaded


def test_no_kernel_calls_blas():
    """The CLI's one-thread OpenBLAS default costs nothing only while no
    code in the package reaches BLAS."""
    found = []
    for path in sorted((SRC / "biblionet").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.alias):
                names = set(node.name.split("."))
            elif isinstance(node, ast.ImportFrom):
                names = set((node.module or "").split("."))
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                names = {"@"}
            else:
                continue
            found.extend(f"{path.name}:{getattr(node, 'lineno', '-')}: {name}"
                         for name in sorted(names & (BLAS_NAMES | {"@"})))
    assert found == []


def test_network_runs_with_one_blas_thread_unless_the_caller_sets_one(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(synthetic_author_pool_records(300, seed=5), corpus)
    # the thread count is read only where /proc/self/task exists (Linux)
    probe = ("[os.environ.get('OPENBLAS_NUM_THREADS'), "
             "len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None]")
    trees = {}
    for preset in (None, "2"):
        out = tmp_path / f"out_{preset}"
        script = run_cli("network", corpus, "--kind", "coauthor", "--out", out)
        env = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
        setting, threads = report_after(script, probe, **env)
        assert setting == (preset or "1")
        if preset is None and threads is not None:
            assert threads == 1
        tree = out / "network_coauthor"
        trees[preset] = {p.relative_to(tree): p.read_bytes() for p in sorted(tree.rglob("*")) if p.is_file()}
    assert trees[None] == trees["2"]
    assert len(trees[None]) == 13
