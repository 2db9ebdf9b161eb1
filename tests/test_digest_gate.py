"""The benchmark's correctness gate in the test suite: every command of
each benchmark workload, run in process on the exports of seed 0, gives
the output tree whose digest `perfbench/reference_digests.json` records,
with counts that match the generator's ground truth; and one traced
cycle of `perfbench/run.py` passes that gate and its layer-sum bound."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import gate  # noqa: E402
import run  # noqa: E402
from generate import generate  # noqa: E402

from biblionet import cli  # noqa: E402


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_command_passes_the_gate(workload, tmp_path, monkeypatch):
    spec = run.WORKLOADS[workload]
    inputs, truth = generate(spec.corpus, 0, tmp_path / "inputs")
    reference = gate.load_reference(workload, 0)
    assert reference is not None
    checker = gate.Gate(truth.as_dict(), reference)
    # the commands name their files relative to a cycle directory next to
    # inputs/, as the benchmark runs them: parse_summary.json names its inputs
    cycle = tmp_path / "cycle"
    cycle.mkdir()
    monkeypatch.chdir(cycle)
    for index, command in enumerate(spec.commands):
        argv = run.command_argv(command, index, inputs)
        assert cli.main(argv) == cli.EXIT_OK, argv
        problems, _ = checker.check(command, cycle / argv[-1])
        assert problems == [], (gate.label(command), problems)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_benchmark_cycle_passes(workload, tmp_path):
    # run.py takes the program from ./src and works under ./.perfbench_work,
    # so a root whose src links to this checkout's keeps the checkout clean
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # the traced pass ran and reported, not just the plain one
    assert "trace.overhead_s" in json.loads(proc.stdout.splitlines()[-1])["metrics"]
