"""Record the output digests that the correctness gate compares against.

    python3 perfbench/record_reference.py FIRST_SEED LAST_SEED

Run from the root of a checkout of the commit whose outputs define the
reference (the byte-identical output contract says later commits must
reproduce them). For every workload and every seed in the inclusive
range it generates the inputs, runs one cycle of the workload's
commands through the content checks of the gate, and merges the
per-command digests into reference_digests.json.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import gate
import run
from generate import generate


def record(workload_name: str, seed: int, root: Path) -> dict[str, str]:
    workload = run.WORKLOADS[workload_name]
    work = root / ".perfbench_work" / f"reference-{workload_name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs, truth = generate(workload.corpus, seed, work / "inputs")
        checker = gate.Gate(truth.as_dict(), None)
        results = run.run_cycle(workload, {None: work / "cycle0"}, inputs, run.program_env(root), checker)[None]
        problems = [f"{r.label}: {p}" for r in results for p in r.problems]
        if problems:
            raise RuntimeError(f"{workload_name} seed {seed} fails the gate: {problems}")
        return {r.label: r.digest for r in results}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str]) -> int:
    first, last = int(argv[0]), int(argv[1])
    root = Path.cwd()
    subprocess.run([sys.executable, "-c", "import biblionet.cli"], env=run.program_env(root), check=True)
    for seed in range(first, last + 1):
        for name in run.WORKLOADS:
            digests = record(name, seed, root)
            with open(gate.REFERENCE_FILE, encoding="utf-8") as fh:
                reference = json.load(fh)
            reference.setdefault(name, {})[str(seed)] = digests
            with open(gate.REFERENCE_FILE, "w", encoding="utf-8") as fh:
                json.dump(reference, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"{name} seed {seed}: {len(digests)} commands recorded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
