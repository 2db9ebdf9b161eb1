"""Benchmark of the biblionet CLI on seeded Web of Science exports.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a biblionet checkout; the program is taken from
`src/` there. Set-up generates the workload's export files and ground
truth from the seed; it is timed again after every cycle. The run drives
the real CLI, one command at a time in a fresh `python -m biblionet`
subprocess, and repeats the workload's command list while a further
cycle still fits in S seconds. This is a closed loop with one client:
each command starts when the previous one has exited.

With `--trace 0` each command is timed from spawn to exit and its peak
RSS is read from its own `wait4` rusage; the last line printed is the
end-to-end result. With `--trace 1` each command instead runs twice
in-process (`inproc.py`), once plain and once with the outside-in
tracer, and the last line holds the per-layer metrics and the tracing
overhead. Every command of either mode passes through the correctness
gate (`gate.py`); the exit code is 1 when any command fails it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import gate
import tracer
from generate import CorpusSpec, GroundTruth, generate

HERE = Path(__file__).resolve().parent
COMMAND_TIMEOUT_S = 120

# ~3k records: parse and stats still outweigh interpreter start-up,
# and a cycle of every command is short enough to repeat four to seven
# times in one run, which run-to-run steadiness needs on a host whose
# speed drifts; 300 institutions and ~500 keywords keep each dense
# co-occurrence graph at a second or two of exact analytics
TABLES = CorpusSpec(records=3000, new_author_prob=0.6, authors_per_paper=(1, 2, 2, 3, 3, 4, 5, 6),
                    institutions=300, keyword_vocabulary=500)
# ~1.5k records whose co-authorship graph is sparse (mean degree ~3)
# with many small components and a largest component of ~1.2k nodes,
# below the CLI's 20,000-node auto-sample threshold, so exact
# betweenness, closeness and path length all run
SPARSE = CorpusSpec(records=1500, new_author_prob=0.55, authors_per_paper=(1, 2, 2, 3, 3),
                    institutions=80, keyword_vocabulary=300)


@dataclass(frozen=True)
class Workload:
    corpus: CorpusSpec
    commands: tuple[tuple[str, ...], ...]   # subcommand and its flags; parse comes first
    why: str


# Every workload runs every subcommand once per cycle, so that each
# end-to-end metric is measured on each workload; the commands a
# workload is about carry its weight.
WORKLOADS = {
    "corpus_tables": Workload(TABLES, (
        ("parse",), ("stats",), ("keywords",), ("dedup-authors", "--sample", "150"),
        ("network", "--kind", "research-area"),
    ), "ingest, cleaning, tables, keywords and dedup on a 3k-record export; graphs only on a 40-node area graph"),
    "coauthor_sparse": Workload(SPARSE, (
        ("parse",), ("network", "--kind", "coauthor"), ("stats",), ("keywords",),
        ("dedup-authors", "--sample", "80"),
    ), "exact BFS traversals dominate: a sparse co-authorship graph of many small components and a ~1.2k-node largest one"),
    "cooccurrence_dense": Workload(TABLES, (
        ("parse",), ("network", "--kind", "country"), ("network", "--kind", "institution"),
        ("network", "--kind", "research-area"), ("network", "--kind", "keyword"),
        ("stats",), ("keywords",), ("dedup-authors", "--sample", "50"),
    ), "four few-node, high-degree co-occurrence graphs with self-loops, built by extracting every record's addresses"),
}

COMMAND_METRICS = {"parse": "parse_s", "stats": "stats_s", "keywords": "keywords_s",
                   "network": "network_s", "dedup-authors": "dedup_s"}
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", **{m: "s" for m in COMMAND_METRICS.values()},
                    "peak_rss_mib": "MiB"}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("ns_per_arc"):
        return "ns"
    if metric.endswith("bytes_read") or metric.endswith("bytes_written"):
        return "bytes"
    if metric.endswith("_ratio") or metric.endswith("_per_record"):
        return "ratio"
    return "count"


def per_layer_metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a stable order."""
    names = [*tracer.SELF_TIME_METRICS, *(f"{layer}.self_s" for layer in tracer.LAYERS),
             *tracer.CALL_COUNT_METRICS, *tracer.OBSERVED_COUNTS,
             "normalize.address_extractions_per_record", "dedup.hit_ratio", "graph_stats.ns_per_arc",
             "cli.import_s", "cli.files_written", "cli.bytes_written",
             "trace.command_s", "trace.traced_command_s", "trace.overhead_s"]
    return sorted(dict.fromkeys(names))


# ---------------------------------------------------------------------------
# running one command

def program_env(root: Path) -> dict[str, str]:
    env = {key: value for key, value in os.environ.items() if key != "BIBLIONET_OUT"}
    env["PYTHONPATH"] = str(root / "src")
    return env


def spawn(argv: list[str], cwd: Path, env: dict[str, str], log: Path) -> tuple[int, float, float]:
    """Run argv to completion; exit code, wall seconds and the child's own peak RSS in MiB."""
    with open(log, "wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return code, wall, usage.ru_maxrss / 1024.0


def command_argv(command: tuple[str, ...], index: int, inputs: list[Path]) -> list[str]:
    """CLI arguments, relative to the cycle directory, so outputs never name the checkout."""
    if command[0] == "parse":
        return ["parse", *(f"../inputs/{path.name}" for path in inputs), *command[1:], "--out", "out0"]
    return [command[0], "out0/corpus.jsonl", *command[1:], "--out", f"out{index}"]


@dataclass
class CommandResult:
    label: str
    metric: str
    wall_s: float
    rss_mib: float
    problems: list[str]
    digest: str | None = None
    run: dict | None = None          # inproc.py result, for in-process runs


def run_cycle(workload: Workload, dirs: dict[str | None, Path], inputs: list[Path], env: dict[str, str],
              checker: gate.Gate) -> dict[str | None, list[CommandResult]]:
    """One pass over the workload's commands, once per mode, each mode in its own directory.

    Mode None spawns `python -m biblionet`; "plain" and "traced" spawn
    inproc.py, which runs `cli.main` in-process. Modes take turns on
    each command, so that a drift in machine speed hits them alike.
    """
    for cycle in dirs.values():
        cycle.mkdir(parents=True)
    results: dict[str | None, list[CommandResult]] = {mode: [] for mode in dirs}
    for index, command in enumerate(workload.commands):
        argv = command_argv(command, index, inputs)
        for mode, cycle in dirs.items():
            result_file = cycle / f"inproc{index}.json"
            if mode is None:
                prefix = [sys.executable, "-m", "biblionet"]
            else:
                prefix = [sys.executable, str(HERE / "inproc.py"), str(result_file), mode,
                          f"{cycle.name}/{index}", "--"]
            code, wall, rss = spawn(prefix + argv, cycle, env, cycle / f"log{index}.txt")
            result = CommandResult(gate.label(command), COMMAND_METRICS[command[0]], wall, rss, [])
            if mode is not None and code == 0:
                result.run = json.loads(result_file.read_text(encoding="utf-8"))
                code = result.run["code"]
            if code != 0:
                tail = (cycle / f"log{index}.txt").read_text(encoding="utf-8", errors="replace")[-400:]
                result.problems.append(f"exit code {code}: {tail}")
            else:
                result.problems, result.digest = checker.check(command, cycle / argv[-1])
            results[mode].append(result)
    return results


# ---------------------------------------------------------------------------
# set-up, measurement and trace

def setup(workload: Workload, seed: int, work: Path) -> tuple[list[Path], GroundTruth, float]:
    """Generate the inputs and ground truth into `work/inputs`; also return the time taken."""
    started = time.perf_counter()
    paths, truth = generate(workload.corpus, seed, work / "inputs")
    return paths, truth, time.perf_counter() - started


def repeat_setup(workload: Workload, seed: int, work: Path, paths: list[Path], truth: GroundTruth) -> float:
    """Time set-up once more; the repeat must reproduce the inputs and truth byte for byte.

    Repeats run between cycles, so that their median spans the same
    stretch of machine time as the command medians.
    """
    paths_again, truth_again, elapsed = setup(workload, seed, work / "repeat")
    if truth_again != truth or any(a.read_bytes() != b.read_bytes() for a, b in zip(paths, paths_again)):
        raise RuntimeError(f"generator is not deterministic for seed {seed}")
    shutil.rmtree(work / "repeat")
    return elapsed


def measure(seconds: float, run) -> None:
    """Call run(cycle_index) while another cycle still fits in `seconds`; at least once.

    `run` returns the cycle's command results; a failed command ends the run.
    """
    started = time.perf_counter()
    cycles = 0
    longest = 0.0
    while True:
        cycle_started = time.perf_counter()
        results = run(cycles)
        cycles += 1
        longest = max(longest, time.perf_counter() - cycle_started)
        if any(r.problems for r in results) or time.perf_counter() - started + longest > seconds:
            return


def end_to_end(cycles: list[list[CommandResult]], setup_times: list[float]) -> dict[str, list[float]]:
    series: dict[str, list[float]] = {"setup_s": setup_times, "wall_s": [], "peak_rss_mib": []}
    for results in cycles:
        sums: dict[str, float] = {}
        for result in results:
            sums[result.metric] = sums.get(result.metric, 0.0) + result.wall_s
        for metric, value in sums.items():
            series.setdefault(metric, []).append(value)
        series["wall_s"].append(sum(r.wall_s for r in results))
        series["peak_rss_mib"].append(max(r.rss_mib for r in results))
    return series


def files_outside(out: Path, written: list[str]) -> tuple[int, int]:
    """Files and bytes under `out` that no layer writer produced."""
    skip = set(written)
    files = [p for p in out.rglob("*") if p.is_file() and str(p.resolve()) not in skip]
    return len(files), sum(p.stat().st_size for p in files)


def trace_pass(plain: list[CommandResult], traced: list[CommandResult], cycle: Path,
               truth: dict) -> dict[str, float]:
    profiles = []
    counts: dict[str, int] = {}
    files = size = 0
    for index, result in enumerate(traced):
        dump = result.run["trace"]
        profile = tracer.command_profile(dump)
        layers_ns = sum(profile["layer_ns"].values())
        main_ns = result.run["main_ns"]
        if abs(layers_ns - main_ns) > 1_000_000 + main_ns // 200:
            result.problems.append(
                f"layer self times add up to {layers_ns / 1e9:.6f}s, command took {main_ns / 1e9:.6f}s")
        profiles.append(profile)
        for key, value in dump["counts"].items():
            counts[key] = counts.get(key, 0) + value
        n_files, n_bytes = files_outside((cycle / f"out{index}").resolve(), dump["written"])
        files += n_files
        size += n_bytes
    import_s = statistics.median(r.run["import_s"] for r in plain)
    metrics = tracer.layer_metrics(profiles, counts, truth["corpus_size"], files, size, import_s)
    plain_s = sum(r.run["main_ns"] for r in plain) / 1e9
    traced_s = sum(r.run["main_ns"] for r in traced) / 1e9
    metrics["trace.command_s"] = plain_s
    metrics["trace.traced_command_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - plain_s
    return metrics


def median_report(series: dict[str, list[float]], units: dict[str, str]) -> dict:
    report = {}
    for name in sorted(series):
        values = series[name]
        report[name] = {"value": statistics.median(values), "unit": units[name]}
        print(f"{name:48s} {statistics.median(values):14.6f} {units[name]:6s} "
              f"(median of {len(values)}; min {min(values):.6f}, max {max(values):.6f})")
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "biblionet" / "cli.py").is_file():
        print(f"no biblionet sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = program_env(root)
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        inputs, truth, setup_s = setup(workload, args.seed, work)
        # compile the package once so no cycle pays for bytecode caching
        subprocess.run([sys.executable, "-c", "import biblionet.cli"], env=env, check=True, timeout=COMMAND_TIMEOUT_S)
        reference = gate.load_reference(args.workload, args.seed)
        checker = gate.Gate(truth.as_dict(), reference)
        print(f"workload {args.workload} seed {args.seed}: {len(workload.commands)} commands per cycle; "
              f"digests checked against the {checker.source}")

        results: list[CommandResult] = []
        series: dict[str, list[float]] = {}
        if args.trace == 0:
            cycles = []
            setup_times = [setup_s]

            def cycle(k):
                cycles.append(run_cycle(workload, {None: work / f"cycle{k}"}, inputs, env, checker)[None])
                shutil.rmtree(work / f"cycle{k}")
                setup_times.append(repeat_setup(workload, args.seed, work, inputs, truth))
                results.extend(cycles[-1])
                return cycles[-1]

            measure(args.seconds, cycle)
            series = end_to_end(cycles, setup_times)
            units = END_TO_END_UNITS
        else:
            def traced_cycle(k):
                dirs = {"plain": work / f"cycle{k}-plain", "traced": work / f"cycle{k}-traced"}
                both = run_cycle(workload, dirs, inputs, env, checker)
                plain, traced = both["plain"], both["traced"]
                if not any(r.problems for r in plain + traced):
                    for name, value in trace_pass(plain, traced, dirs["traced"], truth.as_dict()).items():
                        series.setdefault(name, []).append(value)
                for path in dirs.values():
                    shutil.rmtree(path)
                results.extend(plain + traced)
                return plain + traced

            measure(args.seconds, traced_cycle)
            units = {name: unit_of(name) for name in series}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    report = median_report(series, units)
    failed = [r for r in results if r.problems]
    for result in failed:
        print(f"FAILED {result.label}: {'; '.join(result.problems)}", file=sys.stderr)
    print(f"{'failed_ratio':48s} {len(failed) / len(results):14.6f} ratio  "
          f"({len(failed)} of {len(results)} commands)")
    print(json.dumps({"correct": not failed, "attempted": len(results), "failed": len(failed),
                      "metrics": report}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
