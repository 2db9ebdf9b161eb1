"""Correctness gate applied to every command the benchmark runs.

A command passes when it exits 0, when the digest of its output tree
equals the reference recorded for this workload and seed (or, for a
seed without a recorded reference, the digest of the same command in
the first cycle of the run), when the counts in its outputs match the
generator's ground truth, and when every suspect pair it reports
scores at or above the threshold under this module's own Levenshtein.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("reference_digests.json")
DEDUP_THRESHOLD = 0.8


def tree_digest(root: Path) -> str:
    """SHA-256 over the sorted (relative path, file SHA-256) pairs under `root`."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).hexdigest().encode())
        digest.update(b"\n")
    return digest.hexdigest()


def load_reference(workload: str, seed: int) -> dict[str, str] | None:
    """Per-command output digests recorded for this workload and seed, if any."""
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance by the full-matrix recurrence."""
    rows = [[i + j if i * j == 0 else 0 for j in range(len(b) + 1)] for i in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            rows[i][j] = min(rows[i - 1][j] + 1, rows[i][j - 1] + 1,
                             rows[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
    return rows[len(a)][len(b)]


def check_parse(out: Path, truth: dict) -> list[str]:
    summary = json.loads((out / "parse_summary.json").read_text(encoding="utf-8"))
    return [
        f"parse_summary.json {key} = {summary[key]}, ground truth {truth[key]}"
        for key in ("records_parsed", "records_skipped", "duplicates_removed", "corpus_size", "dated_view_size")
        if summary[key] != truth[key]
    ]


def check_coauthor(out: Path, truth: dict) -> list[str]:
    network = out / "network_coauthor"
    facts = json.loads((network / "facts.json").read_text(encoding="utf-8"))
    with open(network / "edges.csv", encoding="utf-8", newline="") as fh:
        weight_sum = sum(int(row["weight"]) for row in csv.DictReader(fh))
    found = {"coauthor_nodes": facts["node_count"], "coauthor_edges": facts["edge_count"],
             "coauthor_weight_sum": weight_sum}
    return [f"coauthor graph {key} = {value}, ground truth {truth[key]}"
            for key, value in found.items() if value != truth[key]]


def check_suspect_pairs(out: Path, threshold: float = DEDUP_THRESHOLD) -> list[str]:
    problems = []
    with open(out / "dedup" / "suspect_pairs.csv", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            a, b = row["name_a"], row["name_b"]
            total = len(a) + len(b)
            ratio = (total - edit_distance(a, b)) / total
            if ratio < threshold or row["ratio"] != f"{ratio:.6f}":
                problems.append(f"suspect pair {a!r} / {b!r} reported {row['ratio']}, re-scored {ratio:.6f}")
    return problems


def check_command(subcommand: str, out: Path, truth: dict) -> list[str]:
    """Content checks of one command's output tree against the ground truth."""
    if subcommand == "parse":
        return check_parse(out, truth)
    if subcommand == "dedup-authors":
        return check_suspect_pairs(out)
    if (out / "network_coauthor").is_dir():
        return check_coauthor(out, truth)
    return []


def label(command: tuple[str, ...]) -> str:
    """Name of a command in reports and in the reference file."""
    return " ".join(command)


class Gate:
    """Checks each command's outputs; digests come from the reference or the first cycle."""

    def __init__(self, truth: dict, reference: dict[str, str] | None) -> None:
        self.truth = truth
        self.expected = dict(reference or {})
        self.source = "recorded reference" if reference else "first cycle of this run"

    def check(self, command: tuple[str, ...], out: Path) -> tuple[list[str], str]:
        """Problems found in the output tree `out` of `command`, and its digest."""
        digest = tree_digest(out)
        try:
            problems = check_command(command[0], out, self.truth)
        except (OSError, ValueError, KeyError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        expected = self.expected.setdefault(label(command), digest)
        if digest != expected:
            problems.append(f"output digest {digest[:12]} differs from the {self.source} {expected[:12]}")
        return problems, digest
