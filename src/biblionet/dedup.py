"""Fuzzy detection of near-duplicate author names.

Flags suspicious name pairs for human review; nothing is ever merged or
rewritten automatically.  The pair search is exact: a length window, a
bag-distance lower bound and an edit distance that stops at the edit
budget skip only pairs that cannot reach the threshold, so the result
is the one a full DP on every pair gives.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_THRESHOLD = 0.8


def _bounded_levenshtein(a: str, b: str, bound: int) -> int:
    """Edit distance of a and b, or bound + 1 once it is known to exceed bound.

    The minimum of a DP row never falls in later rows, so the DP stops as
    soon as a row's minimum exceeds the bound (Ukkonen 1985).
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if len(a) - len(b) > bound:
        return bound + 1
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        diag, left = i - 1, i
        for j, cb in enumerate(b, start=1):
            # inline comparisons run about 3x faster than min() here
            up = previous[j]
            cost = diag if ca == cb else diag + 1   # match or substitute
            if up + 1 < cost:                       # delete from a
                cost = up + 1
            if left + 1 < cost:                     # insert into a
                cost = left + 1
            current.append(cost)
            diag, left = up, cost
        if min(current) > bound:
            return bound + 1
        previous = current
    return min(previous[-1], bound + 1)


def levenshtein(a: str, b: str) -> int:
    """Edit distance with unit insert/delete/substitute costs."""
    return _bounded_levenshtein(a, b, len(a) + len(b))


def similarity_ratio(a: str, b: str) -> float:
    """Normalized similarity (|a| + |b| - lev) / (|a| + |b|), in [0, 1]."""
    total = len(a) + len(b)
    if total == 0:
        raise ValueError("similarity of two empty strings is undefined")
    return (total - levenshtein(a, b)) / total


@dataclass(frozen=True)
class SuspectPair:
    """A name pair scoring at or above the report threshold."""

    name_a: str
    name_b: str
    ratio: float

    def __post_init__(self) -> None:
        if not self.name_a < self.name_b:
            raise ValueError("pair must be in canonical (lexicographic) order")


def _bag(name: str) -> frozenset[tuple[str, int]]:
    """The characters of a name as a set, the k-th copy of a character as (char, k)."""
    seen: dict[str, int] = {}
    items = []
    for ch in name:
        k = seen.get(ch, 0)
        seen[ch] = k + 1
        items.append((ch, k))
    return frozenset(items)


def find_suspect_pairs(names: list[str], threshold: float = DEFAULT_THRESHOLD) -> list[SuspectPair]:
    """All unordered name pairs with similarity >= threshold.

    Sorted by ratio descending, then lexicographically.  A pair reaches
    the threshold exactly when lev(a, b) is at most the edit budget of
    |a| + |b|, and three exact filters skip the pairs that cannot:

    * a length window: lev(a, b) >= ||a| - |b||, so with the names in
      length order the scan for partners of a stops at the first one
      whose length difference alone misses the threshold;
    * the bag distance max(|a|, |b|) - |A & B| over character
      multisets, a lower bound on lev (Bartolini, Ciaccia & Patella,
      SPIRE 2002);
    * an edit distance that gives up once a DP row exceeds the budget.

    The result equals comparing every pair with `similarity_ratio`.
    """
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold must lie in (0, 1], got {threshold}")
    unique = sorted(dict.fromkeys(name for name in names if name), key=len)
    bags = [_bag(name) for name in unique]
    budgets: dict[int, int] = {}
    pairs = []
    for i, a in enumerate(unique):
        bag_a = bags[i]
        for j in range(i + 1, len(unique)):
            b = unique[j]
            total = len(a) + len(b)
            if (total - (len(b) - len(a))) / total < threshold:
                break
            budget = budgets.get(total)
            if budget is None:
                # the largest d with (total - d) / total >= threshold, by the
                # same float expression as similarity_ratio; a closed form
                # such as int((1 - threshold) * total) can round one below it
                budget = total
                while (total - budget) / total < threshold:
                    budget -= 1
                budgets[total] = budget
            if len(b) - len(bag_a & bags[j]) > budget:
                continue
            if _bounded_levenshtein(a, b, budget) > budget:
                continue
            pairs.append(SuspectPair(min(a, b), max(a, b), similarity_ratio(a, b)))
    pairs.sort(key=lambda p: (-p.ratio, p.name_a, p.name_b))
    return pairs


def sample_names(names: list[str], size: int, seed: int) -> list[str]:
    """Seeded uniform sample (without replacement) of a name list."""
    unique = sorted(dict.fromkeys(names))
    if size >= len(unique):
        return unique
    return sorted(random.Random(seed).sample(unique, size))


def write_suspect_pairs_csv(pairs: list[SuspectPair], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["name_a", "name_b", "ratio"])
        for pair in pairs:
            writer.writerow([pair.name_a, pair.name_b, f"{pair.ratio:.6f}"])
