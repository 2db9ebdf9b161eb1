"""Fuzzy detection of near-duplicate author names.

Flags suspicious name pairs for human review; nothing is ever merged or
rewritten automatically.  The pair search is exact: a length window and
a bag-distance lower bound skip only pairs that cannot reach the
threshold, and every other pair is scored once with Myers' bit-parallel
edit distance, so the result is the one a full DP on every pair gives.
"""

from __future__ import annotations

import csv
import random
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

DEFAULT_THRESHOLD = 0.8


def levenshtein(a: str, b: str) -> int:
    """Edit distance with unit insert/delete/substitute costs.

    Myers' bit-parallel algorithm (JACM 1999) in Hyyrö's form for the
    global distance.  The DP runs column by column over the longer
    string; bit i of pv (mv) is set where D[i+1][j] - D[i][j] is +1
    (-1) in column j, over the m characters of the shorter string, so a
    column costs a few int operations whatever m is.  D[m][n] is n plus
    the last column's deltas.  Python ints have no width, so pv alone is
    masked to m bits: `~` sets every bit above them and the shift sets
    bit m.  The high bits of ph, mh and xh reach pv only through that
    mask, and mv only through `& xv`, which has none.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    peq: dict[str, int] = {}
    bit = 1
    for ch in b:
        peq[ch] = peq.get(ch, 0) | bit
        bit <<= 1
    mask = bit - 1
    pv, mv = mask, 0  # column 0 is 0, 1, ..., m
    for ch in a:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        ph = ph << 1 | 1  # row 0 rises by 1 in every column
        pv = (mh << 1 | ~(xv | ph)) & mask
        mv = ph & xv
    return len(a) + pv.bit_count() - mv.bit_count()


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


def _bags(names: list[str]) -> list[int]:
    """The character multiset of each name as the bits of one int.

    Each character owns a lane of bits as wide as its largest count in
    any one name, and the k-th copy of it sets bit k of its lane, so
    `(bag_a & bag_b).bit_count()` is the size of the multiset
    intersection.
    """
    counts = [Counter(name) for name in names]
    widest = Counter()
    for count in counts:
        widest |= count  # each character's largest count
    lane = dict(zip(widest, accumulate(widest.values(), initial=0)))
    return [sum(((1 << k) - 1) << lane[ch] for ch, k in count.items()) for count in counts]


def find_suspect_pairs(names: list[str], threshold: float = DEFAULT_THRESHOLD) -> list[SuspectPair]:
    """All unordered name pairs with similarity >= threshold.

    Sorted by ratio descending, then lexicographically.  Two lower
    bounds d <= lev(a, b) skip the pairs that cannot reach the
    threshold.  Each is tested as (total - d) / total, the float
    expression `similarity_ratio` evaluates with lev in place of d;
    correctly rounded division is monotone, so that value is never below
    the pair's ratio and no pair that reaches the threshold is skipped:

    * the length difference ||a| - |b||, so with the names in length
      order the scan for partners of a stops at the first one whose
      length difference alone misses the threshold;
    * the bag distance max(|a|, |b|) - |A & B| over character
      multisets (Bartolini, Ciaccia & Patella, SPIRE 2002).

    Each remaining pair is scored once by `similarity_ratio`.  The
    result equals comparing every pair with `similarity_ratio`.
    """
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold must lie in (0, 1], got {threshold}")
    unique = sorted(dict.fromkeys(name for name in names if name), key=len)
    bags = _bags(unique)
    pairs = []
    for i, a in enumerate(unique):
        bag_a = bags[i]
        for j in range(i + 1, len(unique)):
            b = unique[j]
            total = len(a) + len(b)
            if (total - (len(b) - len(a))) / total < threshold:
                break
            if (total - (len(b) - (bag_a & bags[j]).bit_count())) / total < threshold:
                continue
            ratio = similarity_ratio(a, b)
            if ratio >= threshold:
                pairs.append(SuspectPair(min(a, b), max(a, b), ratio))
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
