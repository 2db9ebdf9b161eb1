"""Bibliometric indices, collaboration ratios, ranking tables, monthly
time series, and the six-variable correlation matrix.

The correlations are pure Python: every mean sums in NumPy's pairwise
order (Higham, SIAM J. Sci. Comput. 1993), the order its `add.reduce`
uses for contiguous float64, so they equal the same formula on NumPy
arrays bit for bit without loading NumPy.
"""

from __future__ import annotations

import heapq
import math
import statistics
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import add
from typing import Sequence

from .errors import DegenerateDataError
from .normalize import YearMonth
from .wos_ingest import Corpus


def h_index(citations: list[int]) -> int:
    """Largest h such that h papers each have at least h citations."""
    ranked = sorted(citations, reverse=True)
    h = 0
    for i, cited in enumerate(ranked, start=1):
        if cited >= i:
            h = i
        else:
            break
    return h


def g_index(citations: list[int]) -> int:
    """Largest g with g^2 <= citations of the top g papers.

    Capped at the paper count, so a single highly cited paper yields
    g = 1; always >= h_index for the same vector.
    """
    ranked = sorted(citations, reverse=True)
    total = 0
    g = 0
    for i, cited in enumerate(ranked, start=1):
        total += cited
        if i * i <= total:
            g = i
    return g


@dataclass(frozen=True)
class AuthorRow:
    name: str
    total_cited: int
    papers: int
    cited_per_paper: float
    h: int
    g: int


def author_table(corpus: Corpus, k: int = 10) -> list[AuthorRow]:
    """Top-k authors by total citations, with h and g indices.

    Every listed author receives the paper's full citation count; a
    paper with no usable citation count contributes 0.  Ties on the
    total break by name ascending, as `top_k` ranks.
    """
    totals: dict[str, int] = {}
    for cited, authors in zip(corpus.times_cited, corpus.authors):
        for name in authors:
            totals[name] = totals.get(name, 0) + cited
    # rank first, so that only the kept authors' citation vectors are gathered for h and g
    vectors = {name: [] for name, _ in top_k(totals, k)}
    for cited, authors in zip(corpus.times_cited, corpus.authors):
        for name in authors:
            if name in vectors:
                vectors[name].append(cited)
    return [AuthorRow(name, totals[name], len(vector), totals[name] / len(vector), h_index(vector), g_index(vector))
            for name, vector in vectors.items()]


def _two_or_more_ratio(column: list[list[str]], degenerate: str) -> float:
    """Fraction of the records with some value that have two or more."""
    sizes = [len(values) for values in column]
    present = sum(1 for n in sizes if n)
    if present == 0:
        raise DegenerateDataError(degenerate)
    return sum(1 for n in sizes if n >= 2) / present


def degree_of_collaboration(corpus: Corpus) -> float:
    """Fraction of authored papers written by two or more authors."""
    return _two_or_more_ratio(corpus.authors, "corpus has no authored papers")


def international_collab_ratio(corpus: Corpus) -> float:
    """Fraction of papers involving two or more countries."""
    return _two_or_more_ratio(corpus.countries, "corpus has no papers with country data")


def multidisciplinary_ratio(corpus: Corpus) -> float:
    """Fraction of papers tagged with two or more research areas."""
    return _two_or_more_ratio(corpus.research_areas, "corpus has no papers with research areas")


def _pairwise_sum(values: list[float], start: int, n: int) -> float:
    """Sum of values[start:start + n] in NumPy's pairwise order for
    contiguous float64: under 8 values a plain loop; up to 128, eight
    strided partial sums combined as a balanced tree, then the rest;
    beyond that the two halves, split at a multiple of 8."""
    if n < 8:
        total = 0.0
        for value in values[start:start + n]:
            total += value
        return total
    if n <= 128:
        stop = start + n - n % 8
        r = [reduce(add, values[start + j:stop:8]) for j in range(8)]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for value in values[stop:start + n]:
            total += value
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values, start, half) + _pairwise_sum(values, start + half, n - half)


def _mean(values: list[float]) -> float:
    """The mean as NumPy's `mean` rounds it: the pairwise sum added to
    the +0.0 identity of `add.reduce` (so a sum of -0.0 is 0.0), over n."""
    return (0.0 + _pairwise_sum(values, 0, len(values))) / len(values)


def _centred(values: list[float]) -> list[float]:
    # corrected two-pass centering: when the rounded mean is off, the
    # deviations carry that error, and their own mean removes it
    mean = _mean(values)
    deviations = [value - mean for value in values]
    mean = _mean(deviations)
    return [value - mean for value in deviations]


def pearson(x: list[float], y: list[float]) -> float:
    """Population Pearson correlation cov(x, y) / (sigma_x sigma_y).

    Two-pass centring, then the square roots of the two variances.
    Every mean sums in NumPy's pairwise order (see `_pairwise_sum`), so
    the result is bit-identical to the same formula on float64 arrays
    with NumPy's `mean`.
    """
    if len(x) != len(y):
        raise ValueError("inputs must have equal length")
    if len(x) < 2:
        raise DegenerateDataError("need at least two observations")
    dx = _centred([float(value) for value in x])
    dy = _centred([float(value) for value in y])
    sx = math.sqrt(_mean([d * d for d in dx]))
    sy = math.sqrt(_mean([d * d for d in dy]))
    if sx == 0.0 or sy == 0.0:
        raise DegenerateDataError("zero variance makes the correlation undefined")
    # a nonzero sx or sy is at least sqrt(5e-324), so their product
    # cannot round to zero, and Python divides as NumPy does
    r = _mean([a * b for a, b in zip(dx, dy)]) / (sx * sy)
    # rounding can carry r just past +-1, e.g. when a product such as
    # 1e-158 * 1e-158 underflows into the subnormal range; clip as
    # NumPy's corrcoef does
    return min(1.0, max(-1.0, r))


CORRELATION_VARIABLES = ("authors", "cited_refs", "times_cited", "research_areas", "countries", "pages")


@dataclass(frozen=True)
class CorrelationMatrix:
    variables: tuple[str, ...]
    entries: tuple[tuple[float, ...], ...]

    def value(self, a: str, b: str) -> float:
        return self.entries[self.variables.index(a)][self.variables.index(b)]


def correlation_matrix(corpus: Corpus) -> CorrelationMatrix:
    """Pairwise Pearson correlations of the six per-paper variables.

    Rows with any missing variable (no authors, no research areas, no
    countries, or no page count) are dropped first.
    """
    rows = [
        (float(len(authors)), float(references), float(cited), float(len(areas)), float(len(countries)), float(pages))
        for authors, references, cited, areas, countries, pages in zip(
            corpus.authors, corpus.cited_reference_counts, corpus.times_cited,
            corpus.research_areas, corpus.countries, corpus.page_counts)
        # listwise deletion: every variable must be observed
        if authors and areas and countries and pages is not None
    ]
    if len(rows) < 2:
        raise DegenerateDataError(f"need at least 2 complete rows, found {len(rows)}")
    columns = list(zip(*rows))
    size = len(CORRELATION_VARIABLES)
    entries = [[1.0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            rho = pearson(list(columns[i]), list(columns[j]))
            entries[i][j] = rho
            entries[j][i] = rho
    return CorrelationMatrix(
        variables=CORRELATION_VARIABLES,
        entries=tuple(tuple(row) for row in entries),
    )


@dataclass(frozen=True)
class MonthlySeries:
    key: str
    points: dict[YearMonth, int]


# field -> the corpus column of its values, each value once per record
_FIELD_COLUMNS = {"publication_type": "publication_types", "document_type": "document_types",
                  "language": "languages", "source": "sources", "country": "countries",
                  "institution": "institutions", "research_area": "research_areas", "keyword": "keywords"}


def _field_column(corpus: Corpus, field: str) -> list[Sequence[str]]:
    if field not in _FIELD_COLUMNS:
        raise ValueError(f"unknown field {field!r}")
    return getattr(corpus, _FIELD_COLUMNS[field])


def monthly_counts(corpus: Corpus, group_by: str = "all", keys: list[str] | None = None) -> list[MonthlySeries]:
    """Publication counts per month from the dated view.

    `group_by` is "all" or any `field_counts` field.  A paper counts
    once in every group it belongs to.  When `keys` is given the output
    is restricted to (and ordered by) those keys; otherwise all keys are
    returned in ascending order.
    """
    groups = None if group_by == "all" else _field_column(corpus, group_by)
    if not corpus.dated_view:
        raise DegenerateDataError("corpus has no dated records")
    table: dict[str, Counter] = {}
    for index, ym in corpus.dated_view.items():
        for group in ("ALL",) if groups is None else groups[index]:
            counts = table.get(group)
            if counts is None:
                counts = table[group] = Counter()
            counts[ym] += 1
    if keys is None:
        selected = sorted(table)
    else:
        selected = keys
    return [MonthlySeries(key=key, points=dict(sorted(table.get(key, Counter()).items()))) for key in selected]


def top_k(counts: dict[str, int], k: int) -> list[tuple[str, int]]:
    """First k entries by count descending, ties lexicographic ascending."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    # equal to sorted(...)[:k], without sorting the entries past the k-th
    return heapq.nsmallest(k, counts.items(), key=lambda item: (-item[1], item[0]))


def most_cited(corpus: Corpus, k: int = 10) -> list[tuple[str, str, int, tuple[str, ...]]]:
    """Top-k papers by citations, ties by title: (title, authors, cited,
    research areas as exported, repeats kept)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    titles, cited = corpus.titles, corpus.times_cited
    rows = []
    for index in heapq.nsmallest(k, range(len(titles)), key=lambda i: (-cited[i], titles[i])):
        authors = corpus.authors[index]
        label = "" if not authors else authors[0] if len(authors) == 1 else f"{authors[0]} et al."
        rows.append((titles[index], label, cited[index], tuple(corpus.research_area_multisets[index])))
    return rows


@dataclass(frozen=True)
class DescriptiveStats:
    minimum: float
    maximum: float
    mean: float
    median: float
    mode: float


def descriptive_stats(values: list[float]) -> DescriptiveStats:
    """Min, max, mean, median, mode; mode ties break to the smallest value."""
    if not values:
        raise DegenerateDataError("no values to summarize")
    counts = Counter(values)
    best = max(counts.values())
    mode = min(value for value, count in counts.items() if count == best)
    return DescriptiveStats(
        minimum=min(values),
        maximum=max(values),
        mean=sum(values) / len(values),
        median=statistics.median(values),
        mode=mode,
    )


def authors_per_paper(corpus: Corpus) -> list[int]:
    """Author counts of papers with at least one (cleaned) author."""
    return [len(authors) for authors in corpus.authors if authors]


def field_counts(corpus: Corpus, field: str) -> Counter:
    """Occurrence counts of one categorical field across the corpus.

    Multi-valued fields (countries, institutions, research areas,
    keywords) count once per record.  Document types keep only the
    leading category, so "Article; Early Access" counts as "Article".
    """
    return Counter(chain.from_iterable(_field_column(corpus, field)))
