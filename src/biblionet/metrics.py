"""Bibliometric indices, collaboration ratios, ranking tables, monthly
time series, and the six-variable correlation matrix."""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass

from .errors import DegenerateDataError
from .normalize import ExtractionMode, NormalizationRules, YearMonth, extract_countries, extract_institutions
from .wos_ingest import BiblioRecord, Corpus


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


def author_citation_vectors(corpus: Corpus) -> dict[str, list[int]]:
    """Per-author citation counts, one entry per paper.

    Every listed author receives the paper's full citation count; a
    paper with no usable citation count contributes 0.
    """
    vectors: dict[str, list[int]] = {}
    for record in corpus.records:
        for name in record.distinct_authors():
            vectors.setdefault(name, []).append(record.times_cited)
    return vectors


def author_table(corpus: Corpus, k: int = 10) -> list[AuthorRow]:
    """Top-k authors by total citations, with h and g indices.

    Ties on the total break by name ascending.
    """
    rows = []
    for name, vector in author_citation_vectors(corpus).items():
        total = sum(vector)
        rows.append(AuthorRow(
            name=name,
            total_cited=total,
            papers=len(vector),
            cited_per_paper=total / len(vector),
            h=h_index(vector),
            g=g_index(vector),
        ))
    rows.sort(key=lambda row: (-row.total_cited, row.name))
    return rows[:k]


def degree_of_collaboration(corpus: Corpus) -> float:
    """Fraction of authored papers written by two or more authors."""
    authored = 0
    collaborated = 0
    for record in corpus.records:
        n = len(record.distinct_authors())
        if n >= 1:
            authored += 1
        if n >= 2:
            collaborated += 1
    if authored == 0:
        raise DegenerateDataError("corpus has no authored papers")
    return collaborated / authored


def international_collab_ratio(corpus: Corpus, rules: NormalizationRules | None = None) -> float:
    """Fraction of papers involving two or more countries."""
    with_countries = 0
    international = 0
    for record in corpus.records:
        countries = extract_countries(record.addresses, ExtractionMode.UNIQUE, rules)
        if countries:
            with_countries += 1
        if len(countries) >= 2:
            international += 1
    if with_countries == 0:
        raise DegenerateDataError("corpus has no papers with country data")
    return international / with_countries


def multidisciplinary_ratio(corpus: Corpus) -> float:
    """Fraction of papers tagged with two or more research areas."""
    with_areas = 0
    multi = 0
    for record in corpus.records:
        areas = set(record.research_areas)
        if areas:
            with_areas += 1
        if len(areas) >= 2:
            multi += 1
    if with_areas == 0:
        raise DegenerateDataError("corpus has no papers with research areas")
    return multi / with_areas


def pearson(x: list[float], y: list[float]) -> float:
    """Population Pearson correlation cov(x, y) / (sigma_x sigma_y)."""
    if len(x) != len(y):
        raise ValueError("inputs must have equal length")
    if len(x) < 2:
        raise DegenerateDataError("need at least two observations")
    import numpy as np
    ax = np.asarray(x, dtype=float)
    ay = np.asarray(y, dtype=float)
    dx = ax - ax.mean()
    dy = ay - ay.mean()
    sx = float(np.sqrt(np.mean(dx * dx)))
    sy = float(np.sqrt(np.mean(dy * dy)))
    if sx == 0.0 or sy == 0.0:
        raise DegenerateDataError("zero variance makes the correlation undefined")
    r = float(np.mean(dx * dy) / (sx * sy))
    # rounding can carry r just past +-1, e.g. when a product such as
    # 1e-158 * 1e-158 underflows into the subnormal range; clip as
    # numpy.corrcoef does
    return min(1.0, max(-1.0, r))


CORRELATION_VARIABLES = ("authors", "cited_refs", "times_cited", "research_areas", "countries", "pages")


@dataclass(frozen=True)
class CorrelationMatrix:
    variables: tuple[str, ...]
    entries: tuple[tuple[float, ...], ...]

    def value(self, a: str, b: str) -> float:
        return self.entries[self.variables.index(a)][self.variables.index(b)]


def _correlation_row(record: BiblioRecord, rules: NormalizationRules | None) -> tuple[float, ...] | None:
    authors = len(record.distinct_authors())
    areas = len(set(record.research_areas))
    countries = len(extract_countries(record.addresses, ExtractionMode.UNIQUE, rules))
    # listwise deletion: every variable must be observed
    if authors == 0 or areas == 0 or countries == 0 or record.page_count is None:
        return None
    return (
        float(authors),
        float(record.cited_reference_count),
        float(record.times_cited),
        float(areas),
        float(countries),
        float(record.page_count),
    )


def correlation_matrix(corpus: Corpus, rules: NormalizationRules | None = None) -> CorrelationMatrix:
    """Pairwise Pearson correlations of the six per-paper variables.

    Rows with any missing variable (no authors, no research areas, no
    countries, or no page count) are dropped first.
    """
    rows = [row for record in corpus.records if (row := _correlation_row(record, rules)) is not None]
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


def _record_groups(record: BiblioRecord, group_by: str, rules: NormalizationRules | None) -> list[str]:
    if group_by == "all":
        return ["ALL"]
    if group_by == "country":
        return extract_countries(record.addresses, ExtractionMode.UNIQUE, rules)
    if group_by == "source":
        return [record.source_abbrev] if record.source_abbrev else []
    if group_by == "research_area":
        return list(dict.fromkeys(record.research_areas))
    raise ValueError(f"unknown group_by {group_by!r}")


def monthly_counts(
    corpus: Corpus,
    group_by: str = "all",
    keys: list[str] | None = None,
    rules: NormalizationRules | None = None,
) -> list[MonthlySeries]:
    """Publication counts per month from the dated view.

    A paper counts once in every group it belongs to.  When `keys` is
    given the output is restricted to (and ordered by) those keys;
    otherwise all keys are returned in ascending order.
    """
    if not corpus.dated_view:
        raise DegenerateDataError("corpus has no dated records")
    table: dict[str, Counter] = {}
    for record, ym in corpus.dated_records():
        for group in _record_groups(record, group_by, rules):
            table.setdefault(group, Counter())[ym] += 1
    if keys is None:
        selected = sorted(table)
    else:
        selected = keys
    return [MonthlySeries(key=key, points=dict(sorted(table.get(key, Counter()).items()))) for key in selected]


def top_k(counts: dict[str, int], k: int) -> list[tuple[str, int]]:
    """First k entries by count descending, ties lexicographic ascending."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:k]


def most_cited(corpus: Corpus, k: int = 10) -> list[tuple[str, str, int, tuple[str, ...]]]:
    """Top-k papers by citations: (title, authors, cited, research areas)."""
    rows = []
    for record in corpus.records:
        authors = record.distinct_authors()
        if not authors:
            label = ""
        elif len(authors) == 1:
            label = authors[0]
        else:
            label = f"{authors[0]} et al."
        rows.append((record.title, label, record.times_cited, tuple(record.research_areas)))
    rows.sort(key=lambda row: (-row[2], row[0]))
    return rows[:max(k, 0)]


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
    counts = [len(record.distinct_authors()) for record in corpus.records]
    return [n for n in counts if n > 0]


def field_counts(corpus: Corpus, field: str, rules: NormalizationRules | None = None) -> Counter:
    """Occurrence counts of one categorical field across the corpus.

    Multi-valued fields (countries, institutions, research areas,
    keywords) count once per record.  Document types keep only the
    leading category, so "Article; Early Access" counts as "Article".
    """
    known = ("publication_type", "document_type", "language", "source",
             "country", "institution", "research_area", "keyword")
    if field not in known:
        raise ValueError(f"unknown field {field!r}")
    counts: Counter = Counter()
    for record in corpus.records:
        if field == "publication_type":
            counts[record.publication_type] += 1
        elif field == "document_type":
            if record.document_type:
                counts[record.document_type.split(";")[0].strip()] += 1
        elif field == "language":
            if record.language:
                counts[record.language] += 1
        elif field == "source":
            if record.source_abbrev:
                counts[record.source_abbrev] += 1
        elif field == "country":
            counts.update(extract_countries(record.addresses, ExtractionMode.UNIQUE, rules))
        elif field == "institution":
            counts.update(extract_institutions(record.addresses, ExtractionMode.UNIQUE))
        elif field == "research_area":
            counts.update(dict.fromkeys(record.research_areas).keys())
        elif field == "keyword":
            counts.update(dict.fromkeys(record.author_keywords).keys())
    return counts
