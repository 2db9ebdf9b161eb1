import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from biblionet import metrics
from biblionet.errors import DegenerateDataError
from biblionet.metrics import (
    _mean,
    author_table,
    authors_per_paper,
    correlation_matrix,
    degree_of_collaboration,
    descriptive_stats,
    field_counts,
    g_index,
    h_index,
    international_collab_ratio,
    monthly_counts,
    most_cited,
    multidisciplinary_ratio,
    pearson,
    top_k,
)
from biblionet.normalize import YearMonth
from biblionet.wos_ingest import BiblioRecord, Corpus, parse_export
from oracles import (
    RECORD_FIELD_VALUES,
    brute_g_index,
    brute_h_index,
    every_row_author_table,
    numpy_pearson,
    random_corpus,
    random_records,
    record_correlation_rows,
    record_field_counts,
    record_monthly_counts,
    sorted_most_cited,
    varied_records,
)

citation_vectors = st.lists(st.integers(min_value=0, max_value=10_000), max_size=50)


def record(**kwargs) -> BiblioRecord:
    base = dict(publication_type="J", title=f"T{random.random()}")
    base.update(kwargs)
    return BiblioRecord(**base)


def corpus_of(*records) -> Corpus:
    return Corpus.from_records(list(records))


class TestHIndex:
    @pytest.mark.parametrize("vector,expected", [
        ([10, 8, 5, 4, 3], 4),
        ([], 0),
        ([1, 1, 1], 1),
        ([0, 0], 0),
    ])
    def test_known(self, vector, expected):
        assert h_index(vector) == expected
        assert brute_h_index(vector) == expected

    @given(citation_vectors)
    def test_against_oracle(self, vector):
        assert h_index(vector) == brute_h_index(vector)

    @given(citation_vectors)
    def test_upper_bound(self, vector):
        limit = min(len(vector), max(vector, default=0))
        assert h_index(vector) <= limit


class TestGIndex:
    @pytest.mark.parametrize("vector,expected", [
        ([10, 8, 5, 4, 3], 5),
        ([], 0),
        ([100], 1),   # capped at the paper count
        ([0, 0, 0], 0),
    ])
    def test_known(self, vector, expected):
        assert g_index(vector) == expected
        assert brute_g_index(vector) == expected

    @given(citation_vectors)
    def test_against_oracle(self, vector):
        assert g_index(vector) == brute_g_index(vector)

    @given(citation_vectors)
    def test_g_at_least_h(self, vector):
        assert g_index(vector) >= h_index(vector)

    @given(citation_vectors, st.randoms())
    def test_permutation_invariance(self, vector, rng):
        shuffled = list(vector)
        rng.shuffle(shuffled)
        assert g_index(shuffled) == g_index(vector)
        assert h_index(shuffled) == h_index(vector)

    @given(citation_vectors)
    def test_appending_zero(self, vector):
        assert h_index(vector + [0]) == h_index(vector)
        assert g_index(vector + [0]) >= g_index(vector)


class TestAuthorTable:
    def test_single_author_two_papers(self):
        corpus = corpus_of(
            record(author_full_names=["Solo, A"], times_cited=3),
            record(author_full_names=["Solo, A"], times_cited=1),
        )
        rows = author_table(corpus, 5)
        assert len(rows) == 1
        row = rows[0]
        assert (row.total_cited, row.papers, row.cited_per_paper) == (4, 2, 2.0)
        assert (row.h, row.g) == (1, 2)

    def test_empty_corpus(self):
        assert author_table(corpus_of(), 5) == []

    def test_tie_broken_lexicographically(self):
        corpus = corpus_of(
            record(author_full_names=["Zed, Z"], times_cited=7),
            record(author_full_names=["Abel, A"], times_cited=7),
        )
        assert [r.name for r in author_table(corpus, 5)] == ["Abel, A", "Zed, Z"]

    def test_full_credit_to_every_coauthor(self):
        corpus = corpus_of(record(author_full_names=["A, X", "B, Y"], times_cited=10))
        rows = author_table(corpus, 5)
        assert [r.total_cited for r in rows] == [10, 10]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_equals_a_row_for_every_author_then_cut(self, seed):
        records = random_records(seed, n_records=80)
        corpus = Corpus.from_records(records)
        for k in (1, 10, 1000):
            assert author_table(corpus, k) == every_row_author_table(records, k)

    @pytest.mark.parametrize("k", [0, -1, -5])
    def test_k_below_one_is_an_error(self, k):
        # a slice by -1 would drop the last row instead
        with pytest.raises(ValueError, match="k must be >= 1"):
            author_table(random_corpus(1, n_records=20), k)


class TestCollaborationRatios:
    def test_three_multi_one_solo(self):
        corpus = corpus_of(
            record(author_full_names=["A, A", "B, B"]),
            record(author_full_names=["C, C", "D, D"]),
            record(author_full_names=["E, E", "F, F", "G, G"]),
            record(author_full_names=["H, H"]),
        )
        assert degree_of_collaboration(corpus) == 0.75

    def test_all_solo_and_all_multi(self):
        solo = corpus_of(*(record(author_full_names=[f"S{i}, X"]) for i in range(3)))
        multi = corpus_of(*(record(author_full_names=[f"A{i}, X", f"B{i}, Y"]) for i in range(3)))
        assert degree_of_collaboration(solo) == 0.0
        assert degree_of_collaboration(multi) == 1.0

    def test_no_authored_papers_is_error(self):
        corpus = corpus_of(record(author_full_names=["[anonymous]"]))
        with pytest.raises(DegenerateDataError):
            degree_of_collaboration(corpus)

    def test_collaboration_plus_solo_is_one(self):
        rng = random.Random(3)
        records = [record(author_full_names=[f"A{i}{j}, X" for j in range(rng.randint(1, 4))])
                   for i in range(20)]
        corpus = corpus_of(*records)
        solo = sum(1 for r in records if len(r.distinct_authors()) == 1) / len(records)
        assert degree_of_collaboration(corpus) + solo == pytest.approx(1.0)

    def test_international_ratio(self):
        seg = "[A] Inst, Dept, City, {}."
        corpus = corpus_of(
            record(addresses=seg.format("Italy") + "; " + seg.format("France")),
            record(addresses=seg.format("Italy")),
            record(addresses=seg.format("Japan")),
            record(addresses=seg.format("Brazil")),
        )
        assert international_collab_ratio(corpus) == 0.25

    def test_international_counts_unique_countries(self):
        seg = "[A] Inst, Dept, City, {}."
        domestic = corpus_of(record(addresses=seg.format("Scotland") + "; " + seg.format("England")))
        # Scotland and England both canonicalize to United Kingdom
        assert international_collab_ratio(domestic) == 0.0

    def test_international_no_countries_is_error(self):
        with pytest.raises(DegenerateDataError):
            international_collab_ratio(corpus_of(record()))

    def test_multidisciplinary(self):
        corpus = corpus_of(
            record(research_areas=["Virology", "Immunology"]),
            record(research_areas=["Virology"]),
            record(research_areas=["Psychiatry", "Psychology"]),
            record(research_areas=["Mathematics"]),
            record(research_areas=["Pediatrics"]),
        )
        assert multidisciplinary_ratio(corpus) == 0.4

    def test_multidisciplinary_extremes(self):
        single = corpus_of(*(record(research_areas=["X"]) for _ in range(3)))
        double = corpus_of(*(record(research_areas=["X", "Y"]) for _ in range(3)))
        assert multidisciplinary_ratio(single) == 0.0
        assert multidisciplinary_ratio(double) == 1.0


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_computed(self):
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)

    def test_zero_variance_signaled(self):
        with pytest.raises(DegenerateDataError):
            pearson([1, 1, 1], [1, 2, 3])

    def test_subnormal_products_stay_in_range(self):
        # 1e-158 squared underflows to a subnormal and the unclipped ratio was 1 + 2.2e-10
        assert pearson([0.0, 1.0, 0.0], [0.0, 9.87630908110932e-158, 0.0]) == 1.0
        assert pearson([0.0, -1.0, 0.0], [0.0, 9.87630908110932e-158, 0.0]) == -1.0

    def test_rounded_mean_is_centred_again(self):
        # the mean of these floats rounds to 7.0; one centring pass left
        # the deviations off-centre and returned 0.8165, but x is affine
        # in y, so r is 1
        assert pearson([7.0, 7.0, 7.000000000000001], [-1.0, -1.0, 2.0]) == pytest.approx(1.0, abs=1e-12)

    @given(st.lists(st.floats(-100, 100), min_size=3, max_size=20), st.randoms())
    def test_symmetry_and_affine_invariance(self, xs, rng):
        ys = [rng.uniform(-100, 100) for _ in xs]
        try:
            r = pearson(xs, ys)
            assert pearson(ys, xs) == pytest.approx(r)
            scaled = [2.5 * x + 7 for x in xs]
            assert pearson(scaled, ys) == pytest.approx(r, abs=1e-9)
            flipped = [-1.0 * x for x in xs]
            assert pearson(flipped, ys) == pytest.approx(-r, abs=1e-9)
            assert -1.0 - 1e-12 <= r <= 1.0 + 1e-12
        except DegenerateDataError:
            # tiny magnitudes can lose their variance to rounding after
            # the affine shift; the distinct signal is the right outcome
            return


def outcome(f, *args):
    """The float f returns, as hex so that -0.0 and 0.0 differ, or the
    type and message of what it raises."""
    try:
        with np.errstate(all="ignore"):
            return f(*args).hex()
    except Exception as exc:
        return type(exc), str(exc)


# lengths on each side of the pairwise sum's plain (< 8), blocked
# (<= 128) and split (> 128) paths and of its splits
EDGE_LENGTHS = (2, 3, 7, 8, 9, 15, 16, 17, 127, 128, 129, 136, 137, 255, 256, 257, 1000, 3001, 4097, 5000)


def seeded_values(rng: random.Random, n: int, kind: str) -> list[float]:
    if kind == "counts":
        # the six correlation variables are small non-negative counts
        return [float(rng.choice((0, 1, 1, 2, 3, 5, 8, 40, 300))) for _ in range(n)]
    if kind == "uniform":
        return [rng.uniform(-1.0, 1.0) for _ in range(n)]
    if kind == "lognormal":
        return [rng.choice((-1.0, 1.0)) * rng.lognormvariate(0.0, 4.0) for _ in range(n)]
    # extreme magnitudes: near overflow, near underflow, subnormal
    return [rng.choice((-1.0, 1.0)) * rng.choice((1e300, 1e154, 1.0, 1e-154, 1e-300, 5e-324)) * rng.random()
            for _ in range(n)]


KINDS = ("counts", "uniform", "lognormal", "extreme")


class TestPearsonMatchesNumpyOracle:
    """metrics.pearson sums in numpy's pairwise order without numpy; the
    numpy formula it replaced must give the same float or exception."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", EDGE_LENGTHS)
    def test_seeded_lists(self, n, kind):
        rng = random.Random(n * 31 + KINDS.index(kind))
        for _ in range(3):
            xs, ys = seeded_values(rng, n, kind), seeded_values(rng, n, kind)
            assert outcome(pearson, xs, ys) == outcome(numpy_pearson, xs, ys)

    @given(st.integers(2, 5000), st.sampled_from(KINDS), st.randoms(use_true_random=False))
    def test_random_lengths(self, n, kind, rng):
        xs, ys = seeded_values(rng, n, kind), seeded_values(rng, n, kind)
        assert outcome(pearson, xs, ys) == outcome(numpy_pearson, xs, ys)

    @given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                              st.floats(allow_nan=False, allow_infinity=False)), min_size=2, max_size=40))
    def test_any_finite_floats(self, pairs):
        xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
        assert outcome(pearson, xs, ys) == outcome(numpy_pearson, xs, ys)

    @given(st.lists(st.integers(0, 10_000), min_size=2, max_size=300), st.randoms(use_true_random=False))
    def test_integer_counts(self, xs, rng):
        ys = [rng.randint(0, 50) for _ in xs]
        assert outcome(pearson, xs, ys) == outcome(numpy_pearson, xs, ys)

    def test_errors(self):
        for xs, ys in (([1.0], [2.0]), ([1.0, 2.0], [1.0]), ([3.0] * 9, [1.0] * 8 + [2.0]),
                       ([float("nan"), 1.0], [1.0, 2.0]), ([float("inf"), 1.0], [1.0, 2.0])):
            assert outcome(pearson, xs, ys) == outcome(numpy_pearson, xs, ys)


class TestMeanMatchesNumpy:
    @pytest.mark.parametrize("kind", KINDS)
    def test_seeded_lists(self, kind):
        rng = random.Random(KINDS.index(kind))
        for n in (1,) + EDGE_LENGTHS:
            values = seeded_values(rng, n, kind)
            assert _mean(values).hex() == float(np.mean(values)).hex()

    @pytest.mark.parametrize("n", (1, 7, 8, 9, 128, 129, 300))
    def test_negative_zeros_sum_to_positive_zero(self, n):
        # numpy adds the pairwise total to the +0.0 identity of add.reduce
        assert _mean([-0.0] * n).hex() == float(np.mean([-0.0] * n)).hex() == (0.0).hex()

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=300))
    def test_any_finite_floats(self, values):
        # partial sums may overflow, to inf or, meeting -inf, to nan
        assert outcome(_mean, values) == outcome(lambda v: float(np.mean(v)), values)


def full_record(i, authors, pages, nr, tc, areas, countries):
    seg = "; ".join(f"[A] Inst{j}, Dept, City, {c}." for j, c in enumerate(countries))
    return record(
        title=f"P{i}",
        author_full_names=authors,
        page_count=pages,
        cited_reference_count=nr,
        times_cited=tc,
        research_areas=areas,
        addresses=seg,
    )


class TestCorrelationMatrix:
    def corpus(self):
        return corpus_of(
            full_record(0, ["A, A"], 3, 10, 50, ["X"], ["Italy"]),
            full_record(1, ["A, A", "B, B"], 5, 20, 40, ["X", "Y"], ["Italy", "France"]),
            full_record(2, ["A, A", "B, B", "C, C"], 7, 15, 90, ["X"], ["Japan"]),
            full_record(3, ["D, D"], 2, 5, 10, ["X", "Y", "Z"], ["Italy", "Japan"]),
            full_record(4, ["E, E", "F, F"], 11, 30, 70, ["Y"], ["France"]),
        )

    def test_diagonal_and_symmetry(self):
        matrix = correlation_matrix(self.corpus())
        size = len(matrix.variables)
        for i in range(size):
            assert matrix.entries[i][i] == 1.0
            for j in range(size):
                assert matrix.entries[i][j] == matrix.entries[j][i]
                assert -1.0 - 1e-12 <= matrix.entries[i][j] <= 1.0 + 1e-12

    def test_against_numpy_oracle(self):
        corpus = self.corpus()
        matrix = correlation_matrix(corpus)
        rows = np.array([
            [1, 10, 50, 1, 1, 3],
            [2, 20, 40, 2, 2, 5],
            [3, 15, 90, 1, 1, 7],
            [1, 5, 10, 3, 2, 2],
            [2, 30, 70, 1, 1, 11],
        ], dtype=float)
        expected = np.corrcoef(rows.T)
        assert np.allclose(np.array(matrix.entries), expected, atol=1e-12)

    def test_incomplete_rows_dropped(self):
        corpus = corpus_of(
            full_record(0, ["A, A"], 3, 10, 50, ["X"], ["Italy"]),
            full_record(1, ["A, A", "B, B"], 5, 20, 40, ["X", "Y"], ["Italy", "France"]),
            full_record(2, ["B, B"], 9, 12, 30, ["Y"], ["Japan"]),
            record(title="no pages", author_full_names=["C, C"], research_areas=["X"]),
        )
        # the incomplete record must not poison the matrix
        matrix = correlation_matrix(corpus)
        assert matrix.value("authors", "authors") == 1.0

    @pytest.mark.parametrize("corpus_name", ["fixture", "random_corpus"])
    def test_same_matrix_as_the_numpy_formula(self, corpus_name, fixture_corpus, monkeypatch):
        corpora = [fixture_corpus] if corpus_name == "fixture" else [
            random_corpus(seed, n_records=n) for seed, n in ((1, 12), (2, 60), (3, 400), (4, 1500))
        ]
        matrices = [correlation_matrix(corpus) for corpus in corpora]
        monkeypatch.setattr(metrics, "pearson", numpy_pearson)
        assert [correlation_matrix(corpus) for corpus in corpora] == matrices

    def test_too_few_rows(self):
        with pytest.raises(DegenerateDataError):
            correlation_matrix(corpus_of(full_record(0, ["A, A"], 3, 1, 1, ["X"], ["Italy"])))

    def test_duplicated_variable_column_gives_unit_offdiagonal(self):
        # authors == countries in every row -> rho exactly 1
        corpus = corpus_of(
            full_record(0, ["A, A"], 3, 10, 50, ["X"], ["Italy"]),
            full_record(1, ["A, A", "B, B"], 5, 20, 40, ["X", "Y"], ["Italy", "France"]),
            full_record(2, ["A, A", "B, B", "C, C"], 7, 15, 90, ["X"], ["Italy", "France", "Japan"]),
        )
        matrix = correlation_matrix(corpus)
        assert matrix.value("authors", "countries") == pytest.approx(1.0)


class TestMonthlyCounts:
    def corpus(self):
        seg = "[A] Inst, Dept, City, {}."
        return corpus_of(
            record(publication_date="MAR", publication_year=2020, addresses=seg.format("Italy"),
                   source_abbrev="J. One", research_areas=["X"]),
            record(publication_date="MAR 15", publication_year=2020,
                   addresses=seg.format("Italy") + "; " + seg.format("France"),
                   source_abbrev="J. Two", research_areas=["X", "Y"]),
            record(publication_date="APR", publication_year=2020, addresses=seg.format("France"),
                   source_abbrev="J. One", research_areas=["Y"]),
            record(publication_date="WIN", publication_year=2020, addresses=seg.format("Italy"),
                   source_abbrev="J. One", research_areas=["X"]),
            record(publication_date="MAY", publication_year=2020, addresses=seg.format("Japan"),
                   source_abbrev="J. Two", research_areas=["X"]),
            record(publication_date="MAY 1", publication_year=2020, addresses=seg.format("Italy"),
                   source_abbrev="J. One", research_areas=["Z"]),
        )

    def test_single_record(self):
        corpus = corpus_of(record(publication_date="MAR", publication_year=2020))
        series = monthly_counts(corpus, "all")
        assert len(series) == 1
        assert series[0].key == "ALL"
        assert series[0].points == {YearMonth(2020, 3): 1}

    def test_total_series_hand_tally(self):
        series = monthly_counts(self.corpus(), "all")
        assert series[0].points == {
            YearMonth(2020, 3): 2, YearMonth(2020, 4): 1, YearMonth(2020, 5): 2,
        }

    def test_multi_country_record_counts_once_per_country(self):
        by_country = {s.key: s.points for s in monthly_counts(self.corpus(), "country")}
        assert by_country["Italy"] == {YearMonth(2020, 3): 2, YearMonth(2020, 5): 1}
        assert by_country["France"] == {YearMonth(2020, 3): 1, YearMonth(2020, 4): 1}
        assert by_country["Japan"] == {YearMonth(2020, 5): 1}

    def test_source_and_area_grouping(self):
        by_source = {s.key: s.points for s in monthly_counts(self.corpus(), "source")}
        assert by_source["J. One"] == {YearMonth(2020, 3): 1, YearMonth(2020, 4): 1, YearMonth(2020, 5): 1}
        by_area = {s.key: s.points for s in monthly_counts(self.corpus(), "research_area")}
        assert by_area["X"] == {YearMonth(2020, 3): 2, YearMonth(2020, 5): 1}

    def test_keys_restriction_preserves_order(self):
        series = monthly_counts(self.corpus(), "country", keys=["Japan", "Italy"])
        assert [s.key for s in series] == ["Japan", "Italy"]

    def test_empty_dated_view_errors(self):
        with pytest.raises(DegenerateDataError):
            monthly_counts(corpus_of(record(publication_date="WIN", publication_year=2020)), "all")


class TestTopK:
    def test_k_larger_than_map(self):
        counts = {"b": 2, "a": 5}
        assert top_k(counts, 10) == [("a", 5), ("b", 2)]

    def test_tie_order(self):
        counts = {"beta": 3, "alpha": 3, "gamma": 7}
        assert top_k(counts, 3) == [("gamma", 7), ("alpha", 3), ("beta", 3)]

    def test_five_entry_fixture(self):
        counts = {"d": 1, "c": 4, "b": 4, "a": 2, "e": 9}
        assert top_k(counts, 3) == [("e", 9), ("b", 4), ("c", 4)]

    def test_k_below_one(self):
        with pytest.raises(ValueError):
            top_k({"a": 1}, 0)

    # few distinct counts over many names, so most entries tie
    @given(st.dictionaries(st.text(alphabet="abc", max_size=4), st.integers(0, 3), max_size=40), st.integers(1, 45))
    def test_equals_the_full_sort(self, counts, k):
        assert top_k(counts, k) == sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:k]


class TestMostCited:
    def corpus(self):
        return corpus_of(
            record(title="B", times_cited=50, author_full_names=["X, A", "Y, B"], research_areas=["R1"]),
            record(title="A", times_cited=50, author_full_names=["Z, C"], research_areas=["R2"]),
            record(title="C", times_cited=90, author_full_names=["W, D"], research_areas=["R1", "R3"]),
            record(title="D", times_cited=10),
        )

    def test_k1_returns_max(self):
        rows = most_cited(self.corpus(), 1)
        assert rows == [("C", "W, D", 90, ("R1", "R3"))]

    def test_tie_by_title(self):
        rows = most_cited(self.corpus(), 3)
        assert [r[0] for r in rows] == ["C", "A", "B"]

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_is_an_error(self, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            most_cited(self.corpus(), k)

    def test_research_areas_keep_repeats(self):
        corpus = corpus_of(record(title="A", times_cited=1, research_areas=["X", "Y", "X"]))
        assert most_cited(corpus, 1) == [("A", "", 1, ("X", "Y", "X"))]

    def test_et_al_formatting(self):
        rows = most_cited(self.corpus(), 4)
        by_title = {r[0]: r[1] for r in rows}
        assert by_title["B"] == "X, A et al."
        assert by_title["A"] == "Z, C"
        assert by_title["D"] == ""


class TestDescriptiveStats:
    def test_singleton(self):
        stats = descriptive_stats([7])
        assert (stats.minimum, stats.maximum, stats.mean, stats.median, stats.mode) == (7, 7, 7, 7, 7)

    def test_hand_computed(self):
        stats = descriptive_stats([1, 2, 2, 9])
        assert (stats.mean, stats.median, stats.mode) == (3.5, 2.0, 2)

    def test_symmetric_list(self):
        stats = descriptive_stats([1, 2, 3, 4, 5])
        assert stats.mean == stats.median == 3

    def test_mode_tie_breaks_to_smallest(self):
        assert descriptive_stats([3, 3, 1, 1, 2]).mode == 1

    def test_empty_errors(self):
        with pytest.raises(DegenerateDataError):
            descriptive_stats([])


class TestFieldCounts(object):
    def test_document_type_keeps_leading_category(self):
        corpus = corpus_of(
            record(document_type="Article; Early Access"),
            record(document_type="Article"),
            record(document_type="Letter"),
        )
        assert field_counts(corpus, "document_type") == {"Article": 2, "Letter": 1}

    def test_document_type_skips_blank_categories(self):
        # the leading category is the first non-blank one; a type of blanks only has none
        text = "PT J\nTI One\nDT ; Review\nER\nPT J\nTI Two\nDT  ;  \nER\nEF\n"
        corpus = Corpus.from_records(parse_export(text).records)
        assert corpus.document_types == [("Review",), ()]
        assert field_counts(corpus, "document_type") == {"Review": 1}

    def test_country_counts_unique_per_record(self):
        seg = "[A] Inst, Dept, City, {}."
        corpus = corpus_of(
            record(addresses=seg.format("Italy") + "; " + seg.format("Italy")),
            record(addresses=seg.format("Italy")),
        )
        assert field_counts(corpus, "country") == {"Italy": 2}

    def test_unknown_field(self):
        with pytest.raises(ValueError):
            field_counts(corpus_of(), "nope")


def test_authors_per_paper_skips_authorless(fixture_corpus):
    counts = authors_per_paper(fixture_corpus)
    assert len(counts) == 19  # the [anonymous] record drops out
    assert min(counts) == 1


class TestTablesEqualTheRecordOracles:
    """Each table, read from the corpus columns, equals the same table
    worked out record by record with the expressions in `oracles`."""

    @pytest.fixture()
    def corpora(self, fixture_records):
        return [fixture_records, *(varied_records(seed, n_records=80) for seed in range(4))]

    def test_field_counts(self, corpora):
        for records in corpora:
            corpus = Corpus.from_records(records)
            for field in RECORD_FIELD_VALUES:
                assert field_counts(corpus, field) == record_field_counts(records, field), field

    def test_monthly_counts(self, corpora):
        for records in corpora:
            corpus = Corpus.from_records(records)
            for group_by in ("all", *RECORD_FIELD_VALUES):
                assert monthly_counts(corpus, group_by) == record_monthly_counts(records, group_by), group_by
            for group_by in RECORD_FIELD_VALUES:
                keys = sorted(record_field_counts(records, group_by))[:2] + ["no such key"]
                assert monthly_counts(corpus, group_by, keys) == record_monthly_counts(records, group_by, keys)

    def test_most_cited(self, corpora):
        for records in corpora:
            corpus = Corpus.from_records(records)
            for k in (1, 3, 10, 1000):
                assert most_cited(corpus, k) == sorted_most_cited(records, k)

    def test_author_table_and_authors_per_paper(self, corpora):
        for records in corpora:
            corpus = Corpus.from_records(records)
            assert author_table(corpus, 1000) == every_row_author_table(records, 1000)
            assert authors_per_paper(corpus) == [len(r.distinct_authors()) for r in records if r.distinct_authors()]

    def test_correlation_matrix(self, corpora):
        for records in corpora:
            columns = [list(column) for column in zip(*record_correlation_rows(records))]
            size = len(columns)
            expected = [[1.0] * size for _ in range(size)]
            for i in range(size):
                for j in range(i + 1, size):
                    expected[i][j] = expected[j][i] = numpy_pearson(columns[i], columns[j])
            assert [list(row) for row in correlation_matrix(Corpus.from_records(records)).entries] == expected
