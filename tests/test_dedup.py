import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from biblionet import dedup
from biblionet.dedup import (
    SuspectPair,
    find_suspect_pairs,
    levenshtein,
    sample_names,
    similarity_ratio,
    write_suspect_pairs_csv,
)
from oracles import brute_force_suspect_pairs, dp_levenshtein, synthetic_names

short_text = st.text(alphabet="abcde ", max_size=8)


class TestLevenshtein:
    @pytest.mark.parametrize("a,b,expected", [
        ("", "abc", 3),
        ("abc", "", 3),
        ("x", "x", 0),
        ("kitten", "sitting", 3),
        ("ab", "cd", 2),
        ("same", "same2", 1),
    ])
    def test_known_distances(self, a, b, expected):
        assert levenshtein(a, b) == expected
        assert dp_levenshtein(a, b) == expected

    def test_flagged_pair_from_name_variants(self):
        # oracle-computed: the two spellings differ by 4 edits over 45 chars
        a, b = "Rodriguez-Jimenez, P.", "Rodriguez-Jimenez, Pedro"
        assert dp_levenshtein(a, b) == 4
        assert levenshtein(a, b) == 4
        assert similarity_ratio(a, b) == (45 - 4) / 45
        assert similarity_ratio(a, b) >= 0.8

    @given(short_text, short_text)
    def test_matches_dp_oracle(self, a, b):
        assert levenshtein(a, b) == dp_levenshtein(a, b)

    @given(short_text, short_text)
    def test_symmetry_and_identity(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a) >= 0
        assert (levenshtein(a, b) == 0) == (a == b)

    @given(short_text, short_text, short_text)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    def test_unicode_scalar_values(self):
        assert levenshtein("naïve", "naive") == 1
        assert levenshtein("Ω", "Ωx") == 1


class TestLongAndWideStrings:
    """The bit-parallel kernel against the full DP past 64 and 128 characters."""

    @pytest.mark.parametrize("alphabet", ["ab", "abcxyzé ,.", "Smith, JohnRodriguez-Pé."])
    def test_seeded_pairs_of_60_to_200_characters(self, alphabet):
        rng = random.Random(len(alphabet))
        for _ in range(25):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(60, 200)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(60, 200)))
            assert levenshtein(a, b) == dp_levenshtein(a, b), (a, b)

    def test_near_equal_long_strings(self):
        # few edits over 64- and 128-bit boundaries keep every bit of the column in play
        rng = random.Random(11)
        for length in (63, 64, 65, 127, 128, 129, 200):
            a = "".join(rng.choice("abcd") for _ in range(length))
            b = list(a)
            for _ in range(3):
                b[rng.randrange(length)] = rng.choice("abcde")
            b = "".join(b)
            assert levenshtein(a, b) == dp_levenshtein(a, b), (a, b)
            assert levenshtein(a, a[1:]) == 1

    def test_astral_plane_characters(self):
        rng = random.Random(5)
        alphabet = "a\U0001d538\U0001d539\U0001f600\U00020000Ω"
        for _ in range(40):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 90)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 90)))
            assert levenshtein(a, b) == dp_levenshtein(a, b), (a, b)
        assert levenshtein("\U0001d538bc", "\U0001d539bc") == 1

    @pytest.mark.parametrize("length", [1, 64, 65, 150])
    def test_one_side_empty(self, length):
        s = "".join(chr(0x61 + i % 26) for i in range(length))
        assert levenshtein(s, "") == levenshtein("", s) == dp_levenshtein(s, "") == length


class TestSimilarityRatio:
    def test_identity(self):
        assert similarity_ratio("abc", "abc") == 1.0

    def test_half(self):
        assert similarity_ratio("ab", "cd") == 0.5

    def test_both_empty_errors(self):
        with pytest.raises(ValueError):
            similarity_ratio("", "")

    @given(short_text, short_text)
    def test_range_and_symmetry(self, a, b):
        if not a and not b:
            return
        r = similarity_ratio(a, b)
        assert 0.0 <= r <= 1.0
        assert r == similarity_ratio(b, a)
        assert (r == 1.0) == (a == b)


class TestFindSuspectPairs:
    def test_below_threshold_excluded(self):
        # ratio(aa, ab) = (4-1)/4 = 0.75 < 0.8
        assert find_suspect_pairs(["aa", "ab", "zz"], threshold=0.8) == []

    def test_single_pair(self):
        pairs = find_suspect_pairs(["same", "same2"], threshold=0.8)
        assert len(pairs) == 1
        assert pairs[0] == SuspectPair("same", "same2", (9 - 1) / 9)

    def test_singleton(self):
        assert find_suspect_pairs(["only"]) == []

    def test_ordering_ratio_desc_then_lex(self):
        names = ["abcd", "abce", "abcdx", "qqqq", "qqqr"]
        pairs = find_suspect_pairs(names, threshold=0.7)
        ratios = [p.ratio for p in pairs]
        assert ratios == sorted(ratios, reverse=True)
        for pair in pairs:
            assert pair.name_a < pair.name_b

    def test_threshold_monotonicity(self):
        rng = random.Random(4)
        names = ["".join(rng.choice("abcd") for _ in range(rng.randint(3, 7))) for _ in range(40)]
        names = sorted(set(names))
        loose = {(p.name_a, p.name_b) for p in find_suspect_pairs(names, threshold=0.6)}
        tight = {(p.name_a, p.name_b) for p in find_suspect_pairs(names, threshold=0.8)}
        assert tight <= loose

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            find_suspect_pairs(["a", "b"], threshold=0.0)
        with pytest.raises(ValueError):
            find_suspect_pairs(["a", "b"], threshold=1.5)

    def test_pruning_never_changes_results(self):
        # brute force without any pruning as the oracle
        rng = random.Random(9)
        names = sorted({"".join(rng.choice("abc") for _ in range(rng.randint(1, 6))) for _ in range(25)})
        expected = []
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                r = similarity_ratio(a, b)
                if r >= 0.6:
                    expected.append(SuspectPair(a, b, r))
        expected.sort(key=lambda p: (-p.ratio, p.name_a, p.name_b))
        assert find_suspect_pairs(names, threshold=0.6) == expected


def _bag_distance(a: str, b: str) -> int:
    """max(|a|, |b|) minus the size of the character multiset intersection."""
    return max(len(a), len(b)) - sum((Counter(a) & Counter(b)).values())


@pytest.mark.parametrize("threshold", [0.5, 0.8, 0.9])
def test_similarity_scored_once_per_bag_survivor(monkeypatch, threshold):
    names = synthetic_names(40, 3) + ["Smith, John A", "Smith, J. A.", "abcde", "abcdf", "edcba"]
    calls = Counter()
    original = dedup.similarity_ratio

    def counting(a, b):
        calls[frozenset((a, b))] += 1
        return original(a, b)

    monkeypatch.setattr(dedup, "similarity_ratio", counting)
    find_suspect_pairs(names, threshold)
    unique = sorted(set(names))
    survivors = {frozenset((a, b)) for i, a in enumerate(unique) for b in unique[i + 1:]
                 if (len(a) + len(b) - _bag_distance(a, b)) / (len(a) + len(b)) >= threshold}
    assert survivors and len(survivors) < len(unique) * (len(unique) - 1) // 2
    assert calls == Counter(dict.fromkeys(survivors, 1))


def _mixed_names(seed: int) -> list[str]:
    """Seeded names plus repeats, empty strings, non-ASCII and initials variants."""
    rng = random.Random(seed)
    names = synthetic_names(70, seed)
    names += ["".join(rng.choice("aab") for _ in range(rng.randint(1, 6))) for _ in range(25)]
    names += rng.sample(names, 10) + ["", ""]
    names += ["Smith, John A", "Smith, J. A.", "Smith, John", "Müller, Jürgen", "Muller, Jurgen",
              "Šimić, Ana", "Simic, Ana", "Øster, Åse", "Oster, Ase", "Ωmega, Ψ", "Łukasz, Ż"]
    rng.shuffle(names)
    return names


class TestAgainstBruteForce:
    @pytest.mark.parametrize("threshold", [0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 1.0])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_equals_all_pairs_oracle(self, seed, threshold):
        names = _mixed_names(seed)
        assert find_suspect_pairs(names, threshold) == brute_force_suspect_pairs(names, threshold)

    @pytest.mark.parametrize("threshold", [0.5, 0.7, 0.8, 0.9])
    def test_a_name_with_the_widest_lane(self, threshold):
        # "aaaaaaab" repeats "a" more often than any other name, so the
        # lane of "a" is as wide as that one name needs
        names = ["aaaaaaab", "aaaab", "aab", "ab", "ba", "baaa", "abab", "bbbba", "aaaaaab", "aaaaaaba"]
        assert find_suspect_pairs(names, threshold) == brute_force_suspect_pairs(names, threshold)
        bags = dedup._bags(names)
        for i, a in enumerate(names):
            for j, b in enumerate(names):
                assert (bags[i] & bags[j]).bit_count() == sum((Counter(a) & Counter(b)).values())

    def test_planted_initials_variant_found(self):
        pairs = find_suspect_pairs(_mixed_names(1), 0.8)
        assert SuspectPair("Smith, J. A.", "Smith, John A", (25 - 4) / 25) in pairs

    def test_ratio_exactly_at_threshold_is_reported(self):
        # (10 - 1) / 10 == 0.9, while int((1 - 0.9) * 10) == 0 edits
        assert find_suspect_pairs(["abcde", "abcdf"], 0.9) == [SuspectPair("abcde", "abcdf", 0.9)]


class TestSampling:
    def test_seeded_and_deterministic(self):
        names = [f"name{i}" for i in range(100)]
        a = sample_names(names, 10, seed=7)
        b = sample_names(names, 10, seed=7)
        c = sample_names(names, 10, seed=8)
        assert a == b
        assert len(a) == 10
        assert a != c

    def test_oversized_sample_returns_all(self):
        assert sample_names(["b", "a"], 10, seed=0) == ["a", "b"]


def test_csv_report_format(tmp_path):
    pairs = find_suspect_pairs(["same", "same2"], threshold=0.8)
    path = tmp_path / "pairs.csv"
    write_suspect_pairs_csv(pairs, path)
    content = path.read_text(encoding="utf-8")
    assert content == "name_a,name_b,ratio\nsame,same2,0.888889\n"
