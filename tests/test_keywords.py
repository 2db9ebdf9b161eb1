import random

import pytest
from hypothesis import given, strategies as st

from biblionet.keywords import StopwordSet, filter_stopwords, keyword_frequencies
from biblionet.stopwords import DEFAULT_STOPWORDS
from biblionet.wos_ingest import BiblioRecord, iter_corpus_records, write_corpus_jsonl
from oracles import per_occurrence_keyword_frequencies, random_records, tokenize


def record(title, abstract=None):
    return BiblioRecord(publication_type="J", title=title, abstract=abstract)


def tokens_of(title, abstract=None):
    """Every token of one record with its count, stopwords kept."""
    return keyword_frequencies([record(title, abstract)], StopwordSet(words=frozenset()), n=100)


class TestTokenize:
    def test_interior_hyphen_kept(self):
        assert tokens_of("COVID-19 Spread") == [("covid-19", 1), ("spread", 1)]

    def test_edge_punctuation_stripped(self):
        assert tokens_of("A, B.") == [("a", 1), ("b", 1)]
        assert tokens_of("(covid-19): covid-19") == [("covid-19", 2)]

    def test_empty(self):
        assert tokens_of("", "") == []
        assert tokens_of("") == []
        assert tokens_of("-- ...") == []

    def test_title_and_abstract_concatenated(self):
        assert tokens_of("Viral load", "Dynamics over time") == [
            ("dynamics", 1), ("load", 1), ("over", 1), ("time", 1), ("viral", 1)]
        assert tokens_of("Load", "load.") == [("load", 2)]


class TestStopwordSet:
    def test_default_list_size(self):
        assert 150 <= len(DEFAULT_STOPWORDS) <= 220
        assert all(word == word.lower() for word in DEFAULT_STOPWORDS)

    def test_uppercase_words_rejected(self):
        with pytest.raises(ValueError):
            StopwordSet(words=frozenset({"The"}))

    def test_from_file(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("Virus\n\nSPREAD\n", encoding="utf-8")
        sw = StopwordSet.from_file(path)
        assert sw.words == {"virus", "spread"}


class TestFilterStopwords:
    def test_common_word_removed(self):
        assert filter_stopwords(["the", "virus"]) == ["virus"]

    def test_digits_removed(self):
        assert filter_stopwords(["2020"]) == []

    def test_pure_punctuation_removed(self):
        assert filter_stopwords(["--", "covid-19"]) == ["covid-19"]

    def test_ten_token_fixture_by_hand(self):
        tokens = ["the", "virus", "spread", "in", "2020", "across", "most", "wards", "--", "quickly"]
        # by the bundled list: the/in/most are stopwords, 2020 is digits, -- is punctuation
        assert filter_stopwords(tokens) == ["virus", "spread", "across", "wards", "quickly"]

    def test_no_stopword_survives(self):
        rng = random.Random(0)
        tokens = [rng.choice(sorted(DEFAULT_STOPWORDS)) for _ in range(50)] + ["signal"]
        assert filter_stopwords(tokens) == ["signal"]


class TestKeywordFrequencies:
    def records(self):
        return [
            record("Viral spread dynamics", "The spread was fast"),
            record("Vaccine response", "Immune response to the vaccine was strong"),
            record("Spread of misinformation", None),
            record("Response times", "Response response response"),
            record("2020 in numbers", "Only digits and stopwords here 123"),
        ]

    def test_hand_tally(self):
        ranked = dict(keyword_frequencies(self.records(), n=100))
        assert ranked["response"] == 6
        assert ranked["spread"] == 3
        assert ranked["vaccine"] == 2
        assert "the" not in ranked
        assert "2020" not in ranked

    def test_single_record_unique_tokens_lexicographic(self):
        assert keyword_frequencies([record("gamma beta alpha")], n=10) == [("alpha", 1), ("beta", 1), ("gamma", 1)]

    def test_n_larger_than_vocabulary(self):
        assert len(keyword_frequencies([record("alpha beta")], n=50)) == 2

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            keyword_frequencies(self.records(), n=0)

    def test_counts_sum_to_surviving_tokens(self):
        records = self.records()
        ranked = keyword_frequencies(records, n=10_000)
        total = sum(count for _, count in ranked)
        survivors = 0
        for r in records:
            survivors += len(filter_stopwords(tokenize(r.title, r.abstract)))
        assert total == survivors

    def test_any_iterable_of_records(self, tmp_path):
        records = self.records()
        path = tmp_path / "corpus.jsonl"
        write_corpus_jsonl(records, path)
        expected = keyword_frequencies(records, n=100)
        assert keyword_frequencies(iter(records), n=100) == expected
        assert keyword_frequencies(iter_corpus_records(path), n=100) == expected

    def test_order_invariance(self):
        records = self.records()
        shuffled = list(records)
        random.Random(1).shuffle(shuffled)
        assert keyword_frequencies(records, n=100) == keyword_frequencies(shuffled, n=100)


# edge punctuation, digits, punctuation-only runs and non-ASCII letters,
# among them capital sigma, which lower-cases to a final sigma at a word end
TEXT = st.text(alphabet=st.sampled_from(list("aAbZ019-.,;:()'\"!?_/ \t\nΣΟΔéÉßİ")), max_size=60)
RECORD = st.tuples(TEXT, st.none() | TEXT).map(lambda pair: record(*pair))


class TestMatchesPerOccurrenceOracle:
    """keyword_frequencies strips and filters each distinct token once;
    the per-occurrence loop it replaced must give the same ranking."""

    def test_fixture_corpus(self, fixture_records):
        ranked = keyword_frequencies(fixture_records, n=10_000)
        assert ranked
        assert ranked == per_occurrence_keyword_frequencies(fixture_records, n=10_000)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_corpus(self, seed):
        records = random_records(seed, n_records=40)
        assert keyword_frequencies(records, n=10_000) == per_occurrence_keyword_frequencies(records, n=10_000)

    def test_final_sigma(self):
        # a word-final capital sigma lower-cases to "ς", a lone one to "σ"
        records = [record("ΟΔΟΣ ΟΔΟΣ, Σ", "ΟΔΟΣ. (ΣΟ)"), record("οδοσ")]
        ranked = keyword_frequencies(records)
        assert ranked == per_occurrence_keyword_frequencies(records)
        assert ranked == [("οδος", 3), ("οδοσ", 1), ("σ", 1), ("σο", 1)]

    @given(st.lists(RECORD, max_size=8), st.integers(1, 30))
    def test_any_text(self, records, n):
        assert keyword_frequencies(records, n=n) == per_occurrence_keyword_frequencies(records, n=n)

    @given(st.lists(RECORD, max_size=8))
    def test_custom_stopwords(self, records):
        stopwords = StopwordSet(words=frozenset({"a", "ab", "ς"}))
        assert (keyword_frequencies(records, stopwords, n=100)
                == per_occurrence_keyword_frequencies(records, stopwords, n=100))
