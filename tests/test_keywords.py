import random

import pytest
from hypothesis import given, strategies as st

from biblionet.keywords import StopwordSet, filter_stopwords, keyword_frequencies
from biblionet.stopwords import DEFAULT_STOPWORDS
from biblionet.wos_ingest import BiblioRecord, Corpus
from oracles import per_occurrence_keyword_frequencies, random_corpus, tokenize


def record(title, abstract=None):
    return BiblioRecord(publication_type="J", title=title, abstract=abstract)


def tokens_of(title, abstract=None):
    """Every token of one record with its count, stopwords kept."""
    corpus = Corpus.from_records([record(title, abstract)])
    return keyword_frequencies(corpus, StopwordSet(words=frozenset()), n=100)


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
        assert filter_stopwords(["2020"], StopwordSet(include_digits=False)) == ["2020"]

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
    def corpus(self):
        return Corpus.from_records([
            record("Viral spread dynamics", "The spread was fast"),
            record("Vaccine response", "Immune response to the vaccine was strong"),
            record("Spread of misinformation", None),
            record("Response times", "Response response response"),
            record("2020 in numbers", "Only digits and stopwords here 123"),
        ])

    def test_hand_tally(self):
        ranked = dict(keyword_frequencies(self.corpus(), n=100))
        assert ranked["response"] == 6
        assert ranked["spread"] == 3
        assert ranked["vaccine"] == 2
        assert "the" not in ranked
        assert "2020" not in ranked

    def test_single_record_unique_tokens_lexicographic(self):
        corpus = Corpus.from_records([record("gamma beta alpha")])
        assert keyword_frequencies(corpus, n=10) == [("alpha", 1), ("beta", 1), ("gamma", 1)]

    def test_n_larger_than_vocabulary(self):
        corpus = Corpus.from_records([record("alpha beta")])
        assert len(keyword_frequencies(corpus, n=50)) == 2

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            keyword_frequencies(self.corpus(), n=0)

    def test_counts_sum_to_surviving_tokens(self):
        corpus = self.corpus()
        ranked = keyword_frequencies(corpus, n=10_000)
        total = sum(count for _, count in ranked)
        survivors = 0
        for r in corpus.records:
            survivors += len(filter_stopwords(tokenize(r.title, r.abstract)))
        assert total == survivors

    def test_order_invariance(self):
        corpus = self.corpus()
        records = list(corpus.records)
        random.Random(1).shuffle(records)
        shuffled = Corpus.from_records(records)
        assert keyword_frequencies(corpus, n=100) == keyword_frequencies(shuffled, n=100)


# edge punctuation, digits, punctuation-only runs and non-ASCII letters,
# among them capital sigma, which lower-cases to a final sigma at a word end
TEXT = st.text(alphabet=st.sampled_from(list("aAbZ019-.,;:()'\"!?_/ \t\nΣΟΔéÉßİ")), max_size=60)
RECORD = st.tuples(TEXT, st.none() | TEXT).map(lambda pair: record(*pair))


class TestMatchesPerOccurrenceOracle:
    """keyword_frequencies strips and filters each distinct token once;
    the per-occurrence loop it replaced must give the same ranking."""

    def test_fixture_corpus(self, fixture_corpus):
        ranked = keyword_frequencies(fixture_corpus, n=10_000)
        assert ranked
        assert ranked == per_occurrence_keyword_frequencies(fixture_corpus, n=10_000)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_corpus(self, seed):
        corpus = random_corpus(seed, n_records=40)
        assert keyword_frequencies(corpus, n=10_000) == per_occurrence_keyword_frequencies(corpus, n=10_000)

    def test_final_sigma(self):
        # a word-final capital sigma lower-cases to "ς", a lone one to "σ"
        corpus = Corpus.from_records([record("ΟΔΟΣ ΟΔΟΣ, Σ", "ΟΔΟΣ. (ΣΟ)"), record("οδοσ")])
        ranked = keyword_frequencies(corpus)
        assert ranked == per_occurrence_keyword_frequencies(corpus)
        assert ranked == [("οδος", 3), ("οδοσ", 1), ("σ", 1), ("σο", 1)]

    @given(st.lists(RECORD, max_size=8), st.integers(1, 30))
    def test_any_text(self, records, n):
        corpus = Corpus.from_records(records)
        assert keyword_frequencies(corpus, n=n) == per_occurrence_keyword_frequencies(corpus, n=n)

    @given(st.lists(RECORD, max_size=8))
    def test_custom_stopwords_keeping_digits(self, records):
        corpus = Corpus.from_records(records)
        stopwords = StopwordSet(words=frozenset({"a", "ab", "ς"}), include_digits=False)
        assert (keyword_frequencies(corpus, stopwords, n=100)
                == per_occurrence_keyword_frequencies(corpus, stopwords, n=100))
