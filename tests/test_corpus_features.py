"""The cleaned feature columns of a Corpus against the per-record public
cleaning functions and against the streamed `read_corpus_column`, and how
often each CLI command runs those functions."""

import json
import tracemalloc
from collections import Counter

import pytest

import biblionet
from biblionet import cli, dedup, graph_stats, graphs, keywords, metrics, normalize, wos_ingest
from biblionet.cli import EXIT_OK, main
from biblionet.normalize import (
    ExtractionMode,
    NormalizationRules,
    extract_countries,
    extract_institutions,
    split_authors,
)
from biblionet.wos_ingest import (
    Corpus,
    merge_corpora,
    parse_file,
    read_corpus_column,
    read_corpus_jsonl,
    write_corpus_jsonl,
)
from oracles import random_corpus, synthetic_author_pool_corpus

STREAMED = ("authors", "country_multisets", "institution_multisets", "research_areas", "keywords")

CUSTOM_RULES = {
    "country_exact": {"Italy": "Italia", "Hungary": "Magyarorszag"},
    "country_contains": {"ance": "Gaul"},
}


@pytest.fixture(scope="module")
def custom_rules(tmp_path_factory) -> NormalizationRules:
    path = tmp_path_factory.mktemp("rules") / "rules.json"
    path.write_text(json.dumps(CUSTOM_RULES), encoding="utf-8")
    return NormalizationRules.from_file(path)


def _corpora(fixture_paths, tab_fixture_path, rules):
    parts = [parse_file(path).records for path in fixture_paths]
    yield "fixture", merge_corpora(parts, rules)
    yield "tab", merge_corpora([parse_file(tab_fixture_path).records], rules)
    for seed in range(4):
        yield f"random-{seed}", Corpus.from_records(random_corpus(seed, n_records=80).records, rules)


@pytest.mark.parametrize("custom", [False, True], ids=["default-rules", "custom-rules"])
def test_columns_equal_the_public_functions(fixture_paths, tab_fixture_path, custom_rules, custom):
    rules = custom_rules if custom else None
    seen_countries = set()
    repeats = 0
    for name, corpus in _corpora(fixture_paths, tab_fixture_path, rules):
        assert corpus.rules is rules, name
        records = corpus.records
        assert corpus.authors == [split_authors("; ".join(r.author_full_names)) for r in records], name
        for mode, column in ((ExtractionMode.MULTISET, corpus.country_multisets),
                             (ExtractionMode.UNIQUE, corpus.countries)):
            assert column == [extract_countries(r.addresses, mode, rules) for r in records], (name, mode)
        for mode, column in ((ExtractionMode.MULTISET, corpus.institution_multisets),
                             (ExtractionMode.UNIQUE, corpus.institutions)):
            assert column == [extract_institutions(r.addresses, mode) for r in records], (name, mode)
        assert corpus.research_areas == [list(dict.fromkeys(r.research_areas)) for r in records], name
        assert corpus.keywords == [list(dict.fromkeys(r.author_keywords)) for r in records], name
        seen_countries.update(c for countries in corpus.country_multisets for c in countries)
        repeats += sum(len(m) - len(u) for m, u in zip(corpus.country_multisets, corpus.countries))
    # the corpora exercise the rules and repeat countries within a record
    assert ({"Italia", "Magyarorszag", "Gaul"} if custom else {"Italy", "Hungary", "France"}) <= seen_countries
    assert repeats > 0


@pytest.mark.parametrize("custom", [False, True], ids=["default-rules", "custom-rules"])
def test_streamed_columns_equal_the_corpus_columns(fixture_paths, tab_fixture_path, custom_rules, custom, tmp_path):
    rules = custom_rules if custom else None
    corpora = [*_corpora(fixture_paths, tab_fixture_path, rules),
               ("author-pool", synthetic_author_pool_corpus(400, seed=3))]
    for name, corpus in corpora:
        path = tmp_path / f"{name}.jsonl"
        write_corpus_jsonl(corpus, path)
        loaded = read_corpus_jsonl(path, rules)
        for column in STREAMED:
            streamed = read_corpus_column(path, column, rules)
            assert streamed == getattr(loaded, column) == getattr(Corpus(corpus.records, rules), column), (name, column)


def test_streamed_column_keeps_no_record(tmp_path):
    """tracemalloc's peak while streaming one column stays a small part
    of the peak while loading every record and then deriving it."""
    corpus = Corpus.from_records([record for seed in range(40) for record in random_corpus(seed, 100).records])
    path = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(corpus, path)
    peaks = []
    for read in (lambda: read_corpus_column(path, "country_multisets"),
                 lambda: read_corpus_jsonl(path).country_multisets):
        tracemalloc.start()
        try:
            column = read()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert column == corpus.country_multisets
    assert peaks[0] < peaks[1] / 5, peaks


def test_columns_are_built_once(fixture_corpus):
    corpus = Corpus.from_records(fixture_corpus.records)
    assert corpus.countries is corpus.countries
    assert corpus.authors is corpus.authors


_COUNTED = ("split_authors", "extract_countries", "extract_institutions")


@pytest.fixture()
def calls(monkeypatch) -> Counter:
    """Calls of the three cleaning functions, through every module binding."""
    counts: Counter = Counter()
    modules = (biblionet, cli, dedup, graph_stats, graphs, keywords, metrics, normalize, wos_ingest)
    for name in _COUNTED:
        original = getattr(normalize, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


def _run(*argv) -> int:
    return main([str(a) for a in argv])


def test_parse_and_keywords_clean_no_feature(tmp_path, fixture_paths, calls):
    out = tmp_path / "run"
    assert _run("parse", *fixture_paths, "--out", out) == EXIT_OK
    assert _run("keywords", out / "corpus.jsonl", "--out", out) == EXIT_OK
    assert all(calls[name] == 0 for name in _COUNTED), calls


def test_stats_cleans_each_record_once(tmp_path, fixture_paths, fixture_corpus, calls):
    out = tmp_path / "run"
    assert _run("parse", *fixture_paths, "--out", out) == EXIT_OK
    calls.clear()
    assert _run("stats", out / "corpus.jsonl", "--out", out) == EXIT_OK
    assert calls == Counter({name: len(fixture_corpus) for name in _COUNTED})


def test_dedup_cleans_only_the_authors(tmp_path, fixture_paths, fixture_corpus, calls):
    out = tmp_path / "run"
    assert _run("parse", *fixture_paths, "--out", out) == EXIT_OK
    calls.clear()
    assert _run("dedup-authors", out / "corpus.jsonl", "--out", out) == EXIT_OK
    assert calls == Counter({"split_authors": len(fixture_corpus)})


@pytest.mark.parametrize("kind, expected", [
    ("country", {"extract_countries"}),
    ("institution", {"extract_institutions"}),
    ("coauthor", {"split_authors"}),
    ("keyword", set()),
])
def test_network_cleans_only_its_feature(tmp_path, fixture_paths, fixture_corpus, calls, kind, expected):
    out = tmp_path / "run"
    assert _run("parse", *fixture_paths, "--out", out) == EXIT_OK
    calls.clear()
    assert _run("network", out / "corpus.jsonl", "--kind", kind, "--out", out) == EXIT_OK
    assert calls == Counter({name: len(fixture_corpus) for name in expected})
