"""The cleaned feature columns of a Corpus against the per-record public
cleaning functions, the memory that reading a corpus holds, and how often
each CLI command runs those functions."""

import dataclasses
import gc
import json
import random
import tracemalloc
import weakref
from collections import Counter

import pytest

import biblionet
from biblionet import cli, dedup, graph_stats, graphs, keywords, metrics, normalize, wos_ingest
from biblionet.cli import EXIT_OK, main
from biblionet.graphs import GraphKind, build_graph
from biblionet.normalize import (
    NormalizationRules,
    extract_countries,
    extract_institutions,
    normalize_date,
    split_authors,
)
from biblionet.wos_ingest import (
    Corpus,
    iter_corpus_records,
    merge_corpora,
    parse_file,
    read_corpus_jsonl,
    write_corpus_jsonl,
)
from oracles import RECORD_FIELD_VALUES, graph_key, random_records, synthetic_author_pool_records, varied_records

CUSTOM_RULES = {
    "country_exact": {"Italy": "Italia", "Hungary": "Magyarorszag"},
    "country_contains": {"ance": "Gaul"},
}


@pytest.fixture(scope="module")
def custom_rules(tmp_path_factory) -> NormalizationRules:
    path = tmp_path_factory.mktemp("rules") / "rules.json"
    path.write_text(json.dumps(CUSTOM_RULES), encoding="utf-8")
    return NormalizationRules.from_file(path)


def _record_lists(fixture_paths, tab_fixture_path):
    yield "fixture", merge_corpora([parse_file(path).records for path in fixture_paths])
    yield "tab", merge_corpora([parse_file(tab_fixture_path).records])
    for seed in range(4):
        yield f"varied-{seed}", varied_records(seed, n_records=80)


@pytest.mark.parametrize("custom", [False, True], ids=["default-rules", "custom-rules"])
def test_columns_equal_the_public_functions(fixture_paths, tab_fixture_path, custom_rules, custom):
    rules = custom_rules if custom else None
    seen_countries = set()
    repeats = 0
    for name, records in _record_lists(fixture_paths, tab_fixture_path):
        corpus = Corpus.from_records(records, rules)
        assert len(corpus) == len(records), name
        assert corpus.authors == [split_authors("; ".join(r.author_full_names)) for r in records], name
        countries = [extract_countries(r.addresses, rules) for r in records]
        assert corpus.countries == [list(dict.fromkeys(values)) for values in countries], name
        institutions = [extract_institutions(r.addresses) for r in records]
        assert corpus.institutions == [list(dict.fromkeys(values)) for values in institutions], name
        assert corpus.research_area_multisets == [r.research_areas for r in records], name
        assert corpus.research_areas == [list(dict.fromkeys(r.research_areas)) for r in records], name
        assert corpus.keywords == [list(dict.fromkeys(r.author_keywords)) for r in records], name
        # the columns that metrics and the stats tables read from records before
        assert corpus.titles == [r.title for r in records], name
        assert corpus.times_cited == [r.times_cited for r in records], name
        assert corpus.cited_reference_counts == [r.cited_reference_count for r in records], name
        assert corpus.page_counts == [r.page_count for r in records], name
        for field, column in (("publication_type", corpus.publication_types), ("document_type", corpus.document_types),
                              ("language", corpus.languages), ("source", corpus.sources)):
            assert column == [tuple(RECORD_FIELD_VALUES[field](r, rules)) for r in records], (name, field)
        assert corpus.dated_view == {
            index: month for index, r in enumerate(records)
            if (month := normalize_date(r.publication_date, r.publication_year, rules)) is not None
        }, name
        seen_countries.update(c for values in countries for c in values)
        repeats += sum(len(m) - len(u) for m, u in zip(countries, corpus.countries))
    # the corpora exercise the rules and repeat countries within a record
    assert ({"Italia", "Magyarorszag", "Gaul"} if custom else {"Italy", "Hungary", "France"}) <= seen_countries
    assert repeats > 0


@pytest.mark.parametrize("custom", [False, True], ids=["default-rules", "custom-rules"])
def test_streamed_reads_equal_the_reads_of_the_records(fixture_paths, tab_fixture_path, custom_rules, custom,
                                                       tmp_path):
    rules = custom_rules if custom else None
    record_lists = [*_record_lists(fixture_paths, tab_fixture_path),
                    ("author-pool", synthetic_author_pool_records(400, seed=3))]
    for name, records in record_lists:
        path = tmp_path / f"{name}.jsonl"
        write_corpus_jsonl(records, path)
        assert read_corpus_jsonl(path, rules) == Corpus.from_records(records, rules), name
        for kind in GraphKind:
            streamed = build_graph(kind, iter_corpus_records(path), rules)
            assert graph_key(streamed) == graph_key(build_graph(kind, records, rules)), (name, kind)


def _peaks(reads) -> list[int]:
    """tracemalloc's peak during each call of `reads`."""
    peaks = []
    for read in reads:
        tracemalloc.start()
        try:
            read()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def test_streamed_graph_keeps_no_record(tmp_path):
    """tracemalloc's peak while building a graph from the streamed records
    stays a small part of the peak while building every column."""
    records = [record for seed in range(40) for record in random_records(seed, 100)]
    path = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(records, path)
    assert graph_key(build_graph(GraphKind.COUNTRY, iter_corpus_records(path))) == graph_key(
        build_graph(GraphKind.COUNTRY, records))
    peaks = _peaks([lambda: build_graph(GraphKind.COUNTRY, iter_corpus_records(path)), lambda: read_corpus_jsonl(path)])
    assert peaks[0] < peaks[1] / 5, peaks


def test_corpus_keeps_no_record(tmp_path):
    """On records whose abstracts are most of their size, reading a corpus
    peaks well below holding its records."""
    rng = random.Random(5)
    words = ["virus", "spread", "cohort", "mortality", "vaccine", "trial", "outcome", "risk"]
    records = [dataclasses.replace(record, abstract=" ".join(rng.choices(words, k=300)))
               for seed in range(10) for record in random_records(seed, 100)]
    path = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(records, path)
    peaks = _peaks([lambda: read_corpus_jsonl(path), lambda: list(iter_corpus_records(path))])
    assert peaks[0] < peaks[1] / 3, peaks


def test_corpus_holds_columns_only(fixture_records):
    """Every column is a plain field, built with the others, and no
    record outlives the pass that cleans it."""
    records = [dataclasses.replace(record) for record in fixture_records]
    alive = [weakref.ref(record) for record in records]
    corpus = Corpus.from_records(iter(records))
    del records
    gc.collect()
    assert not any(ref() for ref in alive)
    fields = vars(corpus)
    assert set(fields) == {field.name for field in dataclasses.fields(Corpus)}
    for name, value in fields.items():
        assert len(value) == len(corpus) or name == "dated_view", name
    with pytest.raises(dataclasses.FrozenInstanceError):
        corpus.authors = []


# the cleaning functions, and the address segmentation that the two
# address extractors share
_COUNTED = ("split_authors", "extract_countries", "extract_institutions", "extract_countries_and_institutions",
            "_address_segments")


@pytest.fixture()
def calls(monkeypatch) -> Counter:
    """Calls of the counted functions, through every module binding."""
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


def _addressed(records) -> int:
    return sum(1 for r in records if r.addresses)


def test_parse_and_keywords_clean_no_feature(tmp_path, fixture_paths, calls):
    out = tmp_path / "run"
    assert _run("parse", *fixture_paths, "--out", out) == EXIT_OK
    assert _run("keywords", out / "corpus.jsonl", "--out", out) == EXIT_OK
    assert all(calls[name] == 0 for name in _COUNTED), calls


def test_stats_cleans_each_record_once(tmp_path, fixture_paths, fixture_records, calls):
    out = tmp_path / "run"
    assert _run("parse", *fixture_paths, "--out", out) == EXIT_OK
    calls.clear()
    assert _run("stats", out / "corpus.jsonl", "--out", out) == EXIT_OK
    # the two address columns come from one call per record
    n = len(fixture_records)
    assert calls == Counter({"split_authors": n, "extract_countries_and_institutions": n,
                             "_address_segments": _addressed(fixture_records)})


def test_stats_segments_each_address_once(tmp_path, calls):
    records = [record for seed in range(3) for record in varied_records(seed, n_records=60)]
    assert 0 < _addressed(records) < len(records)
    path = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(records, path)
    assert _run("stats", path, "--out", tmp_path / "out") == EXIT_OK
    assert calls["_address_segments"] == _addressed(records)


def test_dedup_cleans_only_the_authors(tmp_path, fixture_paths, fixture_records, calls):
    out = tmp_path / "run"
    assert _run("parse", *fixture_paths, "--out", out) == EXIT_OK
    calls.clear()
    assert _run("dedup-authors", out / "corpus.jsonl", "--out", out) == EXIT_OK
    assert calls == Counter({"split_authors": len(fixture_records)})


@pytest.mark.parametrize("kind, expected", [
    ("country", {"extract_countries"}),
    ("institution", {"extract_institutions"}),
    ("coauthor", {"split_authors"}),
    ("keyword", set()),
])
def test_network_cleans_only_its_feature(tmp_path, fixture_paths, fixture_records, calls, kind, expected):
    out = tmp_path / "run"
    assert _run("parse", *fixture_paths, "--out", out) == EXIT_OK
    calls.clear()
    assert _run("network", out / "corpus.jsonl", "--kind", kind, "--out", out) == EXIT_OK
    segmented = _addressed(fixture_records) if expected & {"extract_countries", "extract_institutions"} else 0
    assert calls == Counter({name: len(fixture_records) for name in expected}, _address_segments=segmented)
