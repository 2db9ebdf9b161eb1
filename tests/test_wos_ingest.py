import dataclasses
import json
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from biblionet.errors import FormatError
from biblionet.normalize import YearMonth
from biblionet.wos_ingest import (
    BiblioRecord,
    Corpus,
    detect_duplicates,
    iter_corpus_records,
    merge_corpora,
    parse_export,
    parse_file,
    read_corpus_column,
    read_corpus_jsonl,
    sniff_format,
    write_corpus_jsonl,
)
from oracles import regex_parse_tab_delimited, regex_parse_tagged, to_tab_delimited

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from generate import CorpusSpec, generate  # noqa: E402


def record(**kwargs) -> BiblioRecord:
    base = dict(publication_type="J", title="T")
    base.update(kwargs)
    return BiblioRecord(**base)


class TestBiblioRecord:
    def test_invalid_publication_type(self):
        with pytest.raises(ValueError):
            record(publication_type="X")

    def test_negative_citations(self):
        with pytest.raises(ValueError):
            record(times_cited=-1)

    def test_empty_list_entry(self):
        with pytest.raises(ValueError):
            record(author_full_names=["A", ""])

    def test_distinct_authors_cleans(self):
        r = record(author_full_names=["A, B", "[anonymous]", "A, B", "C, D"])
        assert r.distinct_authors() == ["A, B", "C, D"]


class TestTabParsing:
    def test_minimal(self):
        result = parse_export(b"PT\tTI\tTC\nJ\tSome Title\t5\n", format="tab_delimited")
        assert len(result.records) == 1
        r = result.records[0]
        assert (r.publication_type, r.title, r.times_cited) == ("J", "Some Title", 5)

    def test_empty_stream(self):
        result = parse_export(b"", format="tab_delimited")
        assert result.records == [] and result.warnings == []

    def test_malformed_header_names_line(self):
        with pytest.raises(FormatError, match="line 1"):
            parse_export(b"PT\tTITLE\nJ\tX\n", format="tab_delimited")

    def test_missing_title_skipped_and_counted(self):
        result = parse_export(b"PT\tTI\tTC\nJ\tGood\t1\nJ\t\t2\nJ\tAlso good\t3\n", format="tab_delimited")
        assert [r.title for r in result.records] == ["Good", "Also good"]
        assert result.skipped == 1

    def test_bom_and_crlf(self):
        data = "﻿PT\tTI\r\nJ\tWindows Title\r\n".encode("utf-8")
        result = parse_export(data, format="tab_delimited")
        assert result.records[0].title == "Windows Title"

    def test_lossless_round_trip(self, tab_fixture_path):
        original = tab_fixture_path.read_text(encoding="utf-8")
        parsed = parse_file(tab_fixture_path, format="tab_delimited")
        assert parsed.skipped == 0
        assert to_tab_delimited(parsed.records) == original


class TestTaggedParsing:
    def test_minimal(self):
        result = parse_export(b"PT J\nTI A\nER\n", format="tagged")
        assert len(result.records) == 1
        assert result.records[0].title == "A"

    def test_empty_stream(self):
        result = parse_export(b"", format="tagged")
        assert result.records == [] and result.warnings == []

    def test_continuation_joined_with_space(self):
        data = b"PT J\nTI A very long\n   wrapped title\nER\n"
        result = parse_export(data, format="tagged")
        assert result.records[0].title == "A very long wrapped title"

    def test_author_lines_are_entries(self):
        data = b"PT J\nAF Kow, Chia Siang\n   Hasan, Syed Shahzad\nTI X\nER\n"
        result = parse_export(data, format="tagged")
        assert result.records[0].author_full_names == ["Kow, Chia Siang", "Hasan, Syed Shahzad"]

    def test_address_lines_become_segments(self):
        data = (
            b"PT J\nTI X\n"
            b"C1 [A, B] Inst One, Dept, City, Italy.\n"
            b"   [C, D] Inst Two, Dept, Town, France.\n"
            b"ER\n"
        )
        result = parse_export(data, format="tagged")
        assert result.records[0].addresses == (
            "[A, B] Inst One, Dept, City, Italy.; [C, D] Inst Two, Dept, Town, France."
        )

    def test_unknown_tags_ignored(self):
        result = parse_export(b"PT J\nZZ whatever\nTI A\nER\n", format="tagged")
        assert result.records[0].title == "A"

    def test_missing_publication_type_defaults_to_journal(self):
        result = parse_export(b"TI Only a title\nER\n", format="tagged")
        assert result.records[0].publication_type == "J"

    def test_unknown_publication_type_skipped(self):
        result = parse_export(b"PT Q\nTI A\nER\n", format="tagged")
        assert result.records == []
        assert result.skipped == 1

    def test_fixture_counts(self, fixture_paths):
        first = parse_file(fixture_paths[0])
        second = parse_file(fixture_paths[1])
        assert (len(first.records), first.skipped) == (11, 1)
        assert (len(second.records), second.skipped) == (10, 0)

    def test_format_sniffing(self, fixture_paths, tab_fixture_path):
        assert len(parse_file(fixture_paths[0], format="auto").records) == 11
        assert len(parse_file(tab_fixture_path, format="auto").records) == 5


# tagged-export lines for the differential test: tag lines with one- and
# three-character, lowercase or non-ASCII tags, tag lines whose third
# character is a tab or U+00A0, continuation lines with and without the
# indent, whitespace-only lines and terminators with trailing blanks
_TAGS = ("FN", "VR", "PT", "AF", "TI", "JI", "DT", "DE", "AB", "C1", "NR", "TC", "PD", "PY", "SC",
         "PG", "UT", "ZZ", "ER", "EF", "ti", "Ti", "T", "TII", "X9", "\uff34\uff29", "\xc0B")
_VALUES = st.text(alphabet="aZ9 ;.,[]-\t\u00a0JSPQ", max_size=16)
_LINES = st.one_of(
    st.builds("".join, st.tuples(st.sampled_from(_TAGS), st.sampled_from((" ", "", "\t", "\u00a0", "   ")), _VALUES)),
    st.builds("".join, st.tuples(st.sampled_from(("   ", "", " ", "\t", "\u00a0")), _VALUES)),
    st.sampled_from(("", " ", "\t", "\u00a0", "ER", "ER   ", "ER \t", "EF", "PT J", "PT B", "TI", "TI A title", "C1", "DE",
                     "PY 2020", "PD MAR 15", "TC 4", "PG 0", "AF Doe, J; Roe, R", "C1 [Doe, J] Univ X, Italy.")),
)
_TAGGED_TEXTS = st.builds(
    lambda header, lines, eol, final: eol.join(header + lines) + final,
    st.sampled_from(([], ["FN Clarivate Analytics Web of Science", "VR 1.0"])),
    st.lists(_LINES, max_size=40),
    st.sampled_from(("\n", "\r\n", "\r")),
    st.sampled_from(("", "\n", "\r\n")),
)
_HEADER_CELLS = st.sampled_from(("PT", "TI", "AF", "TC", "PY", "UT", " TI ", "\u00a0PG", "ti", "P", "PTX", "\uff34\uff29"))
_TAB_TEXTS = st.builds(
    lambda header, rows: "\n".join(["\t".join(header)] + ["\t".join(row) for row in rows]),
    st.lists(_HEADER_CELLS, min_size=1, max_size=6),
    st.lists(st.lists(_VALUES, max_size=7), max_size=8),
)


def _outcome(parse, text: str):
    try:
        return parse(text)
    except FormatError as exc:
        return f"FormatError: {exc}"


class TestParserMatchesRegexReference:
    """Records and warnings equal those of the parser that matched tag
    lines with a regex and stripped every part again where it was read."""

    @staticmethod
    def assert_file_matches(path: Path) -> None:
        text = path.read_bytes().decode("utf-8-sig")
        reference = regex_parse_tab_delimited if sniff_format(text.splitlines()) == "tab_delimited" else regex_parse_tagged
        assert parse_file(path) == reference(text)

    def test_fixtures(self, fixture_paths, tab_fixture_path):
        for path in [*fixture_paths, tab_fixture_path]:
            self.assert_file_matches(path)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_generated_exports(self, tmp_path, seed):
        spec = CorpusSpec(records=400, new_author_prob=0.55, authors_per_paper=(1, 2, 3),
                          institutions=20, keyword_vocabulary=60, untitled_share=0.02)
        paths, truth = generate(spec, seed, tmp_path)
        for path in paths:
            self.assert_file_matches(path)
        assert sum(parse_file(path).skipped for path in paths) == truth.records_skipped > 0

    @settings(max_examples=600, deadline=None)
    @given(st.one_of(_TAGGED_TEXTS, st.text(alphabet="ERFTIPJ9a ;\t\u00a0\r\n", max_size=120)))
    @example("FN Clarivate Analytics Web of Science\r\nVR 1.0\r\nPT J\r\nAF Doe, J; ;\r\n   Roe, R;\r\nTI\r\n   T\r\nC1\r\n"
             "   [A] U, Italy.\r\nDE \r\na; b\r\nER   \r\n \r\nPT J\r\nTI U\r\nEF\r\nTI V\r\n")
    def test_tagged_texts(self, text):
        assert parse_export(text, format="tagged") == regex_parse_tagged(text)

    @settings(max_examples=200, deadline=None)
    @given(_TAB_TEXTS)
    def test_tab_delimited_texts(self, text):
        assert _outcome(lambda t: parse_export(t, format="tab_delimited"), text) == _outcome(
            regex_parse_tab_delimited, text)


class TestDetectDuplicates:
    def test_accession_match(self):
        records = [record(title="A", accession_id="WOS:000123"),
                   record(title="B", accession_id="WOS:000123")]
        assert detect_duplicates(records) == [[0, 1]]

    def test_title_casefold_trim_fallback(self):
        records = [
            record(title="Alpha", author_full_names=["X, Y"], source_abbrev="J. X."),
            record(title="alpha ", author_full_names=["X, Y"], source_abbrev="J. X."),
        ]
        assert detect_duplicates(records) == [[0, 1]]

    def test_distinct_records_empty(self):
        records = [record(title=f"T{i}", accession_id=f"WOS:{i}") for i in range(5)]
        assert detect_duplicates(records) == []

    def test_both_have_different_ids_not_merged_on_triple(self):
        records = [
            record(title="Same", accession_id="WOS:1"),
            record(title="Same", accession_id="WOS:2"),
        ]
        assert detect_duplicates(records) == []

    def test_groups_are_equivalence_classes(self):
        # a(id X) ~ b(id X); a ~ c via triple (c lacks an id) -> one group
        records = [
            record(title="Same", author_full_names=["A, B"], accession_id="WOS:X"),
            record(title="Other", accession_id="WOS:X"),
            record(title="Same", author_full_names=["A, B"]),
        ]
        assert detect_duplicates(records) == [[0, 1, 2]]

    def test_empty_input(self):
        assert detect_duplicates([]) == []


class TestMergeCorpora:
    def test_concatenation(self):
        parts = [[record(title=f"A{i}", accession_id=f"WOS:A{i}") for i in range(3)],
                 [record(title=f"B{i}", accession_id=f"WOS:B{i}") for i in range(3)]]
        records = merge_corpora(parts)
        assert len(records) == 6
        assert [r.title for r in records[:3]] == ["A0", "A1", "A2"]

    def test_shared_accession_dropped(self):
        parts = [[record(title="A", accession_id="WOS:1")],
                 [record(title="B", accession_id="WOS:1"), record(title="C", accession_id="WOS:2")]]
        assert [r.title for r in merge_corpora(parts)] == ["A", "C"]

    def test_dated_view_drops_seasons(self):
        parts = [[
            record(title="T1", publication_date="SEP 10", publication_year=2020, accession_id="W:1"),
            record(title="T2", publication_date="WIN", publication_year=2020, accession_id="W:2"),
            record(title="T3", publication_date="FAL", publication_year=2020, accession_id="W:3"),
            record(title="T4", publication_date="OCT", publication_year=2020, accession_id="W:4"),
            record(title="T5", publication_date="NOV", publication_year=2020, accession_id="W:5"),
        ]]
        corpus = Corpus.from_records(merge_corpora(parts))
        assert len(corpus) == 5
        # built with the other columns, in the one pass over the records
        assert vars(corpus)["dated_view"] == {0: YearMonth(2020, 9), 3: YearMonth(2020, 10), 4: YearMonth(2020, 11)}

    def test_size_accounting_with_random_parts(self):
        # output size = sum of part sizes - sum (group size - 1)
        import random
        rng = random.Random(5)
        records = []
        for i in range(30):
            uid = f"WOS:{rng.randint(0, 14):03d}"
            records.append(record(title=f"T{i}", accession_id=uid))
        groups = detect_duplicates(records)
        assert len(merge_corpora([records])) == len(records) - sum(len(g) - 1 for g in groups)


class TestCorpusJsonl:
    def test_round_trip(self, fixture_records, fixture_corpus, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_corpus_jsonl(fixture_records, path)
        assert list(iter_corpus_records(path)) == fixture_records
        assert read_corpus_jsonl(path) == fixture_corpus

    @pytest.mark.parametrize("source", ["tagged", "tab"])
    def test_lines_equal_asdict_serialization(self, source, fixture_records, tab_fixture_path, tmp_path):
        records = fixture_records if source == "tagged" else merge_corpora([parse_file(tab_fixture_path).records])
        path = tmp_path / "corpus.jsonl"
        write_corpus_jsonl(records, path)
        expected = [json.dumps(dataclasses.asdict(r), sort_keys=True, ensure_ascii=False) for r in records]
        assert path.read_text(encoding="utf-8").splitlines() == expected

    def test_bad_line_raises_format_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"nonsense": 1}\n', encoding="utf-8")
        with pytest.raises(FormatError, match="bad.jsonl:1"):
            read_corpus_jsonl(path)


COLUMN_NAMES = ("authors", "country_multisets", "institution_multisets", "research_areas", "keywords")

# one field of a canonical line, given a value of the wrong JSON type
MISTYPED = [
    ("author_full_names", "Smith, John", "list[str]"),
    ("author_keywords", ["ok", 3], "list[str]"),
    ("research_areas", [None], "list[str]"),
    ("author_full_names", None, "list[str]"),
    ("title", 7, "str"),
    ("publication_type", ["J"], "str"),
    ("addresses", None, "str"),
    ("publication_date", {"month": "SEP"}, "str"),
    ("times_cited", 2.5, "int"),
    ("times_cited", True, "int"),
    ("cited_reference_count", "3", "int"),
    ("publication_year", False, "int"),
    ("page_count", 5.0, "int | None"),
    ("page_count", "5", "int | None"),
    ("abstract", 3, "str | None"),
    ("accession_id", [], "str | None"),
]


def canonical_line(**changes) -> str:
    values = vars(record(author_full_names=["Smith, John"], author_keywords=["virus"], research_areas=["Virology"],
                         addresses="[Smith, John] Univ Verona, Verona, Italy.", abstract="A.", page_count=3,
                         accession_id="WOS:1"))
    return json.dumps({**values, **changes}, sort_keys=True)


def read_errors(path) -> list[str]:
    """The FormatError text of each reader on `path`."""
    messages = []
    for read in (read_corpus_jsonl, *(lambda p, n=name: read_corpus_column(p, n) for name in COLUMN_NAMES)):
        with pytest.raises(FormatError) as caught:
            read(path)
        messages.append(str(caught.value))
    return messages


class TestCorpusLineTypes:
    @pytest.mark.parametrize("field, value, declared", MISTYPED)
    def test_mistyped_field_is_rejected_by_both_readers(self, tmp_path, field, value, declared):
        path = tmp_path / "corpus.jsonl"
        path.write_text(canonical_line() + "\n" + canonical_line(**{field: value}) + "\n", encoding="utf-8")
        expected = f"{path}:2: bad corpus record: {field} must be {declared}, got {value!r}"
        assert read_errors(path) == [expected] * (1 + len(COLUMN_NAMES))

    def test_null_optional_fields_and_missing_fields_are_accepted(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        lines = [canonical_line(abstract=None, page_count=None, accession_id=None),
                 json.dumps({"publication_type": "B", "title": "Only a title"})]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        records = list(iter_corpus_records(path))
        assert [r.abstract for r in records] == [None, None]
        assert records[1] == record(publication_type="B", title="Only a title")
        assert read_corpus_jsonl(path) == Corpus.from_records(records)
        assert read_corpus_column(path, "authors") == [["Smith, John"], []]

    @pytest.mark.parametrize("line, reason", [
        (b"{not json", "Expecting property name"),
        (b"[1, 2]", "a record must be a JSON object, got [1, 2]"),
        (b"null", "a record must be a JSON object, got None"),
        (b'{"publication_type": "J", "title": "T", "nonsense": 1}', "unexpected keyword argument 'nonsense'"),
        (b'{"publication_type": "J"}', "missing 1 required positional argument: 'title'"),
        (b'{"publication_type": "X", "title": "T"}', "publication_type must be one of B/J/P/S"),
        (b'{"publication_type": "J", "title": "T", "times_cited": -1}', "citation counts must be nonnegative"),
        (b'{"publication_type": "J", "title": "T", "author_keywords": ["a", ""]}', "contains an empty entry"),
        (b'{"publication_type": "J", "title": "\xff"}', "invalid start byte"),
        (b'{"publication_type": "J", "title": "Fr\\ud800"}', "surrogates not allowed"),
        (b'{"publication_type": "J", "title": "T", "research_areas": ["\\udfff"]}', "surrogates not allowed"),
    ])
    def test_bad_line_gives_one_message_from_both_readers(self, tmp_path, line, reason):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(canonical_line().encode() + b"\n\n" + line + b"\n")
        messages = read_errors(path)
        assert messages[0].startswith(f"{path}:3: bad corpus record: ")
        assert reason in messages[0]
        assert messages == [messages[0]] * len(messages)

    def test_escapes_that_spell_valid_text_are_accepted(self, tmp_path):
        # a surrogate pair escape is one astral character; an escaped backslash before u is no escape
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b'{"publication_type": "J", "title": "\\ud835\\udd38 \\\\ud800 \\u00e9"}\n')
        expected = "\U0001d538 \\ud800 \u00e9"
        assert read_corpus_jsonl(path).titles == [expected]
        assert read_corpus_column(path, "authors") == [[]]

    def test_unknown_column_is_a_value_error(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(canonical_line() + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown corpus column 'countries'"):
            read_corpus_column(path, "countries")


class TestFixtureCorpus:
    def test_merge_tally(self, fixture_corpus):
        assert len(fixture_corpus) == 20
        assert len(fixture_corpus.dated_view) == 18

    def test_dated_view_subset_invariant(self, fixture_corpus):
        assert set(fixture_corpus.dated_view) <= set(range(len(fixture_corpus)))
        assert len(fixture_corpus) >= len(fixture_corpus.dated_view)
