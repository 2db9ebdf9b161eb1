"""Parsing of Web of Science style export files.

Two export dialects are supported: the tagged flat-file format (2-char
field codes in columns 1-2, continuation lines indented three spaces,
"ER" record terminator, "EF" file terminator) and the tab-delimited
format (header row of field codes, one record per line).  Both feed a
common record builder that keeps the retained columns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from itertools import islice, repeat
from pathlib import Path
from sys import intern
from typing import BinaryIO, Iterable, Iterator

from .errors import FormatError
from .normalize import (
    NormalizationRules,
    YearMonth,
    extract_countries,
    extract_countries_and_institutions,
    extract_institutions,
    normalize_date,
    split_authors,
    split_list_field,
)

PUBLICATION_TYPES = frozenset({"B", "J", "P", "S"})

# the characters of a field tag, ASCII only: str.isupper and str.isalnum
# also take letters and digits of other scripts
_TAG_CHARS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789")


@dataclass
class BiblioRecord:
    """One publication with the retained export columns."""

    publication_type: str
    title: str
    author_full_names: list[str] = field(default_factory=list)
    source_abbrev: str = ""
    language: str = ""
    document_type: str = ""
    author_keywords: list[str] = field(default_factory=list)
    abstract: str | None = None
    addresses: str = ""
    cited_reference_count: int = 0
    times_cited: int = 0
    publication_date: str = ""
    publication_year: int = 0
    research_areas: list[str] = field(default_factory=list)
    page_count: int | None = None
    accession_id: str | None = None

    def __post_init__(self) -> None:
        if self.publication_type not in PUBLICATION_TYPES:
            raise ValueError(f"publication_type must be one of B/J/P/S, got {self.publication_type!r}")
        if self.times_cited < 0 or self.cited_reference_count < 0:
            raise ValueError("citation counts must be nonnegative")
        if self.page_count is not None and self.page_count < 1:
            raise ValueError("page_count must be positive when present")
        for name in ("author_full_names", "author_keywords", "research_areas"):
            if not all(getattr(self, name)):
                raise ValueError(f"{name} contains an empty entry")

    def distinct_authors(self) -> list[str]:
        """Author names with '[anonymous]' entries and repeats removed."""
        return split_authors("; ".join(self.author_full_names))


def _distinct(values: list[str]) -> list[str]:
    # the first occurrence of each value; a list without repeats is returned itself
    return values if len(values) < 2 or len(set(values)) == len(values) else list(dict.fromkeys(values))


# column -> its value for one record, for `read_corpus_column`; `Corpus.from_records`
# derives the same values, the two address columns from one segmentation
_COLUMNS = {
    "authors": lambda record, rules: record.distinct_authors(),
    "country_multisets": lambda record, rules: extract_countries(record.addresses, rules),
    "institution_multisets": lambda record, rules: extract_institutions(record.addresses),
    "research_areas": lambda record, rules: _distinct(record.research_areas),
    "keywords": lambda record, rules: _distinct(record.author_keywords),
}


@dataclass(frozen=True)
class Corpus:
    """The cleaned features of a record collection, one column per feature
    aligned by record index.

    `from_records` derives every column in one pass and keeps no record.
    A single-valued field's column holds a 1-tuple per record, () for no
    value (`document_types` the leading non-blank category: "Article; Early
    Access" is "Article"); `research_area_multisets` the areas as exported, and
    `dated_view` the year-month of each record index with a usable date.
    Columns share strings, tuples and lists: never modify them.
    """

    titles: list[str]
    publication_types: list[tuple[str, ...]]
    document_types: list[tuple[str, ...]]
    languages: list[tuple[str, ...]]
    sources: list[tuple[str, ...]]
    times_cited: list[int]
    cited_reference_counts: list[int]
    page_counts: list[int | None]
    authors: list[list[str]]
    country_multisets: list[list[str]]
    countries: list[list[str]]
    institution_multisets: list[list[str]]
    institutions: list[list[str]]
    research_area_multisets: list[list[str]]
    research_areas: list[list[str]]
    keywords: list[list[str]]
    dated_view: dict[int, YearMonth]

    def __len__(self) -> int:
        return len(self.titles)

    @classmethod
    def from_records(cls, records: Iterable[BiblioRecord], rules: NormalizationRules | None = None) -> "Corpus":
        shared: dict = {}  # the one 1-tuple of each value, the one YearMonth of each month

        def single(value: str) -> tuple[str]:
            return shared.setdefault(value, (value,))

        titles, types, documents, languages, sources, cited, references, pages = ([] for _ in range(8))
        authors, countries, institutions, areas, keywords = ([] for _ in range(5))
        dated: dict[int, YearMonth] = {}
        for index, record in enumerate(records):
            titles.append(record.title)
            types.append(single(record.publication_type))
            categories = split_list_field(record.document_type)
            documents.append(single(categories[0]) if categories else ())
            languages.append(single(record.language) if record.language else ())
            sources.append(single(record.source_abbrev) if record.source_abbrev else ())
            cited.append(record.times_cited)
            references.append(record.cited_reference_count)
            pages.append(record.page_count)
            authors.append(list(map(intern, record.distinct_authors())))
            record_countries, record_institutions = extract_countries_and_institutions(record.addresses, rules)
            countries.append(list(map(intern, record_countries)))
            institutions.append(list(map(intern, record_institutions)))
            areas.append(list(map(intern, record.research_areas)))
            keywords.append(_distinct(list(map(intern, record.author_keywords))))
            month = normalize_date(record.publication_date, record.publication_year, rules)
            if month is not None:
                dated[index] = shared.setdefault(month, month)
        return cls(titles, types, documents, languages, sources, cited, references, pages, authors,
                   countries, list(map(_distinct, countries)), institutions, list(map(_distinct, institutions)),
                   areas, list(map(_distinct, areas)), keywords, dated)


@dataclass
class ParseResult:
    """Records parsed from one stream plus per-record skip warnings."""

    records: list[BiblioRecord]
    warnings: list[str]

    @property
    def skipped(self) -> int:
        return len(self.warnings)


def _to_int(text: str, default: int = 0) -> int:
    if not text:  # an empty count field is common: spare it the exception
        return default
    try:
        return int(text.strip())
    except ValueError:
        return default


def _build_record(fields: dict[str, list[str]], warnings: list[str], context: str) -> BiblioRecord | None:
    """Assemble a BiblioRecord from tag -> stripped parts; None if unusable."""
    def joined(tag: str) -> str:
        parts = fields.get(tag)
        if not parts:
            return ""
        # only an empty part at either end leaves a blank for the strip
        return parts[0] if len(parts) == 1 else " ".join(parts).strip()

    title = joined("TI")
    if not title:
        warnings.append(f"{context}: record missing title, skipped")
        return None

    pt = joined("PT")
    pt = pt.split()[0].upper() if pt else "J"
    if pt not in PUBLICATION_TYPES:
        warnings.append(f"{context}: unknown publication type {pt!r}, record skipped")
        return None

    authors = [name for line in fields.get("AF", ()) for name in map(str.strip, line.split(";")) if name]

    page_count = _to_int(joined("PG"), 0)
    return BiblioRecord(
        publication_type=pt,
        title=title,
        author_full_names=authors,
        source_abbrev=joined("JI"),
        language=joined("LA"),
        document_type=joined("DT"),
        author_keywords=split_list_field(joined("DE"), lowercase=True),
        abstract=joined("AB") or None,
        addresses="; ".join(filter(None, fields.get("C1", ()))),
        cited_reference_count=max(0, _to_int(joined("NR"))),
        times_cited=max(0, _to_int(joined("TC"))),
        publication_date=joined("PD"),
        publication_year=_to_int(joined("PY")),
        research_areas=split_list_field(joined("SC")),
        page_count=page_count if page_count > 0 else None,
        accession_id=joined("UT") or None,
    )


def _parse_tagged(lines: list[str]) -> ParseResult:
    records: list[BiblioRecord] = []
    warnings: list[str] = []
    fields: dict[str, list[str]] = {}
    parts: list[str] | None = None  # the current tag's parts, which continuation lines extend
    record_start = 0  # the line of the current record's first tag line

    def flush() -> None:
        nonlocal fields, parts
        if fields:
            record = _build_record(fields, warnings, f"record starting at line {record_start}")
            if record is not None:
                records.append(record)
        fields = {}
        parts = None

    for line_no, line in enumerate(lines, start=1):
        line = line.rstrip()
        if not line:
            continue
        # a tag line: two tag characters, then a space or the end of the line
        if line[0] in _TAG_CHARS and len(line) > 1 and line[1] in _TAG_CHARS and (len(line) == 2 or line[2] == " "):
            tag = line[:2]
            if tag == "ER":
                flush()
                continue
            if tag == "EF":
                break
            if not fields:
                record_start = line_no
            parts = fields.get(tag)
            if parts is None:
                parts = fields[tag] = []
            parts.append(line[3:].lstrip())
        elif parts is not None:
            # a continuation line; nonstandard wrapping without the
            # 3-space indent is tolerated
            parts.append(line.lstrip())
    flush()
    return ParseResult(records=records, warnings=warnings)


def _parse_tab_delimited(lines: list[str]) -> ParseResult:
    first = next((index for index, line in enumerate(lines) if line.strip()), None)
    if first is None:
        return ParseResult(records=[], warnings=[])

    header = lines[first].rstrip("\r\n").split("\t")
    tags = [tag.strip() for tag in header]
    bad = [tag for tag in tags if len(tag) != 2 or not _TAG_CHARS.issuperset(tag)]
    if bad:
        raise FormatError(f"malformed header at line 1: invalid field tags {bad}")

    records: list[BiblioRecord] = []
    warnings: list[str] = []
    for line_no, line in enumerate(islice(lines, first + 1, None), start=2):
        if not line.strip():
            continue
        fields: dict[str, list[str]] = {}
        for tag, cell in zip(tags, line.split("\t")):
            cell = cell.strip()
            if cell:
                fields[tag] = [cell]
        record = _build_record(fields, warnings, f"line {line_no}")
        if record is not None:
            records.append(record)
    return ParseResult(records=records, warnings=warnings)


def sniff_format(lines: list[str]) -> str:
    """Guess the export dialect from the first non-empty of an export's
    lines, as `str.splitlines` splits them."""
    for line in lines:
        if line.strip():
            return "tab_delimited" if "\t" in line else "tagged"
    return "tagged"


def parse_export(stream: BinaryIO | str | bytes, format: str = "auto") -> ParseResult:
    """Parse one export stream into records.

    `stream` may be a binary file object, bytes, or already-decoded
    text; content must be UTF-8 (an optional byte-order mark is
    stripped), or FormatError is raised.  `format` is "tagged",
    "tab_delimited", or "auto".  Unknown tags are ignored; a record
    missing its title is skipped with a counted warning.
    """
    if not isinstance(stream, (bytes, str)):
        stream = stream.read()
    try:
        text = stream.decode("utf-8-sig") if isinstance(stream, bytes) else stream.lstrip("\ufeff")
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8: {exc}") from exc
    lines = text.splitlines()  # the one split, which sniffing and parsing share
    if format == "auto":
        format = sniff_format(lines)
    if format == "tagged":
        return _parse_tagged(lines)
    if format == "tab_delimited":
        return _parse_tab_delimited(lines)
    raise ValueError(f"unknown format {format!r}")


def parse_file(path: str | Path, format: str = "auto") -> ParseResult:
    with open(path, "rb") as fh:
        try:
            return parse_export(fh, format)
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from exc


def _duplicate_key_triple(record: BiblioRecord) -> tuple[str, str, str]:
    first_author = record.author_full_names[0] if record.author_full_names else ""
    return (record.title.strip().casefold(), first_author, record.source_abbrev)


def detect_duplicates(records: list[BiblioRecord]) -> list[list[int]]:
    """Group indices of records that are duplicates of one another.

    Two records match when their accession ids are equal, or, when
    either lacks an accession id, when their (case-folded trimmed
    title, first author, source) triples are equal.  Groups are the
    equivalence classes of that relation; only groups of size >= 2 are
    returned, ordered by first occurrence.
    """
    parent = list(range(len(records)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    by_accession: dict[str, int] = {}
    by_triple: dict[tuple[str, str, str], list[int]] = {}
    for index, record in enumerate(records):
        if record.accession_id:
            first = by_accession.setdefault(record.accession_id, index)
            if first != index:
                union(first, index)
        by_triple.setdefault(_duplicate_key_triple(record), []).append(index)

    for bucket in by_triple.values():
        if len(bucket) < 2:
            continue
        lacking = [i for i in bucket if not records[i].accession_id]
        if not lacking:
            continue  # all carry distinct-or-equal ids; id rule already applied
        anchor = lacking[0]
        for i in bucket:
            if i == anchor:
                continue
            union(anchor, i)

    groups: dict[int, list[int]] = {}
    for index in range(len(records)):
        groups.setdefault(find(index), []).append(index)
    result = [sorted(members) for members in groups.values() if len(members) >= 2]
    result.sort(key=lambda group: group[0])
    return result


def merge_corpora(parts: list[list[BiblioRecord]]) -> list[BiblioRecord]:
    """The records of the parsed parts without duplicates.

    Parts are concatenated in argument order; for each duplicate group
    only the first occurrence is kept.  No feature is cleaned here:
    `Corpus.from_records` cleans the kept records.
    """
    merged: list[BiblioRecord] = []
    for part in parts:
        merged.extend(part)
    dropped = {index for group in detect_duplicates(merged) for index in group[1:]}
    return [record for index, record in enumerate(merged) if index not in dropped]


def write_corpus_jsonl(records: Iterable[BiblioRecord], path: str | Path) -> None:
    """Write one JSON object per record, field names as in BiblioRecord."""
    # every field is a str, int, None or list of str, so the instance
    # dict serializes as is; dataclasses.asdict would deep-copy each one
    encode = json.JSONEncoder(sort_keys=True, ensure_ascii=False).encode
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(encode(vars(record)))
            fh.write("\n")


# field -> the JSON types that may hold it (a bool is no count)
_JSON_TYPES = {"str": str, "int": int, "list[str]": list, "None": type(None)}
_FIELD_TYPES = {f.name: tuple(_JSON_TYPES[t] for t in f.type.split(" | ")) for f in fields(BiblioRecord)}


def _checked(values: dict) -> dict:
    if type(values) is not dict:
        raise TypeError(f"a record must be a JSON object, got {values!r}")
    for name, value in values.items():
        kind = type(value)  # unknown fields pass here, for BiblioRecord to name
        if kind not in _FIELD_TYPES.get(name, (kind,)) or kind is list and not all(map(isinstance, value, repeat(str))):
            raise TypeError(f"{name} must be {BiblioRecord.__annotations__[name]}, got {value!r}")
    return values


def iter_corpus_records(path: str | Path) -> Iterator[BiblioRecord]:
    """The records of a corpus.jsonl file, built and checked one line at a time,
    so a caller that keeps none holds one record at a time."""
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                values = json.loads(line.decode("utf-8"))
                # only a \u escape spells a lone surrogate, which no UTF-8 output
                # can hold; the one-byte search passes over most lines quickest
                if b"\\" in line and b"\\u" in line:
                    json.dumps(values, ensure_ascii=False).encode("utf-8")
                record = BiblioRecord(**_checked(values))
            except (TypeError, ValueError) as exc:  # also bad JSON, bad UTF-8 and lone surrogates
                raise FormatError(f"{path}:{line_no}: bad corpus record: {exc}") from exc
            yield record


def read_corpus_jsonl(path: str | Path, rules: NormalizationRules | None = None) -> Corpus:
    """The corpus of a corpus.jsonl file, its columns built as the records stream past."""
    return Corpus.from_records(iter_corpus_records(path), rules)


def read_corpus_column(path: str | Path, name: str, rules: NormalizationRules | None = None) -> list[list[str]]:
    """`read_corpus_jsonl(path, rules).<name>` for the columns authors, country_multisets,
    institution_multisets, research_areas and keywords, cleaning only that feature and keeping no record."""
    if name not in _COLUMNS:
        raise ValueError(f"unknown corpus column {name!r}, expected one of {sorted(_COLUMNS)}")
    derive = _COLUMNS[name]
    return [list(map(intern, derive(record, rules))) for record in iter_corpus_records(path)]
