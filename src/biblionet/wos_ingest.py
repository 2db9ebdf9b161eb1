"""Parsing of Web of Science style export files.

Two export dialects are supported: the tagged flat-file format (2-char
field codes in columns 1-2, continuation lines indented three spaces,
"ER" record terminator, "EF" file terminator) and the tab-delimited
format (header row of field codes, one record per line).  Both feed a
common record builder that keeps the retained columns.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import BinaryIO, Iterable

from .errors import FormatError
from .normalize import (
    NormalizationRules,
    YearMonth,
    extract_countries,
    extract_institutions,
    normalize_date,
    split_authors,
    split_list_field,
)

PUBLICATION_TYPES = frozenset({"B", "J", "P", "S"})

_TAG_LINE = re.compile(r"^([A-Z0-9]{2})( |$)")
_TAG_TOKEN = re.compile(r"^[A-Z0-9]{2}$")


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


def _pooled(column: Iterable[list[str]]) -> list[list[str]]:
    # labels repeat across records: hold one string object per label
    pool: dict[str, str] = {}
    return [[pool.setdefault(value, value) for value in values] for values in column]


def _unique(column: Iterable[list[str]]) -> list[list[str]]:
    # the first occurrence of each value; a list without repeats is its
    # own unique view
    return [values if len(set(values)) == len(values) else list(dict.fromkeys(values))
            for values in column]


# column -> its derivation, record by record, for `Corpus` and `read_corpus_column`
_COLUMNS = {
    "authors": lambda records, rules: _pooled(r.distinct_authors() for r in records),
    "country_multisets": lambda records, rules: _pooled(extract_countries(r.addresses, rules) for r in records),
    "institution_multisets": lambda records, rules: _pooled(extract_institutions(r.addresses) for r in records),
    "research_areas": lambda records, rules: _unique(r.research_areas for r in records),
    "keywords": lambda records, rules: _unique(r.author_keywords for r in records),
}


@dataclass
class Corpus:
    """A record collection and the rules the corpus is cleaned with.

    The cleaned features of the records are columns aligned with
    `records`, and `dated_view` indexes the records with a usable date.
    Each is derived in one pass on its first read and kept,
    so the records must not change once a column has been read.  The
    columns share lists with the records and with each other: read
    them, never modify them.
    """

    records: list[BiblioRecord]
    rules: NormalizationRules | None = None

    def __len__(self) -> int:
        return len(self.records)

    @cached_property
    def dated_view(self) -> dict[int, YearMonth]:
        """Index -> year-month of every record with a usable date."""
        dated = {}
        for index, record in enumerate(self.records):
            ym = normalize_date(record.publication_date, record.publication_year, self.rules)
            if ym is not None:
                dated[index] = ym
        return dated

    @cached_property
    def authors(self) -> list[list[str]]:
        """Distinct authors of each record."""
        return _COLUMNS["authors"](self.records, self.rules)

    @cached_property
    def country_multisets(self) -> list[list[str]]:
        """Canonical countries of each record, one per address segment."""
        return _COLUMNS["country_multisets"](self.records, self.rules)

    @cached_property
    def countries(self) -> list[list[str]]:
        """Distinct canonical countries of each record, in first-segment order."""
        return _unique(self.country_multisets)

    @cached_property
    def institution_multisets(self) -> list[list[str]]:
        """Institutions of each record, one per address segment."""
        return _COLUMNS["institution_multisets"](self.records, self.rules)

    @cached_property
    def institutions(self) -> list[list[str]]:
        """Distinct institutions of each record, in first-segment order."""
        return _unique(self.institution_multisets)

    @cached_property
    def research_areas(self) -> list[list[str]]:
        return _COLUMNS["research_areas"](self.records, self.rules)

    @cached_property
    def keywords(self) -> list[list[str]]:
        return _COLUMNS["keywords"](self.records, self.rules)

    @classmethod
    def from_records(cls, records: list[BiblioRecord], rules: NormalizationRules | None = None) -> "Corpus":
        return cls(records=list(records), rules=rules)


@dataclass
class ParseResult:
    """Records parsed from one stream plus per-record skip warnings."""

    records: list[BiblioRecord]
    warnings: list[str]

    @property
    def skipped(self) -> int:
        return len(self.warnings)


def _to_int(text: str, default: int = 0) -> int:
    try:
        return int(text.strip())
    except (ValueError, AttributeError):
        return default


def _build_record(fields: dict[str, list[str]], warnings: list[str], context: str) -> BiblioRecord | None:
    """Assemble a BiblioRecord from tag -> raw lines; None if unusable."""
    def joined(tag: str) -> str:
        return " ".join(part.strip() for part in fields.get(tag, [])).strip()

    title = joined("TI")
    if not title:
        warnings.append(f"{context}: record missing title, skipped")
        return None

    pt = joined("PT")
    pt = pt.split()[0].upper() if pt else "J"
    if pt not in PUBLICATION_TYPES:
        warnings.append(f"{context}: unknown publication type {pt!r}, record skipped")
        return None

    authors: list[str] = []
    for line in fields.get("AF", []):
        authors.extend(name.strip() for name in line.split(";") if name.strip())

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
        addresses="; ".join(part.strip() for part in fields.get("C1", []) if part.strip()),
        cited_reference_count=max(0, _to_int(joined("NR"))),
        times_cited=max(0, _to_int(joined("TC"))),
        publication_date=joined("PD"),
        publication_year=_to_int(joined("PY")),
        research_areas=split_list_field(joined("SC")),
        page_count=page_count if page_count > 0 else None,
        accession_id=joined("UT") or None,
    )


def _parse_tagged(text: str) -> ParseResult:
    records: list[BiblioRecord] = []
    warnings: list[str] = []
    fields: dict[str, list[str]] = {}
    current_tag: str | None = None
    record_start = 1

    def flush(line_no: int) -> None:
        nonlocal fields, current_tag, record_start
        if fields:
            record = _build_record(fields, warnings, f"record starting at line {record_start}")
            if record is not None:
                records.append(record)
        fields = {}
        current_tag = None
        record_start = line_no + 1

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.rstrip()
        if not line.strip():
            continue
        match = _TAG_LINE.match(line)
        if match:
            tag = match.group(1)
            if tag == "ER":
                flush(line_no)
                continue
            if tag == "EF":
                break
            if not fields:
                record_start = line_no
            current_tag = tag
            fields.setdefault(tag, []).append(line[3:].strip())
        elif current_tag:
            # a continuation line; nonstandard wrapping without the
            # 3-space indent is tolerated
            fields[current_tag].append(line.strip())
    flush(0)
    return ParseResult(records=records, warnings=warnings)


def _parse_tab_delimited(text: str) -> ParseResult:
    lines = text.splitlines()
    while lines and not lines[0].strip():
        lines.pop(0)
    if not lines:
        return ParseResult(records=[], warnings=[])

    header = lines[0].rstrip("\r\n").split("\t")
    tags = [tag.strip() for tag in header]
    bad = [tag for tag in tags if not _TAG_TOKEN.match(tag)]
    if bad:
        raise FormatError(f"malformed header at line 1: invalid field tags {bad}")

    records: list[BiblioRecord] = []
    warnings: list[str] = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split("\t")
        fields: dict[str, list[str]] = {}
        for tag, cell in zip(tags, cells):
            if cell.strip():
                fields[tag] = [cell.strip()]
        record = _build_record(fields, warnings, f"line {line_no}")
        if record is not None:
            records.append(record)
    return ParseResult(records=records, warnings=warnings)


def sniff_format(text: str) -> str:
    """Guess the export dialect from the first non-empty line."""
    for line in text.splitlines():
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
    if format == "auto":
        format = sniff_format(text)
    if format == "tagged":
        return _parse_tagged(text)
    if format == "tab_delimited":
        return _parse_tab_delimited(text)
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


def merge_corpora(parts: list[list[BiblioRecord]], rules: NormalizationRules | None = None) -> Corpus:
    """Concatenate parsed parts, drop duplicates, and resolve dates.

    Parts are concatenated in argument order; for each duplicate group
    only the first occurrence is kept.  Records whose date cannot be
    resolved stay in the corpus but are absent from the dated view.
    """
    merged: list[BiblioRecord] = []
    for part in parts:
        merged.extend(part)
    dropped = {index for group in detect_duplicates(merged) for index in group[1:]}
    kept = [record for index, record in enumerate(merged) if index not in dropped]
    return Corpus.from_records(kept, rules)


def write_corpus_jsonl(corpus: Corpus, path: str | Path) -> None:
    """Write one JSON object per record, field names as in BiblioRecord."""
    # every field is a str, int, None or list of str, so the instance
    # dict serializes as is; dataclasses.asdict would deep-copy each one
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for record in corpus.records:
            fh.write(json.dumps(vars(record), sort_keys=True, ensure_ascii=False))
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


def _corpus_records(path: str | Path) -> Iterable[BiblioRecord]:
    """The records of a corpus.jsonl file, built and checked one line at a time."""
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
    return Corpus(list(_corpus_records(path)), rules)


def read_corpus_column(path: str | Path, name: str, rules: NormalizationRules | None = None) -> list[list[str]]:
    """`read_corpus_jsonl(path, rules).<name>` for the columns authors, country_multisets,
    institution_multisets, research_areas and keywords, keeping no record once its feature is taken."""
    if name not in _COLUMNS:
        raise ValueError(f"unknown corpus column {name!r}, expected one of {sorted(_COLUMNS)}")
    return _COLUMNS[name](_corpus_records(path), rules)
