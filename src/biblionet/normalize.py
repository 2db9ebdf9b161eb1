"""Field-level cleaning rules for bibliographic records.

Covers publication-date canonicalization, institution/country extraction
from the address field, country name canonicalization, author-list
hygiene, and generic multi-value field splitting.  The rule tables are
built in but can be extended from a JSON configuration file.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from pathlib import Path

log = logging.getLogger(__name__)

_MONTHS = {
    "JAN": 1, "FEB": 2, "MAR": 3, "APR": 4, "MAY": 5, "JUN": 6,
    "JUL": 7, "AUG": 8, "SEP": 9, "OCT": 10, "NOV": 11, "DEC": 12,
    # long and 4-letter forms resolve through the 3-letter prefix, this
    # extra entry only documents the common irregular abbreviation
    "SEPT": 9,
}

_SEASONS = frozenset({"FAL", "WIN", "SUM", "SPR"})

# substring match is case sensitive on purpose: the rule targets the
# uppercase postal-code suffix style ("NJ 08540 USA"), a folded match
# would also fire inside unrelated lowercase words
_COUNTRY_CONTAINS = {"USA": "USA"}

_COUNTRY_EXACT = {
    "north ireland": "United Kingdom",
    "wales": "United Kingdom",
    "scotland": "United Kingdom",
    "england": "United Kingdom",
    "p. r. china": "China",
    "peoples r china": "China",
    "viet nam": "Vietnam",
    "vietnam": "Vietnam",
}


@dataclass(frozen=True, order=True)
class YearMonth:
    """A calendar month; ordering is lexicographic on (year, month)."""

    year: int
    month: int

    def __post_init__(self) -> None:
        if self.year < 1900:
            raise ValueError(f"year out of range: {self.year}")
        if not 1 <= self.month <= 12:
            raise ValueError(f"month out of range: {self.month}")

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}"


@dataclass(frozen=True)
class NormalizationRules:
    """Rule tables used by the cleaning functions."""

    months: dict[str, int]
    seasons: frozenset[str]
    country_contains: dict[str, str]
    country_exact: dict[str, str]

    @classmethod
    def default(cls) -> "NormalizationRules":
        return cls(
            months=dict(_MONTHS),
            seasons=_SEASONS,
            country_contains=dict(_COUNTRY_CONTAINS),
            country_exact=dict(_COUNTRY_EXACT),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "NormalizationRules":
        """Load rule overrides from JSON, merged over the defaults.

        Recognized keys: "months" (token -> 1..12), "seasons" (list of
        tokens; a date token is a season when it equals one or its first
        three letters do), "country_contains" and "country_exact" (raw ->
        canonical).
        Raises OSError when the file cannot be read and ValueError when it
        is not JSON, holds a lone surrogate, has any other key, a value
        has the wrong type or range, or a country name is empty or blank.
        """
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        # json reads "\ud800" as a lone surrogate, which no UTF-8 output can hold
        json.dumps(data, ensure_ascii=False).encode("utf-8")
        if not isinstance(data, dict):
            raise ValueError("rules must be a JSON object")
        unknown = set(data) - {"months", "seasons", "country_contains", "country_exact"}
        if unknown:
            raise ValueError(f"unknown rules keys: {sorted(unknown)}")
        new_months = data.get("months", {})
        if not isinstance(new_months, dict):
            raise ValueError("rules 'months' must map tokens to month numbers")
        for token, month in new_months.items():
            # bool is an int subclass, but `true` is no month
            if isinstance(month, bool) or not isinstance(month, int) or not 1 <= month <= 12:
                raise ValueError(f"rules month {token!r} must be an integer from 1 to 12, got {month!r}")
        new_seasons = data.get("seasons", [])
        if not isinstance(new_seasons, list) or not all(isinstance(s, str) for s in new_seasons):
            raise ValueError("rules 'seasons' must be a list of strings")
        for key in ("country_contains", "country_exact"):
            table = data.get(key, {})
            if not isinstance(table, dict) or not all(isinstance(v, str) for v in table.values()):
                raise ValueError(f"rules {key!r} must map strings to strings")
            # every country contains "", and no country is ""
            if not all(text.strip() for item in table.items() for text in item):
                raise ValueError(f"rules {key!r} must not hold an empty or blank name")
        base = cls.default()
        months = dict(base.months)
        months.update({k.upper(): v for k, v in new_months.items()})
        seasons = frozenset(base.seasons | {s.upper() for s in new_seasons})
        contains = dict(base.country_contains)
        contains.update(data.get("country_contains", {}))
        exact = dict(base.country_exact)
        exact.update({k.casefold(): v for k, v in data.get("country_exact", {}).items()})
        return cls(months=months, seasons=seasons, country_contains=contains, country_exact=exact)


DEFAULT_RULES = NormalizationRules.default()

_ALPHA_RUN = re.compile(r"[A-Za-z]+")


def normalize_date(raw: str | None, year: int, rules: NormalizationRules | None = None) -> YearMonth | None:
    """Resolve a raw publication-date string to a YearMonth.

    Month tokens are matched case-insensitively by exact entry or
    3-letter prefix, so "SEP 10", "Sep", "SEPTEMBER 10", "SEPT" and
    "SEP." all resolve to month 9.  Ranges like "SEP-DEC" resolve to the
    first month.  Season tokens (FAL/WIN/SUM/SPR), matched the same way,
    and unparseable or empty strings yield None; a dropped date is a
    value, not an error.
    """
    rules = rules or DEFAULT_RULES
    if year < 1900:
        return None
    if not raw:
        return None
    for token in _ALPHA_RUN.findall(raw):
        token = token.upper()
        if token in rules.seasons or token[:3] in rules.seasons:
            return None
        month = rules.months.get(token) or rules.months.get(token[:3])
        if month:
            return YearMonth(year, month)
    return None


_SEGMENT_MARKS = re.compile(r"[\[\];]")


def _address_segments(address: str) -> list[str]:
    """Split an address field into per-department segments.

    Segments are separated by ";" outside square brackets (the bracketed
    author list may itself contain semicolons); an unmatched "]" does not
    take the depth below zero.  Trailing periods are stripped; empty
    segments are dropped.
    """
    if "[" not in address:
        segments = address.split(";")
    else:
        segments = []
        depth = start = 0
        for mark in _SEGMENT_MARKS.finditer(address):
            ch = mark.group()
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth = max(0, depth - 1)
            elif depth == 0:
                segments.append(address[start:mark.start()])
                start = mark.end()
        segments.append(address[start:])
    return [s for s in (seg.strip().rstrip(".").strip() for seg in segments) if s]


def _institutions(segments: list[str]) -> list[str]:
    institutions = []
    for segment in segments:
        bracket = segment.find("]")
        rest = segment[bracket + 1:].lstrip() if bracket >= 0 else segment
        if rest.startswith(","):
            rest = rest[1:].lstrip()
        institution = rest.split(",", 1)[0].strip()
        if institution:
            institutions.append(institution)
        else:
            log.warning("address segment yields no institution: %r", segment)
    return institutions


def _countries(segments: list[str], rules: NormalizationRules | None) -> list[str]:
    countries = []
    for segment in segments:
        raw = segment.rsplit(",", 1)[-1].strip()
        if raw:
            countries.append(canonicalize_country(raw, rules))
    return countries


def extract_institutions(address: str | None) -> list[str]:
    """Pull institution names out of a raw address field, one per segment.

    Within each segment the institution is the text between the closing
    "]," of the author list and the next comma; segments without a
    bracketed author list use their first comma-delimited token instead.
    Repeats are kept (`Corpus.institutions` drops them).
    """
    return _institutions(_address_segments(address)) if address else []


def extract_countries(address: str | None, rules: NormalizationRules | None = None) -> list[str]:
    """Pull canonical country names out of a raw address field, one per segment.

    The last comma-delimited token of each segment is taken as the raw
    country and passed through canonicalize_country.  Repeats are kept
    (`Corpus.countries` drops them).
    """
    return _countries(_address_segments(address), rules) if address else []


def extract_countries_and_institutions(address: str | None,
                                       rules: NormalizationRules | None = None) -> tuple[list[str], list[str]]:
    """`(extract_countries(address, rules), extract_institutions(address))`
    from one segmentation of the address."""
    if not address:
        return [], []
    segments = _address_segments(address)
    return _countries(segments, rules), _institutions(segments)


def canonicalize_country(raw: str, rules: NormalizationRules | None = None) -> str:
    """Map a raw country token to its canonical form.

    Rules apply in order: substring rules (any string containing "USA"
    becomes "USA"), exact-name rules (Scotland/Wales/England/North
    Ireland to United Kingdom, the China and Vietnam spellings), then a
    title-cased pass-through for everything else.  Idempotent.
    """
    rules = rules or DEFAULT_RULES
    text = raw.strip()
    if not text:
        raise ValueError("empty country string")
    for needle, canonical in rules.country_contains.items():
        if needle in text:
            return canonical
    canonical = rules.country_exact.get(text.casefold())
    if canonical is not None:
        return canonical
    # title() is not idempotent for some combining characters; iterate to
    # the fixed point so canonical forms stay stable under re-application
    titled = text.title()
    for _ in range(3):
        again = titled.title()
        if again == titled:
            break
        titled = again
    return titled


def split_authors(af_field: str | None) -> list[str]:
    """Split an author-full-names field into a cleaned name list.

    Entries are ";"-separated.  "[anonymous]" entries (any casing) are
    treated as null and removed, as are repeats of the same name within
    one record.
    """
    if not af_field:
        return []
    seen: set[str] = set()
    names = []
    for part in af_field.split(";"):
        name = part.strip()
        if not name or name.casefold() == "[anonymous]":
            continue
        if name not in seen:
            seen.add(name)
            names.append(name)
    return names


def split_list_field(field: str | None, lowercase: bool = False) -> list[str]:
    """Split a ";"-separated multi-value field, trimming entries and dropping empties."""
    if not field:
        return []
    values = []
    for part in field.split(";"):
        value = part.strip()
        if value:
            values.append(value.lower() if lowercase else value)
    return values
