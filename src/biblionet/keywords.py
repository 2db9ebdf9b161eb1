"""Keyword-frequency extraction from titles and abstracts.

Produces word-cloud-ready (token, count) data; rendering is left to
external tools.  Tokens keep interior hyphens and digits ("covid-19"
survives), no stemming is applied.
"""

from __future__ import annotations

import string
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .errors import FormatError
from .stopwords import DEFAULT_STOPWORDS
from .metrics import top_k
from .wos_ingest import BiblioRecord

# a token made only of these characters is dropped, as is a digit-only token
_PUNCTUATION = frozenset(string.punctuation)


@dataclass(frozen=True)
class StopwordSet:
    """The lower-case words to filter out."""

    words: frozenset[str] = DEFAULT_STOPWORDS

    def __post_init__(self) -> None:
        if any(word != word.lower() for word in self.words):
            raise ValueError("stopwords must be lower-case")

    @classmethod
    def from_file(cls, path: str | Path) -> "StopwordSet":
        """Load a custom UTF-8 list, one word per line; blank lines ignored."""
        try:
            with open(path, encoding="utf-8") as fh:
                words = frozenset(line.strip().lower() for line in fh if line.strip())
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8: {exc}") from exc
        return cls(words=words)


def filter_stopwords(tokens: list[str], stopwords: StopwordSet | None = None) -> list[str]:
    """Drop stopwords, punctuation-only tokens and digit-only tokens."""
    words = stopwords.words if stopwords else DEFAULT_STOPWORDS
    return [token for token in tokens
            if token not in words and not _PUNCTUATION.issuperset(token) and not token.isdigit()]


def keyword_frequencies(
    records: Iterable[BiblioRecord],
    stopwords: StopwordSet | None = None,
    n: int = 100,
) -> list[tuple[str, int]]:
    """Most frequent surviving tokens over the titles and abstracts of
    `records`: any iterable of records, such as a list or a stream read
    with `iter_corpus_records`, which keeps no record.

    Ranked as `metrics.top_k` ranks, count descending, ties
    lexicographic ascending; top n.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    raw_counts: Counter = Counter()
    for record in records:
        raw_counts.update(f"{record.title} {record.abstract or ''}".lower().split())
    # strip and filter each distinct raw token once; several raw tokens
    # ("covid-19," and "covid-19") can strip to the same token
    counts: Counter = Counter()
    for raw, count in raw_counts.items():
        token = raw.strip(string.punctuation)
        if token:
            counts[token] += count
    kept = filter_stopwords(list(counts), stopwords)
    return top_k({token: counts[token] for token in kept}, n)
