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

from .errors import FormatError
from .stopwords import DEFAULT_STOPWORDS
from .wos_ingest import Corpus

_PUNCTUATION = frozenset(string.punctuation)


@dataclass(frozen=True)
class StopwordSet:
    """Words, punctuation characters, and digit handling for filtering."""

    words: frozenset[str] = DEFAULT_STOPWORDS
    punctuation: frozenset[str] = _PUNCTUATION
    include_digits: bool = True

    def __post_init__(self) -> None:
        if any(word != word.lower() for word in self.words):
            raise ValueError("stopwords must be lower-case")
        if any(len(ch) != 1 for ch in self.punctuation):
            raise ValueError("punctuation entries must be single characters")

    @classmethod
    def from_file(cls, path: str | Path, include_digits: bool = True) -> "StopwordSet":
        """Load a custom UTF-8 list, one word per line; blank lines ignored."""
        try:
            with open(path, encoding="utf-8") as fh:
                words = frozenset(line.strip().lower() for line in fh if line.strip())
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8: {exc}") from exc
        return cls(words=words, include_digits=include_digits)


_DEFAULT_STOPWORD_SET = StopwordSet()


def filter_stopwords(tokens: list[str], stopwords: StopwordSet | None = None) -> list[str]:
    """Drop stopwords, pure-punctuation tokens, and (optionally) digits."""
    stopwords = stopwords or _DEFAULT_STOPWORD_SET
    kept = []
    for token in tokens:
        if token in stopwords.words:
            continue
        if all(ch in stopwords.punctuation for ch in token):
            continue
        if stopwords.include_digits and token.isdigit():
            continue
        kept.append(token)
    return kept


def keyword_frequencies(
    corpus: Corpus,
    stopwords: StopwordSet | None = None,
    n: int = 100,
) -> list[tuple[str, int]]:
    """Most frequent surviving tokens over all titles and abstracts.

    Sorted by count descending, ties lexicographic ascending; top n.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    raw_counts: Counter = Counter()
    for record in corpus.records:
        raw_counts.update(f"{record.title} {record.abstract or ''}".lower().split())
    # strip and filter each distinct raw token once; several raw tokens
    # ("covid-19," and "covid-19") can strip to the same token
    counts: Counter = Counter()
    for raw, count in raw_counts.items():
        token = raw.strip(string.punctuation)
        if token:
            counts[token] += count
    kept = filter_stopwords(list(counts), stopwords)
    ranked = sorted(((token, counts[token]) for token in kept), key=lambda item: (-item[1], item[0]))
    return ranked[:n]
