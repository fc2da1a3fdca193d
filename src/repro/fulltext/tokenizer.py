"""Tokenization for full-text indexing and querying.

Lowercased word tokens, digit runs kept, a small English stopword list, and
a light suffix-stripping stemmer so "replicates"/"replicated"/"replication"
meet at a common stem. The same pipeline runs at index and query time.
"""

from __future__ import annotations

import re
from functools import lru_cache

_WORD = re.compile(r"[a-z0-9]+")

STOPWORDS = frozenset(
    """a an and are as at be but by for from has have i in is it its of on or
    that the this to was were will with not no you your we our they he she"""
    .split()
)

_SUFFIXES = ("ingly", "edly", "ation", "ions", "ing", "ies", "ied", "ion",
             "es", "ed", "ly", "s")


@lru_cache(maxsize=1 << 16)
def stem(word: str) -> str:
    """Very light suffix stripping; never shortens below three characters.

    Memoised: a corpus repeats a small vocabulary, so indexing and query
    planning mostly hit the memo (bounded, least recently used out)."""
    for suffix in _SUFFIXES:
        if word.endswith(suffix) and len(word) - len(suffix) >= 3:
            base = word[: -len(suffix)]
            if suffix in ("ies", "ied"):
                base += "y"
            return base
    return word


def tokenize(text: str, stop: bool = True, do_stem: bool = True) -> list[str]:
    """Text -> token list. Stopwords dropped, stems applied, order kept."""
    words = _WORD.findall(text.lower())
    if stop:
        words = [word for word in words if word not in STOPWORDS]
    return [stem(word) for word in words] if do_stem else words
