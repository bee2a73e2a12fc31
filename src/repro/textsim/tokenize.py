"""Tokenizers shared by the syntactic representation models.

The paper uses two token granularities throughout: whitespace tokens
(words) and character/token n-grams with ``n in {2, 3, 4}`` for
characters and ``n in {1, 2, 3}`` for tokens.  Following the paper's
running example, character n-grams are drawn from the raw value with
whitespace replaced by ``_`` ("Joe Biden" -> 'Joe', 'oe_', 'e_B', ...).
"""

from __future__ import annotations

import re
from collections import Counter

__all__ = [
    "tokens",
    "character_ngrams",
    "token_ngrams",
    "normalize_text",
    "padded_trigrams",
]

_TOKEN_PATTERN = re.compile(r"[A-Za-z0-9]+")


def normalize_text(text: str) -> str:
    """Lower-case and collapse whitespace — shared pre-processing."""
    return " ".join(text.lower().split())


def tokens(text: str) -> list[str]:
    """Alphanumeric word tokens of ``text``, lower-cased."""
    return _TOKEN_PATTERN.findall(text.lower())


def character_ngrams(text: str, n: int) -> list[str]:
    """Character n-grams of ``text`` with whitespace mapped to ``_``.

    Texts shorter than ``n`` yield the whole (padded) text as a single
    gram so that very short values still produce a representation.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    prepared = normalize_text(text).replace(" ", "_")
    if not prepared:
        return []
    if len(prepared) < n:
        return [prepared]
    return [prepared[i : i + n] for i in range(len(prepared) - n + 1)]


def token_ngrams(text: str, n: int) -> list[str]:
    """Token n-grams of ``text`` (words joined by a single space)."""
    if n <= 0:
        raise ValueError("n must be positive")
    words = tokens(text)
    if not words:
        return []
    if len(words) < n:
        return [" ".join(words)]
    return [" ".join(words[i : i + n]) for i in range(len(words) - n + 1)]


def padded_trigrams(text: str) -> Counter:
    """Tri-grams with ``##`` padding, as in Simmetrics' QGramsDistance."""
    padded = "##" + text + "##"
    return Counter(padded[i : i + 3] for i in range(len(padded) - 2))
