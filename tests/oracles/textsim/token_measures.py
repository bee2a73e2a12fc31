"""Token-level string similarity measures (Appendix B.1.2).

Strings are first tokenized into words; set-based measures use the
distinct tokens, multiset ("bag") measures use token frequencies — the
distinction follows the paper's definitions (e.g. Dice vs Simon-White,
Jaccard vs Generalized Jaccard).
"""

from __future__ import annotations

import math
from collections import Counter

from tests.oracles.textsim.smith_waterman import smith_waterman_similarity
from repro.textsim.tokenize import tokens

__all__ = [
    "cosine_token_similarity",
    "euclidean_token_similarity",
    "block_distance_similarity",
    "dice_similarity",
    "simon_white_similarity",
    "overlap_coefficient",
    "jaccard_similarity",
    "generalized_jaccard_similarity",
    "monge_elkan_similarity",
]


def _bags(a: str, b: str) -> tuple[Counter, Counter]:
    return Counter(tokens(a)), Counter(tokens(b))


def _empty_rule(bag_a: Counter, bag_b: Counter) -> float | None:
    """Shared handling of empty token bags: both empty -> identical."""
    if not bag_a and not bag_b:
        return 1.0
    if not bag_a or not bag_b:
        return 0.0
    return None


def cosine_token_similarity(a: str, b: str) -> float:
    """Cosine of the angle between the token frequency vectors."""
    bag_a, bag_b = _bags(a, b)
    base = _empty_rule(bag_a, bag_b)
    if base is not None:
        return base
    dot = sum(count * bag_b[token] for token, count in bag_a.items())
    norm_a = math.sqrt(sum(c * c for c in bag_a.values()))
    norm_b = math.sqrt(sum(c * c for c in bag_b.values()))
    return dot / (norm_a * norm_b)


def euclidean_token_similarity(a: str, b: str) -> float:
    """Euclidean distance of frequency vectors, normalized & inverted.

    The maximum distance of two frequency vectors is attained when the
    token sets are disjoint, giving ``sqrt(|a|^2 + |b|^2)``-style bound
    ``sqrt(||fa||^2 + ||fb||^2)``.
    """
    bag_a, bag_b = _bags(a, b)
    base = _empty_rule(bag_a, bag_b)
    if base is not None:
        return base
    squared = 0.0
    for token in bag_a.keys() | bag_b.keys():
        squared += (bag_a[token] - bag_b[token]) ** 2
    bound = math.sqrt(
        sum(c * c for c in bag_a.values())
        + sum(c * c for c in bag_b.values())
    )
    if bound == 0.0:
        return 1.0
    return 1.0 - math.sqrt(squared) / bound


def block_distance_similarity(a: str, b: str) -> float:
    """L1 (Manhattan) distance of frequency vectors, normalized & inverted."""
    bag_a, bag_b = _bags(a, b)
    base = _empty_rule(bag_a, bag_b)
    if base is not None:
        return base
    difference = 0
    for token in bag_a.keys() | bag_b.keys():
        difference += abs(bag_a[token] - bag_b[token])
    total = sum(bag_a.values()) + sum(bag_b.values())
    return 1.0 - difference / total


def dice_similarity(a: str, b: str) -> float:
    """``2 |A ∩ B| / (|A| + |B|)`` over token *sets*."""
    set_a = set(tokens(a))
    set_b = set(tokens(b))
    if not set_a and not set_b:
        return 1.0
    if not set_a or not set_b:
        return 0.0
    return 2.0 * len(set_a & set_b) / (len(set_a) + len(set_b))


def simon_white_similarity(a: str, b: str) -> float:
    """Quantitative Dice over token *multisets*."""
    bag_a, bag_b = _bags(a, b)
    base = _empty_rule(bag_a, bag_b)
    if base is not None:
        return base
    overlap = sum(min(count, bag_b[token]) for token, count in bag_a.items())
    total = sum(bag_a.values()) + sum(bag_b.values())
    return 2.0 * overlap / total


def overlap_coefficient(a: str, b: str) -> float:
    """``|A ∩ B| / min(|A|, |B|)`` over token sets."""
    set_a = set(tokens(a))
    set_b = set(tokens(b))
    if not set_a and not set_b:
        return 1.0
    if not set_a or not set_b:
        return 0.0
    return len(set_a & set_b) / min(len(set_a), len(set_b))


def jaccard_similarity(a: str, b: str) -> float:
    """``|A ∩ B| / |A ∪ B|`` over token sets."""
    set_a = set(tokens(a))
    set_b = set(tokens(b))
    if not set_a and not set_b:
        return 1.0
    if not set_a or not set_b:
        return 0.0
    return len(set_a & set_b) / len(set_a | set_b)


def generalized_jaccard_similarity(a: str, b: str) -> float:
    """``Σ min(fa, fb) / Σ max(fa, fb)`` over token multisets."""
    bag_a, bag_b = _bags(a, b)
    base = _empty_rule(bag_a, bag_b)
    if base is not None:
        return base
    minimum = 0
    maximum = 0
    for token in bag_a.keys() | bag_b.keys():
        minimum += min(bag_a[token], bag_b[token])
        maximum += max(bag_a[token], bag_b[token])
    return minimum / maximum


def monge_elkan_similarity(a: str, b: str) -> float:
    """Average best Smith-Waterman similarity of ``a``'s tokens in ``b``.

    Note: Monge-Elkan is asymmetric by definition; the paper applies it
    as-is, so no symmetrization is performed here.
    """
    tokens_a = tokens(a)
    tokens_b = tokens(b)
    if not tokens_a and not tokens_b:
        return 1.0
    if not tokens_a or not tokens_b:
        return 0.0
    total = 0.0
    for token_a in tokens_a:
        total += max(
            smith_waterman_similarity(token_a, token_b)
            for token_b in tokens_b
        )
    return total / len(tokens_a)
