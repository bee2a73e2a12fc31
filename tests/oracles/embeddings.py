"""Frozen per-pair RWMD loop: the oracle of the bucketed RWMD kernel.

Before the kernel engine the semantic RWMD matrix called
:func:`relaxed_word_mover_distance`, the scalar RWMD of one pair of
texts, once per pair.  Both are kept here verbatim; the bucketed
:func:`~repro.embeddings.measures.word_mover_similarity_matrix` must
equal the loop bit for bit (``tests/pipeline/test_kernels.py``,
``benchmarks/bench_kernel_engine.py``).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "relaxed_word_mover_distance",
    "word_mover_similarity_matrix_legacy",
]


def word_mover_similarity_matrix_legacy(
    token_matrices_left: list[np.ndarray],
    token_matrices_right: list[np.ndarray],
    stats_left: list[tuple[np.ndarray, np.ndarray]] | None = None,
    stats_right: list[tuple[np.ndarray, np.ndarray]] | None = None,
) -> np.ndarray:
    """Frozen per-pair RWMD loop (pre-kernel-engine reference)."""
    n_left = len(token_matrices_left)
    n_right = len(token_matrices_right)
    result = np.zeros((n_left, n_right))
    no_stats = (None, None)
    for i, tokens_a in enumerate(token_matrices_left):
        sq_a, weights_a = (
            stats_left[i] if stats_left is not None else no_stats
        )
        for j, tokens_b in enumerate(token_matrices_right):
            sq_b, weights_b = (
                stats_right[j] if stats_right is not None else no_stats
            )
            distance = relaxed_word_mover_distance(
                tokens_a,
                tokens_b,
                weights_a=weights_a,
                weights_b=weights_b,
                sq_a=sq_a,
                sq_b=sq_b,
            )
            if np.isinf(distance):
                result[i, j] = 0.0
            else:
                result[i, j] = 1.0 / (1.0 + distance)
    return result


def _directional_cost(
    source: np.ndarray,
    weights: np.ndarray,
    distance: np.ndarray,
    axis: int,
) -> float:
    """Greedy transport cost with only the source constraint kept."""
    nearest = distance.min(axis=axis)
    return float(np.dot(weights, nearest))


def relaxed_word_mover_distance(
    tokens_a: np.ndarray,
    tokens_b: np.ndarray,
    weights_a: np.ndarray | None = None,
    weights_b: np.ndarray | None = None,
    sq_a: np.ndarray | None = None,
    sq_b: np.ndarray | None = None,
) -> float:
    """RWMD between two token-embedding matrices.

    Parameters
    ----------
    tokens_a, tokens_b:
        ``(k, dim)`` matrices of token vectors.
    weights_a, weights_b:
        Normalized token weights; uniform by default.
    sq_a, sq_b:
        Precomputed per-token squared norms (see :func:`token_stats`);
        computed here by default.

    Returns
    -------
    float
        ``max`` of the two directional relaxations; ``0`` when both
        texts are empty, ``inf`` when exactly one is empty (no
        transport plan exists).
    """
    n_a = tokens_a.shape[0]
    n_b = tokens_b.shape[0]
    if n_a == 0 and n_b == 0:
        return 0.0
    if n_a == 0 or n_b == 0:
        return float("inf")
    if weights_a is None:
        weights_a = np.full(n_a, 1.0 / n_a)
    if weights_b is None:
        weights_b = np.full(n_b, 1.0 / n_b)

    # Pairwise Euclidean distances via the Gram expansion.
    if sq_a is None:
        sq_a = np.sum(tokens_a * tokens_a, axis=1)
    if sq_b is None:
        sq_b = np.sum(tokens_b * tokens_b, axis=1)
    squared = sq_a[:, None] + sq_b[None, :] - 2.0 * (tokens_a @ tokens_b.T)
    distance = np.sqrt(np.maximum(squared, 0.0))

    cost_ab = _directional_cost(tokens_a, weights_a, distance, axis=1)
    cost_ba = _directional_cost(tokens_b, weights_b, distance, axis=0)
    return max(cost_ab, cost_ba)
