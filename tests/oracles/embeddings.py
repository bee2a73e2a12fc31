"""Frozen per-pair RWMD loop: the oracle of the bucketed RWMD kernel.

Before the kernel engine the semantic RWMD matrix called
:func:`~repro.embeddings.wmd.relaxed_word_mover_distance` once per
pair.  That loop is kept here verbatim; the bucketed
:func:`~repro.embeddings.measures.word_mover_similarity_matrix` must
equal it bit for bit (``tests/pipeline/test_kernels.py``,
``benchmarks/bench_kernel_engine.py``).
"""

from __future__ import annotations

import numpy as np

from repro.embeddings.wmd import relaxed_word_mover_distance

__all__ = ["word_mover_similarity_matrix_legacy"]


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
