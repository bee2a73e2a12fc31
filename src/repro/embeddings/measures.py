"""All-pairs semantic similarity measures (Section 4, semantic models).

Three measures, as in the paper's appendix:

* Cosine similarity of the pooled text embeddings, rescaled from
  ``[-1, 1]`` to ``[0, 1]`` (the min-max normalization the paper
  applies to every graph makes the affine rescaling inconsequential
  for the algorithms, but keeps intermediate weights in range);
* Euclidean similarity ``1 / (1 + euclidean_distance)``;
* Word Mover's similarity ``1 / (1 + RWMD)`` over token embeddings.

The RWMD matrix no longer evaluates a Python function per pair: texts
are bucketed by token count and each bucket pair runs one stacked
``np.matmul`` (bit-identical per slice to the per-pair gemm) followed
by batched distance/min reductions and two stacked ``(1, k) @ (k, 1)``
weighted sums, which numpy computes with the per-pair ``np.dot``
(a BLAS matvec would accumulate in another order).  The frozen pair
loop and the scalar RWMD it calls are test oracles
(``tests/oracles/embeddings.py``).
"""

from __future__ import annotations

import numpy as np

from repro.embeddings.wmd import token_stats

__all__ = [
    "cosine_similarity_matrix",
    "euclidean_similarity_matrix",
    "word_mover_similarity_matrix",
]


def _dense_row_chunk(n_right: int) -> int:
    # Imported lazily: repro.pipeline modules import this module at
    # load time, so a top-level import would be circular.
    from repro.pipeline.kernels import row_chunk_size

    return row_chunk_size(n_right)


def cosine_similarity_matrix(
    left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """Pairwise cosine of embedding rows, mapped to ``[0, 1]``.

    The gemm runs in fixed-size row chunks (the shape-determined
    :func:`~repro.pipeline.kernels.row_chunk_size`) so peak memory is
    one chunk rather than the full grid.  Because every other step is
    elementwise per row, a call over any chunk-aligned row slice of
    ``left`` produces exactly the rows the full call would — the
    bit-identity contract of the sharded execution tier.
    """
    norms_left = np.linalg.norm(left, axis=1)
    norms_right = np.linalg.norm(right, axis=1)
    safe_left = np.where(norms_left > 0, norms_left, 1.0)
    safe_right = np.where(norms_right > 0, norms_right, 1.0)
    unit_left = left / safe_left[:, None]
    unit_right_t = (right / safe_right[:, None]).T
    n_left, n_right = len(left), len(right)
    result = np.empty((n_left, n_right))
    chunk = _dense_row_chunk(n_right)
    for lo in range(0, n_left, chunk):
        hi = min(lo + chunk, n_left)
        cosine = np.clip(unit_left[lo:hi] @ unit_right_t, -1.0, 1.0)
        result[lo:hi] = (cosine + 1.0) / 2.0
    return result


def euclidean_similarity_matrix(
    left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """``1 / (1 + ||x - y||)`` for every embedding pair.

    Chunked over rows exactly like :func:`cosine_similarity_matrix`,
    with the same chunk-aligned row-slice bit-identity guarantee.
    """
    sq_left = np.sum(left * left, axis=1)
    sq_right = np.sum(right * right, axis=1)
    right_t = right.T
    n_left, n_right = len(left), len(right)
    result = np.empty((n_left, n_right))
    chunk = _dense_row_chunk(n_right)
    for lo in range(0, n_left, chunk):
        hi = min(lo + chunk, n_left)
        squared = (
            sq_left[lo:hi, None]
            + sq_right[None, :]
            - 2.0 * (left[lo:hi] @ right_t)
        )
        distance = np.sqrt(np.maximum(squared, 0.0))
        result[lo:hi] = 1.0 / (1.0 + distance)
    return result


#: Cap on ``pairs x tokens_a x tokens_b`` cells materialized per RWMD
#: bucket chunk (~32 MB of float64 for the distance tensor).
_RWMD_BLOCK_CELLS = 1 << 22


def word_mover_similarity_matrix(
    token_matrices_left: list[np.ndarray],
    token_matrices_right: list[np.ndarray],
    stats_left: list[tuple[np.ndarray, np.ndarray]] | None = None,
    stats_right: list[tuple[np.ndarray, np.ndarray]] | None = None,
) -> np.ndarray:
    """``1 / (1 + RWMD)`` for every pair of token-embedding matrices.

    Pairs where exactly one side has no tokens get similarity ``0``
    (infinite transport cost); pairs where both sides are token-less
    get ``1`` (zero cost), matching the scalar convention.  ``stats_*``
    optionally supply the per-text ``(squared norms, weights)`` pairs
    of :func:`repro.embeddings.wmd.token_stats`.

    Texts are grouped into token-count buckets; each ``(count_a,
    count_b)`` bucket pair computes its Gram tensor with one stacked
    ``np.matmul`` whose 2-D slices have exactly the per-pair shapes, so
    every entry is bit-identical to a per-pair loop over the scalar
    RWMD of the test oracles (``tests/oracles/embeddings.py``).
    """
    n_left = len(token_matrices_left)
    n_right = len(token_matrices_right)
    result = np.zeros((n_left, n_right))
    if n_left == 0 or n_right == 0:
        return result
    if stats_left is None:
        stats_left = [token_stats(m) for m in token_matrices_left]
    if stats_right is None:
        stats_right = [token_stats(m) for m in token_matrices_right]

    counts_left = np.array([m.shape[0] for m in token_matrices_left])
    counts_right = np.array([m.shape[0] for m in token_matrices_right])
    empty_left = np.flatnonzero(counts_left == 0)
    empty_right = np.flatnonzero(counts_right == 0)
    if len(empty_left) and len(empty_right):
        # Both sides token-less: RWMD 0 -> similarity 1.
        result[np.ix_(empty_left, empty_right)] = 1.0

    buckets_left = _count_buckets(counts_left)
    # Hoisted per-right-bucket artifacts: the pre-transposed stacks
    # (np.matmul slices then match the per-pair ``tokens_a @
    # tokens_b.T`` gemm shapes exactly) are shared by every left
    # bucket.
    buckets_right = [
        (
            count,
            cols,
            np.stack([token_matrices_right[j].T for j in cols]),
            np.stack([stats_right[j][0] for j in cols]),
            np.stack([stats_right[j][1] for j in cols]),
        )
        for count, cols in _count_buckets(counts_right)
    ]
    for count_a, rows in buckets_left:
        stack_a = np.stack([token_matrices_left[i] for i in rows])
        sq_a = np.stack([stats_left[i][0] for i in rows])
        weights_a = np.stack([stats_left[i][1] for i in rows])
        for count_b, cols, stack_bt, sq_b, weights_b in buckets_right:
            # Tile both bucket axes so the materialized distance
            # tensor stays near the cell cap regardless of how many
            # texts share a token count.
            pair_cells = count_a * count_b
            col_chunk = max(1, _RWMD_BLOCK_CELLS // pair_cells)
            row_chunk = max(
                1,
                _RWMD_BLOCK_CELLS
                // (min(col_chunk, len(cols)) * pair_cells),
            )
            for c_begin in range(0, len(cols), col_chunk):
                c_end = min(c_begin + col_chunk, len(cols))
                for r_begin in range(0, len(rows), row_chunk):
                    r_end = min(r_begin + row_chunk, len(rows))
                    block = _rwmd_block(
                        stack_a[r_begin:r_end],
                        sq_a[r_begin:r_end],
                        weights_a[r_begin:r_end],
                        stack_bt[c_begin:c_end],
                        sq_b[c_begin:c_end],
                        weights_b[c_begin:c_end],
                    )
                    result[
                        np.ix_(rows[r_begin:r_end], cols[c_begin:c_end])
                    ] = block
    return result


def _count_buckets(counts: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """``(token count, text indices)`` groups, token-less texts excluded."""
    return [
        (int(count), np.flatnonzero(counts == count))
        for count in np.unique(counts)
        if count > 0
    ]


def _rwmd_block(
    stack_a: np.ndarray,
    sq_a: np.ndarray,
    weights_a: np.ndarray,
    stack_bt: np.ndarray,
    sq_b: np.ndarray,
    weights_b: np.ndarray,
) -> np.ndarray:
    """RWMD similarities of one ``(count_a, count_b)`` bucket chunk."""
    gram = np.matmul(stack_a[:, None], stack_bt[None, :])
    squared = (
        sq_a[:, None, :, None] + sq_b[None, :, None, :]
    ) - 2.0 * gram
    distance = np.sqrt(np.maximum(squared, 0.0))
    nearest_ab = distance.min(axis=3)
    nearest_ba = distance.min(axis=2)
    # Each (1, k) @ (k, 1) slice is the per-pair np.dot, bit for bit.
    cost = np.maximum(
        np.matmul(weights_a[:, None, None, :], nearest_ab[..., None]),
        np.matmul(weights_b[None, :, None, :], nearest_ba[..., None]),
    )
    return 1.0 / (1.0 + cost[..., 0, 0])
