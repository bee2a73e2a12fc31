"""All-pairs similarity measures on n-gram vector models.

Every function returns a dense ``n1 x n2`` numpy array.  The measures
follow Appendix B.2.1:

* Cosine (CS) on TF or TF-IDF weights;
* Jaccard (JS) on the binary gram sets;
* Generalized Jaccard (GJS) on TF or TF-IDF weights;
* ARCS, which scores common grams by the inverse log of the product of
  their per-collection document frequencies.

ARCS is unbounded above; the graph builder min-max normalizes all
weights afterwards, as the paper does for every similarity graph.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.vectorspace.ngram_vector import VectorModel

__all__ = [
    "cosine_matrix",
    "jaccard_matrix",
    "generalized_jaccard_matrix",
    "arcs_matrix",
    "pairwise_min_sum",
]


def cosine_matrix(left: VectorModel, right: VectorModel) -> np.ndarray:
    """Cosine similarity of the weighted vectors, all pairs."""
    a = _row_normalized(left.matrix)
    b = _row_normalized(right.matrix)
    return np.asarray((a @ b.T).todense())


def _row_normalized(matrix: sparse.csr_matrix) -> sparse.csr_matrix:
    norms = np.sqrt(matrix.multiply(matrix).sum(axis=1)).A1
    scale = np.divide(
        1.0, norms, out=np.zeros_like(norms), where=norms > 0
    )
    return sparse.diags(scale) @ matrix


def jaccard_matrix(left: VectorModel, right: VectorModel) -> np.ndarray:
    """Set Jaccard over present grams: ``|A∩B| / |A∪B|``."""
    intersection = np.asarray((left.binary @ right.binary.T).todense())
    size_left = left.binary.sum(axis=1).A1
    size_right = right.binary.sum(axis=1).A1
    union = size_left[:, None] + size_right[None, :] - intersection
    with np.errstate(invalid="ignore", divide="ignore"):
        result = np.where(union > 0, intersection / union, 0.0)
    return result


def pairwise_min_sum(
    left: sparse.csr_matrix, right: sparse.csr_matrix
) -> np.ndarray:
    """``sum_k min(a_k, b_k)`` for every row pair of two sparse matrices.

    One sweep over the shared vocabulary in CSC order: each term adds
    the outer minimum of its posting lists to the cells of their rows,
    so the cost is ``sum_k |A_k| * |B_k|`` — proportional to a sparse
    matrix product — and every cell sums its terms in column order.
    """
    result = np.zeros((left.shape[0], right.shape[0]))
    left_csc, right_csc = left.tocsc(), right.tocsc()
    for col in range(left.shape[1]):
        a_start, a_end = left_csc.indptr[col], left_csc.indptr[col + 1]
        if a_start == a_end:
            continue
        b_start, b_end = right_csc.indptr[col], right_csc.indptr[col + 1]
        if b_start == b_end:
            continue
        result[
            np.ix_(
                left_csc.indices[a_start:a_end],
                right_csc.indices[b_start:b_end],
            )
        ] += np.minimum.outer(
            left_csc.data[a_start:a_end], right_csc.data[b_start:b_end]
        )
    return result


def generalized_jaccard_matrix(
    left: VectorModel, right: VectorModel
) -> np.ndarray:
    """``Σ min(a_k, b_k) / Σ max(a_k, b_k)`` for every pair.

    Uses the identity ``Σ max = Σ a + Σ b - Σ min`` to avoid a second
    pass.
    """
    min_sum = pairwise_min_sum(left.matrix, right.matrix)
    sums_left = left.matrix.sum(axis=1).A1
    sums_right = right.matrix.sum(axis=1).A1
    max_sum = sums_left[:, None] + sums_right[None, :] - min_sum
    with np.errstate(invalid="ignore", divide="ignore"):
        result = np.where(max_sum > 0, min_sum / max_sum, 0.0)
    return result


def arcs_matrix(left: VectorModel, right: VectorModel) -> np.ndarray:
    """ARCS: rare common grams contribute more.

    ``ARCS(e_i, e_j) = Σ_{k common} log 2 / log(DF1(k) * DF2(k))``.
    A gram unique to one entity in each collection would make the
    denominator ``log 1 = 0``; the product is clamped at 2 so the
    rarest grams contribute exactly 1, preserving the measure's
    ordering while keeping it finite.
    """
    df_product = np.maximum(
        left.document_frequency * right.document_frequency, 2.0
    )
    gram_weight = np.log(2.0) / np.log(df_product)
    weighted = left.binary @ sparse.diags(gram_weight)
    return np.asarray((weighted @ right.binary.T).todense())
