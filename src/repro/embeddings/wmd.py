"""Relaxed Word Mover's Distance (RWMD).

The exact WMD is an optimal-transport problem; the paper computed it
with scipy on the server testbed.  For the all-pairs protocol this
module uses the standard *relaxed* WMD of Kusner et al.: dropping one
of the two flow constraints gives a greedy nearest-neighbour transport
whose cost lower-bounds WMD; taking the maximum of the two directional
relaxations tightens the bound and restores symmetry.  RWMD preserves
the ordering behaviour WMD contributes to the similarity taxonomy at a
tiny fraction of the cost (see DESIGN.md substitutions).

The all-pairs kernel
(:func:`repro.embeddings.measures.word_mover_similarity_matrix`)
batches the Gram/distance/min stages and the weighted sums over
token-count buckets but keeps the per-pair operation order of the
scalar RWMD, a test oracle (``tests/oracles/embeddings.py``): the
stacked ``np.matmul`` slices reproduce its gemm, and the stacked
``(1, k) @ (k, 1)`` weighted sums its ``np.dot`` reductions, bit for
bit, which the differential tests in ``tests/pipeline/test_kernels.py``
pin down.  This module keeps the per-text inputs both share.
"""

from __future__ import annotations

import numpy as np

__all__ = ["token_stats"]


def token_stats(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-text RWMD inputs: squared token norms and uniform weights.

    These depend only on the text, not on the pair, so all-pairs
    callers compute them once per text instead of once in every one
    of the ``n1 x n2`` pair evaluations.
    """
    n = matrix.shape[0]
    squared = np.sum(matrix * matrix, axis=1)
    weights = np.full(n, 1.0 / n) if n else np.empty(0)
    return squared, weights
