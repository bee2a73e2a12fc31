"""Construction of n-gram vector models.

The paper's bag models (Appendix B.2.1):

* ``TF(t, e) = f_t / N_e`` — occurrence frequency normalized by the
  number of grams in the entity;
* ``TF-IDF(t, e) = TF(t, e) * IDF(t)`` with
  ``IDF(t) = log(|E| / (DF(t) + 1))`` where ``E`` is the full entity
  collection (here: the union of both input collections, since IDF
  must be comparable across the bipartition).

IDF is clamped at zero: a gram occurring in (almost) every entity
would otherwise receive a negative weight, which breaks the ``[0, 1]``
range of the downstream similarity measures — the clamp treats such
grams as stop words, matching their intent.

Both collections' n-gram profiles become one count matrix each over a
shared vocabulary (:func:`repro.vectorspace.profiles.count_matrices`:
grams numbered in first-occurrence order, left collection first), and
every model derives from those counts: DF is a column's presence
count, TF divides counts by exact integer row totals, TF-IDF scales TF
by the clamped IDF, and the binary matrix is the presence pattern.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.textsim.tokenize import character_ngrams, token_ngrams
from repro.vectorspace.profiles import count_matrices, presence

__all__ = [
    "VectorModel",
    "ProfileSpace",
    "build_profile_space",
    "build_vector_models",
    "ngram_profiles",
]


def ngram_profiles(texts: list[str], n: int, unit: str) -> list[Counter]:
    """Per-entity n-gram frequency profiles.

    ``unit`` selects ``"char"`` or ``"token"`` n-grams.
    """
    if unit == "char":
        return [Counter(character_ngrams(text, n)) for text in texts]
    if unit == "token":
        return [Counter(token_ngrams(text, n)) for text in texts]
    raise ValueError("unit must be 'char' or 'token'")


@dataclass
class VectorModel:
    """A collection of entities as a sparse TF or TF-IDF matrix.

    Attributes
    ----------
    matrix:
        ``n_entities x vocabulary`` CSR matrix of gram weights.
    binary:
        Same shape, 1 where a gram is present (used by the set-based
        measures).
    document_frequency:
        Per-gram document frequency *within this collection* (used by
        ARCS, which weights grams by ``DF1 * DF2``).
    vocabulary:
        Gram string -> column index (shared by both collections).
    """

    matrix: sparse.csr_matrix
    binary: sparse.csr_matrix
    document_frequency: np.ndarray
    vocabulary: dict[str, int]

    @property
    def n_entities(self) -> int:
        return self.matrix.shape[0]


@dataclass
class ProfileSpace:
    """Weighting-independent artifacts of one ``(unit, n)`` model pair.

    Extracting the n-gram profiles of both collections into count
    matrices over their shared vocabulary is the expensive part of
    :func:`build_vector_models`, and it is identical for the TF and
    TF-IDF weightings.  A ``ProfileSpace`` computes it once so both
    weightings (and repeated builds) reuse it.
    """

    counts_left: sparse.csr_matrix
    counts_right: sparse.csr_matrix
    vocabulary: dict[str, int]


def build_profile_space(
    texts_left: list[str],
    texts_right: list[str],
    n: int,
    unit: str,
) -> ProfileSpace:
    """N-gram count matrices over one shared vocabulary for two entity
    collections."""
    vocabulary: dict[str, int] = {}
    counts_left, counts_right = count_matrices(
        ngram_profiles(texts_left, n, unit),
        ngram_profiles(texts_right, n, unit),
        vocabulary,
    )
    return ProfileSpace(counts_left, counts_right, vocabulary)


def build_vector_models(
    texts_left: list[str],
    texts_right: list[str],
    n: int,
    unit: str,
    weighting: str = "tf",
    space: ProfileSpace | None = None,
) -> tuple[VectorModel, VectorModel]:
    """Build aligned vector models for two entity collections.

    The vocabulary and IDF statistics are shared so that the two
    matrices live in the same space.  ``weighting`` is ``"tf"`` or
    ``"tfidf"``.  ``space`` optionally reuses a precomputed
    :class:`ProfileSpace` (it must stem from the same texts/n/unit).
    """
    if weighting not in ("tf", "tfidf"):
        raise ValueError("weighting must be 'tf' or 'tfidf'")
    if space is None:
        space = build_profile_space(texts_left, texts_right, n, unit)

    left, right = space.counts_left, space.counts_right
    width = len(space.vocabulary)
    # DF: column presence counts, exact integers stored as float64.
    df_left = np.bincount(left.indices, minlength=width).astype(np.float64)
    df_right = np.bincount(right.indices, minlength=width).astype(np.float64)
    if weighting == "tfidf":
        n_docs = left.shape[0] + right.shape[0]
        with np.errstate(divide="ignore"):
            idf = np.log(n_docs / (df_left + df_right + 1.0))
        idf = np.maximum(idf, 0.0)
    else:
        idf = None

    return (
        _model(left, df_left, space.vocabulary, idf),
        _model(right, df_right, space.vocabulary, idf),
    )


def _model(
    counts: sparse.csr_matrix,
    document_frequency: np.ndarray,
    vocabulary: dict[str, int],
    idf: np.ndarray | None,
) -> VectorModel:
    # TF divides exact integer counts by exact integer row totals, so
    # every weight is the correctly rounded quotient.
    totals = np.asarray(counts.sum(axis=1)).ravel()
    matrix = counts.copy()
    matrix.data = counts.data / np.repeat(totals, np.diff(counts.indptr))
    if idf is not None:
        matrix.data *= idf[counts.indices]
    return VectorModel(
        matrix=matrix,
        binary=presence(counts),
        document_frequency=document_frequency,
        vocabulary=vocabulary,
    )
