"""Frozen first-occurrence vocabulary builders: the encoder's oracle.

Before :mod:`repro.vectorspace.profiles` wrote it once, five loops in
four modules numbered keys in first-occurrence order, left collection
first, each over its own dict: the unique values of ``UniquePlan``
(:func:`_first_occurrence`), the Monge-Elkan token ids
(:func:`_token_vocabulary`), the token and q-gram count matrices
(:func:`_profiles_to_sparse`, with :func:`_binarize` for token
presence), the flattened entity n-gram graphs (:func:`graphs_to_sparse`)
and the n-gram vector models (:func:`build_profile_space`, whose
:class:`ProfileSpace` held Counter lists, and :func:`build_vector_models`
over :func:`_assemble`).  Those bodies are kept here verbatim; every
artifact the encoder builds must equal theirs array for array
(``tests/vectorspace/test_profiles.py``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.ngramgraph.model import NGramGraph
from repro.vectorspace.ngram_vector import VectorModel, ngram_profiles

__all__ = [
    "ProfileSpace",
    "_assemble",
    "_binarize",
    "_first_occurrence",
    "_profiles_to_sparse",
    "_token_vocabulary",
    "build_profile_space",
    "build_vector_models",
    "graphs_to_sparse",
]


# ----------------------------------------------------------------------
# pipeline/kernels.py
# ----------------------------------------------------------------------
def _first_occurrence(
    values: list[str],
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Unique values in first-occurrence order plus inverse/index maps."""
    positions: dict[str, int] = {}
    first: list[int] = []
    inverse = np.empty(len(values), dtype=np.intp)
    for i, value in enumerate(values):
        slot = positions.get(value)
        if slot is None:
            slot = len(positions)
            positions[value] = slot
            first.append(i)
        inverse[i] = slot
    return list(positions), inverse, np.asarray(first, dtype=np.intp)


# ----------------------------------------------------------------------
# pipeline/batched_strings.py
# ----------------------------------------------------------------------
def _binarize(matrix_left, matrix_right):
    binary_left = matrix_left.copy()
    binary_left.data = np.ones_like(binary_left.data)
    binary_right = matrix_right.copy()
    binary_right.data = np.ones_like(binary_right.data)
    return binary_left, binary_right


def _token_vocabulary(
    token_lists: list[list[str]],
) -> tuple[list[str], list[np.ndarray]]:
    """First-occurrence token vocabulary plus per-value id arrays.

    Id arrays keep duplicates in text order — the order the scalar
    Monge-Elkan fold consumes them in.
    """
    vocabulary: dict[str, int] = {}
    ids: list[np.ndarray] = []
    for words in token_lists:
        row = np.empty(len(words), dtype=np.intp)
        for position, word in enumerate(words):
            slot = vocabulary.get(word)
            if slot is None:
                slot = len(vocabulary)
                vocabulary[word] = slot
            row[position] = slot
        ids.append(row)
    return list(vocabulary), ids


def _profiles_to_sparse(
    profiles_left: list[Counter], profiles_right: list[Counter]
) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    vocabulary: dict[str, int] = {}
    for profile in profiles_left:
        for key in profile:
            vocabulary.setdefault(key, len(vocabulary))
    for profile in profiles_right:
        for key in profile:
            vocabulary.setdefault(key, len(vocabulary))

    def assemble(profiles: list[Counter]) -> sparse.csr_matrix:
        rows, cols, values = [], [], []
        for row, profile in enumerate(profiles):
            for key, count in profile.items():
                rows.append(row)
                cols.append(vocabulary[key])
                values.append(float(count))
        return sparse.csr_matrix(
            (values, (rows, cols)),
            shape=(len(profiles), len(vocabulary)),
            dtype=np.float64,
        )

    return assemble(profiles_left), assemble(profiles_right)


# ----------------------------------------------------------------------
# ngramgraph/model.py
# ----------------------------------------------------------------------
def graphs_to_sparse(
    graphs_left: list[NGramGraph],
    graphs_right: list[NGramGraph],
) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """Flatten two graph collections into aligned sparse edge vectors.

    Every distinct edge of either collection becomes one column; cell
    values are the edge weights.  This representation makes the four
    graph similarities computable with sparse matrix products.
    """
    vocabulary: dict[tuple[str, str], int] = {}
    for graph in graphs_left:
        for edge in graph:
            vocabulary.setdefault(edge, len(vocabulary))
    for graph in graphs_right:
        for edge in graph:
            vocabulary.setdefault(edge, len(vocabulary))

    def assemble(graphs: list[NGramGraph]) -> sparse.csr_matrix:
        rows: list[int] = []
        cols: list[int] = []
        values: list[float] = []
        for row, graph in enumerate(graphs):
            for edge, weight in graph.items():
                rows.append(row)
                cols.append(vocabulary[edge])
                values.append(weight)
        return sparse.csr_matrix(
            (np.asarray(values), (rows, cols)),
            shape=(len(graphs), len(vocabulary)),
            dtype=np.float64,
        )

    return assemble(graphs_left), assemble(graphs_right)


# ----------------------------------------------------------------------
# vectorspace/ngram_vector.py
# ----------------------------------------------------------------------
@dataclass
class ProfileSpace:
    """Weighting-independent artifacts of one ``(unit, n)`` model pair.

    Extracting n-gram profiles and the shared vocabulary/DF statistics
    is the expensive part of :func:`build_vector_models`, and it is
    identical for the TF and TF-IDF weightings.  A ``ProfileSpace``
    computes it once so both weightings (and repeated builds) reuse it.
    """

    profiles_left: list[Counter]
    profiles_right: list[Counter]
    vocabulary: dict[str, int]
    df_left: np.ndarray
    df_right: np.ndarray


def build_profile_space(
    texts_left: list[str],
    texts_right: list[str],
    n: int,
    unit: str,
) -> ProfileSpace:
    """Profiles plus shared vocabulary/DF for two entity collections."""
    profiles_left = ngram_profiles(texts_left, n, unit)
    profiles_right = ngram_profiles(texts_right, n, unit)

    vocabulary: dict[str, int] = {}
    for profile in profiles_left:
        for gram in profile:
            vocabulary.setdefault(gram, len(vocabulary))
    for profile in profiles_right:
        for gram in profile:
            vocabulary.setdefault(gram, len(vocabulary))

    n_terms = len(vocabulary)
    df_left = np.zeros(n_terms)
    df_right = np.zeros(n_terms)
    for profile in profiles_left:
        for gram in profile:
            df_left[vocabulary[gram]] += 1
    for profile in profiles_right:
        for gram in profile:
            df_right[vocabulary[gram]] += 1

    return ProfileSpace(
        profiles_left=profiles_left,
        profiles_right=profiles_right,
        vocabulary=vocabulary,
        df_left=df_left,
        df_right=df_right,
    )


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

    if weighting == "tfidf":
        n_docs = len(space.profiles_left) + len(space.profiles_right)
        with np.errstate(divide="ignore"):
            idf = np.log(n_docs / (space.df_left + space.df_right + 1.0))
        idf = np.maximum(idf, 0.0)
    else:
        idf = None

    left = _assemble(
        space.profiles_left, space.vocabulary, space.df_left, idf
    )
    right = _assemble(
        space.profiles_right, space.vocabulary, space.df_right, idf
    )
    return left, right


def _assemble(
    profiles: list[Counter],
    vocabulary: dict[str, int],
    document_frequency: np.ndarray,
    idf: np.ndarray | None,
) -> VectorModel:
    rows: list[int] = []
    cols: list[int] = []
    tf_values: list[float] = []
    for row, profile in enumerate(profiles):
        total = sum(profile.values())
        if total == 0:
            continue
        for gram, count in profile.items():
            rows.append(row)
            cols.append(vocabulary[gram])
            tf_values.append(count / total)
    shape = (len(profiles), len(vocabulary))
    weights = np.asarray(tf_values)
    if idf is not None and len(cols) > 0:
        weights = weights * idf[np.asarray(cols)]
    matrix = sparse.csr_matrix(
        (weights, (rows, cols)), shape=shape, dtype=np.float64
    )
    binary = sparse.csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=shape, dtype=np.float64
    )
    return VectorModel(
        matrix=matrix,
        binary=binary,
        document_frequency=document_frequency,
        vocabulary=vocabulary,
    )
