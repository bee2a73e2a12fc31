"""The one key-to-column encoder: first-occurrence vocabularies.

Keys get consecutive column ids in the order they are first seen, the
left collection before the right one, and each row keeps its profile's
key order.  That decision fixes the columns of the n-gram vector
models, the flattened n-gram graphs, the token and q-gram count
matrices, ``UniquePlan``'s unique values and the Monge-Elkan token ids,
and with them the summation order every bit-identity contract rests on.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping, Sequence
from itertools import chain

import numpy as np
from scipy import sparse

__all__ = [
    "count_matrices",
    "count_rows",
    "encode_keys",
    "first_positions",
    "presence",
    "widen",
]


def encode_keys(keys: Iterable[Hashable], vocabulary: dict) -> np.ndarray:
    """Column id of every key, in order; a key not yet in ``vocabulary``
    joins it with the next id.  Passing one dict to several calls
    extends one vocabulary."""
    return np.asarray(
        [vocabulary.setdefault(key, len(vocabulary)) for key in keys],
        dtype=np.intp,
    )


def first_positions(ids: np.ndarray) -> np.ndarray:
    """Where each id first occurs in ``ids`` encoded from an empty
    vocabulary: exactly where their running maximum steps up."""
    return np.flatnonzero(np.diff(np.maximum.accumulate(ids), prepend=-1))


def count_rows(
    profiles: Sequence[Mapping], vocabulary: dict
) -> sparse.csr_matrix:
    """Float64 matrix of one profile list: row ``i`` is profile ``i``.

    A profile maps keys to counts (or weights).  :func:`encode_keys`
    extends ``vocabulary`` with the profiles' keys, and the matrix
    spans all of its columns at that point; keys added later take
    columns to the right (see :func:`widen`).
    """
    cols = encode_keys(chain.from_iterable(profiles), vocabulary)
    return _assemble(profiles, cols, len(vocabulary))


def widen(matrix: sparse.csr_matrix, width: int) -> sparse.csr_matrix:
    """``matrix`` with ``width`` columns, sharing its arrays (the new
    columns are empty)."""
    if matrix.shape[1] == width:
        return matrix
    return sparse.csr_matrix(
        (matrix.data, matrix.indices, matrix.indptr),
        shape=(matrix.shape[0], width),
    )


def count_matrices(
    profiles_left: Sequence[Mapping],
    profiles_right: Sequence[Mapping],
    vocabulary: dict,
) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """Aligned :func:`count_rows` matrices of two profile lists.

    The left list's keys extend ``vocabulary`` first, then the right
    one's; both matrices span all of its columns.
    """
    left = count_rows(profiles_left, vocabulary)
    right = count_rows(profiles_right, vocabulary)
    return widen(left, right.shape[1]), right


def _assemble(
    profiles: Sequence[Mapping], cols: np.ndarray, width: int
) -> sparse.csr_matrix:
    lengths = np.fromiter(
        map(len, profiles), dtype=np.intp, count=len(profiles)
    )
    rows = np.repeat(np.arange(len(profiles)), lengths)
    values = np.fromiter(
        chain.from_iterable(profile.values() for profile in profiles),
        dtype=np.float64,
        count=len(cols),
    )
    return sparse.csr_matrix(
        (values, (rows, cols)), shape=(len(profiles), width)
    )


def presence(matrix: sparse.csr_matrix) -> sparse.csr_matrix:
    """``matrix`` with every stored value replaced by 1."""
    binary = matrix.copy()
    binary.data = np.ones_like(binary.data)
    return binary
