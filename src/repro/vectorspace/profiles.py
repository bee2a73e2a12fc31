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

__all__ = ["count_matrices", "encode_keys", "first_positions", "presence"]


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


def count_matrices(
    profiles_left: Sequence[Mapping],
    profiles_right: Sequence[Mapping],
    vocabulary: dict,
) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """Aligned float64 matrices of two profile lists.

    A profile maps keys to counts (or weights), and row ``i`` of a
    matrix is profile ``i``.  :func:`encode_keys` extends
    ``vocabulary`` with the keys of the left list, then the right one;
    both matrices span all of its columns.
    """
    cols_left = encode_keys(chain.from_iterable(profiles_left), vocabulary)
    cols_right = encode_keys(chain.from_iterable(profiles_right), vocabulary)
    width = len(vocabulary)
    return (
        _assemble(profiles_left, cols_left, width),
        _assemble(profiles_right, cols_right, width),
    )


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
