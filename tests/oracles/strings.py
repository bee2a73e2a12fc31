"""Frozen pre-kernel schema-based string bodies: the kernels' oracle.

Before the pairwise-kernel engine the 16 schema-based measures ran as
per-left-row dynamic programs over the *full* value lists (every
duplicate recomputed), per-pair scalar loops (Jaro, Monge-Elkan) and
full-universe sparse token formulas.  Those bodies are kept here
verbatim, dispatched by :func:`schema_based_matrix_legacy`, together
with the six full-universe artifacts only they read, which
:class:`LegacyStringBatch` adds to
:class:`~repro.pipeline.batched_strings.StringBatch`, and the
whole-grid token and q-gram formulas they apply
(:func:`_token_measure_values`, :func:`_qgrams_values`), frozen here
because the kernels now write each formula once for whole rows and
cell lists.  Every cell the kernel path scores must equal these
matrices bit for bit (``tests/pipeline/test_kernels.py``,
``benchmarks/bench_kernel_engine.py``).
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property

import numpy as np
from scipy import sparse

from repro.pipeline.batched_strings import StringBatch
from repro.pipeline.kernels import encode_strings
from repro.textsim.tokenize import tokens
from repro.vectorspace.measures import pairwise_min_sum
from tests.oracles.profiles import _binarize, _profiles_to_sparse
from tests.oracles.textsim.character import _padded_trigrams, jaro_similarity
from tests.oracles.textsim.smith_waterman import smith_waterman_similarity

__all__ = ["LegacyStringBatch", "schema_based_matrix_legacy"]


# ----------------------------------------------------------------------
# Whole-grid token and q-gram formulas
# ----------------------------------------------------------------------
#: The bag-of-tokens measures (whole-grid sparse formulas).
TOKEN_MATRIX_MEASURES = (
    "cosine_tokens",
    "euclidean_tokens",
    "block_distance",
    "dice",
    "simon_white",
    "overlap",
    "jaccard",
    "generalized_jaccard",
)


def _check_token_measure(measure: str) -> None:
    if measure not in TOKEN_MATRIX_MEASURES:
        known = ", ".join(sorted(TOKEN_MATRIX_MEASURES))
        raise KeyError(f"unknown token measure {measure!r}; known: {known}")


def _token_sums(matrix_left, matrix_right, binary_left, binary_right):
    return (
        matrix_left.sum(axis=1).A1,
        matrix_right.sum(axis=1).A1,
        binary_left.sum(axis=1).A1,
        binary_right.sum(axis=1).A1,
    )


def _qgrams_values(matrix_left, matrix_right) -> np.ndarray:
    minimum = pairwise_min_sum(matrix_left, matrix_right)
    sums_left = matrix_left.sum(axis=1).A1
    sums_right = matrix_right.sum(axis=1).A1
    total = sums_left[:, None] + sums_right[None, :]
    # block distance = total - 2*min; similarity = 1 - distance/total.
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(total > 0, 2.0 * minimum / total, 0.0)


def _token_measure_values(
    measure: str,
    matrix_left,
    matrix_right,
    binary_left,
    binary_right,
    sums,
) -> np.ndarray:
    bag_left, bag_right, set_left, set_right = sums
    with np.errstate(invalid="ignore", divide="ignore"):
        if measure == "cosine_tokens":
            norms_left = np.sqrt(
                matrix_left.multiply(matrix_left).sum(axis=1)
            ).A1
            norms_right = np.sqrt(
                matrix_right.multiply(matrix_right).sum(axis=1)
            ).A1
            dot = np.asarray((matrix_left @ matrix_right.T).todense())
            denominator = norms_left[:, None] * norms_right[None, :]
            result = np.where(denominator > 0, dot / denominator, 0.0)
        elif measure == "euclidean_tokens":
            sq_left = matrix_left.multiply(matrix_left).sum(axis=1).A1
            sq_right = matrix_right.multiply(matrix_right).sum(axis=1).A1
            dot = np.asarray((matrix_left @ matrix_right.T).todense())
            squared = sq_left[:, None] + sq_right[None, :] - 2.0 * dot
            distance = np.sqrt(np.maximum(squared, 0.0))
            bound = np.sqrt(sq_left[:, None] + sq_right[None, :])
            result = np.where(bound > 0, 1.0 - distance / bound, 0.0)
        elif measure == "block_distance":
            minimum = pairwise_min_sum(matrix_left, matrix_right)
            total = bag_left[:, None] + bag_right[None, :]
            result = np.where(total > 0, 2.0 * minimum / total, 0.0)
        elif measure == "dice":
            intersection = np.asarray(
                (binary_left @ binary_right.T).todense()
            )
            total = set_left[:, None] + set_right[None, :]
            result = np.where(total > 0, 2.0 * intersection / total, 0.0)
        elif measure == "simon_white":
            minimum = pairwise_min_sum(matrix_left, matrix_right)
            total = bag_left[:, None] + bag_right[None, :]
            result = np.where(total > 0, 2.0 * minimum / total, 0.0)
        elif measure == "overlap":
            intersection = np.asarray(
                (binary_left @ binary_right.T).todense()
            )
            smaller = np.minimum.outer(set_left, set_right)
            result = np.where(smaller > 0, intersection / smaller, 0.0)
        elif measure == "jaccard":
            intersection = np.asarray(
                (binary_left @ binary_right.T).todense()
            )
            union = set_left[:, None] + set_right[None, :] - intersection
            result = np.where(union > 0, intersection / union, 0.0)
        else:  # generalized_jaccard
            minimum = pairwise_min_sum(matrix_left, matrix_right)
            maximum = bag_left[:, None] + bag_right[None, :] - minimum
            result = np.where(maximum > 0, minimum / maximum, 0.0)
    return result


class LegacyStringBatch(StringBatch):
    """A :class:`StringBatch` with the full-universe artifacts.

    The frozen bodies read the encoded right strings, the pairwise
    emptiness mask and the token matrices of *all* values, not of the
    unique ones; each is computed lazily on first use and kept, so
    the measures of one value pair share them.
    """

    def __init__(self, lefts: list[str], rights: list[str]) -> None:
        super().__init__(lefts, rights)
        self.lefts, self.rights = lefts, rights

    @cached_property
    def encoded_rights(self) -> tuple[np.ndarray, np.ndarray]:
        """Code-point matrix and lengths of all right strings."""
        return encode_strings(self.rights)

    @cached_property
    def empty_mask(self) -> np.ndarray:
        """True where either side of the pair is empty."""
        return _empty_mask(self.lefts, self.rights)

    @cached_property
    def token_lists(self) -> tuple[list[list[str]], list[list[str]]]:
        """Tokenized strings of both sides."""
        return (
            [tokens(s) for s in self.lefts],
            [tokens(s) for s in self.rights],
        )

    @cached_property
    def token_sparse(self) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
        """Sparse token-count matrices over a shared vocabulary."""
        lists_left, lists_right = self.token_lists
        return _profiles_to_sparse(
            [Counter(words) for words in lists_left],
            [Counter(words) for words in lists_right],
        )

    @cached_property
    def token_binary(self) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
        """Binary (presence) versions of :attr:`token_sparse`."""
        return _binarize(*self.token_sparse)

    @cached_property
    def token_sums(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(bag_left, bag_right, set_left, set_right)`` row sums."""
        return _token_sums(*self.token_sparse, *self.token_binary)


def _empty_mask(lefts: list[str], rights: list[str]) -> np.ndarray:
    """True where either side of the pair is an empty string."""
    left_empty = np.array([not s for s in lefts], dtype=bool)
    right_empty = np.array([not s for s in rights], dtype=bool)
    return left_empty[:, None] | right_empty[None, :]


def _scan_min(row: np.ndarray, step: float) -> np.ndarray:
    """In-row propagation ``row[j] = min_k<=j (row[k] + step*(j-k))``."""
    width = row.shape[1]
    offsets = step * np.arange(width)
    shifted = np.minimum.accumulate(row - offsets, axis=1)
    return shifted + offsets


def _resolve_batch(
    lefts: list[str], rights: list[str], batch: LegacyStringBatch | None
) -> LegacyStringBatch:
    return batch if batch is not None else LegacyStringBatch(lefts, rights)


def _edit_distance_matrix_legacy(
    lefts: list[str],
    rights: list[str],
    transpositions: bool,
    batch: StringBatch | None = None,
) -> np.ndarray:
    batch = _resolve_batch(lefts, rights, batch)
    n_left, n_right = len(lefts), len(rights)
    result = np.zeros((n_left, n_right))
    if n_left == 0 or n_right == 0:
        return result
    codes, lengths = batch.encoded_rights
    max_len = codes.shape[1]
    base_row = np.arange(max_len + 1, dtype=np.float64)
    take = lengths[:, None]  # per-right-string final DP column

    for i, text in enumerate(lefts):
        if not text:
            continue
        previous = np.broadcast_to(base_row, (n_right, max_len + 1)).copy()
        prev_prev: np.ndarray | None = None
        prev_char = -2
        for step, char in enumerate(text, start=1):
            code = ord(char)
            cost = (codes != code).astype(np.float64)
            current = np.empty_like(previous)
            current[:, 0] = step
            current[:, 1:] = np.minimum(
                previous[:, :-1] + cost,  # substitute
                previous[:, 1:] + 1.0,  # delete
            )
            if transpositions and prev_prev is not None and max_len >= 2:
                swap_ok = (codes[:, :-1] == code) & (codes[:, 1:] == prev_char)
                candidate = prev_prev[:, :-2] + 1.0
                current[:, 2:] = np.where(
                    swap_ok, np.minimum(current[:, 2:], candidate),
                    current[:, 2:],
                )
            current = _scan_min(current, 1.0)  # insert propagation
            prev_prev = previous
            previous = current
            prev_char = code
        distances = np.take_along_axis(previous, take, axis=1)[:, 0]
        longest = np.maximum(len(text), lengths)
        with np.errstate(invalid="ignore", divide="ignore"):
            result[i] = np.where(longest > 0, 1.0 - distances / longest, 0.0)
    result[batch.empty_mask] = 0.0
    return np.clip(result, 0.0, 1.0)


def levenshtein_matrix_legacy(
    lefts: list[str],
    rights: list[str],
    batch: StringBatch | None = None,
) -> np.ndarray:
    """Frozen per-left-row Levenshtein (pre-kernel-engine)."""
    return _edit_distance_matrix_legacy(lefts, rights, False, batch)


def damerau_levenshtein_matrix_legacy(
    lefts: list[str],
    rights: list[str],
    batch: StringBatch | None = None,
) -> np.ndarray:
    """Frozen per-left-row Damerau-Levenshtein (pre-kernel-engine)."""
    return _edit_distance_matrix_legacy(lefts, rights, True, batch)


_NW_GAP = 2.0


def needleman_wunsch_matrix_legacy(
    lefts: list[str],
    rights: list[str],
    batch: StringBatch | None = None,
) -> np.ndarray:
    """Frozen per-left-row Needleman-Wunsch (pre-kernel-engine)."""
    batch = _resolve_batch(lefts, rights, batch)
    n_left, n_right = len(lefts), len(rights)
    result = np.zeros((n_left, n_right))
    if n_left == 0 or n_right == 0:
        return result
    codes, lengths = batch.encoded_rights
    max_len = codes.shape[1]
    base_row = _NW_GAP * np.arange(max_len + 1, dtype=np.float64)
    take = lengths[:, None]

    for i, text in enumerate(lefts):
        if not text:
            continue
        previous = np.broadcast_to(base_row, (n_right, max_len + 1)).copy()
        for step, char in enumerate(text, start=1):
            cost = (codes != ord(char)).astype(np.float64)
            current = np.empty_like(previous)
            current[:, 0] = step * _NW_GAP
            current[:, 1:] = np.minimum(
                previous[:, :-1] + cost,
                previous[:, 1:] + _NW_GAP,
            )
            current = _scan_min(current, _NW_GAP)
            previous = current
        costs = np.take_along_axis(previous, take, axis=1)[:, 0]
        longest = np.maximum(len(text), lengths)
        with np.errstate(invalid="ignore", divide="ignore"):
            result[i] = np.where(
                longest > 0, 1.0 - costs / (_NW_GAP * longest), 0.0
            )
    result[batch.empty_mask] = 0.0
    return np.clip(result, 0.0, 1.0)


def lcs_subsequence_matrix_legacy(
    lefts: list[str],
    rights: list[str],
    batch: StringBatch | None = None,
) -> np.ndarray:
    """Frozen per-left-row LCS subsequence (pre-kernel-engine)."""
    batch = _resolve_batch(lefts, rights, batch)
    n_left, n_right = len(lefts), len(rights)
    result = np.zeros((n_left, n_right))
    if n_left == 0 or n_right == 0:
        return result
    codes, lengths = batch.encoded_rights
    max_len = codes.shape[1]
    take = lengths[:, None]

    for i, text in enumerate(lefts):
        if not text:
            continue
        previous = np.zeros((n_right, max_len + 1))
        for char in text:
            eq = (codes == ord(char)).astype(np.float64)
            current = np.empty_like(previous)
            current[:, 0] = 0.0
            current[:, 1:] = np.maximum(
                previous[:, 1:], previous[:, :-1] + eq
            )
            np.maximum.accumulate(current, axis=1, out=current)
            previous = current
        lcs = np.take_along_axis(previous, take, axis=1)[:, 0]
        longest = np.maximum(len(text), lengths)
        with np.errstate(invalid="ignore", divide="ignore"):
            result[i] = np.where(longest > 0, lcs / longest, 0.0)
    result[batch.empty_mask] = 0.0
    return np.clip(result, 0.0, 1.0)


def lcs_substring_matrix_legacy(
    lefts: list[str],
    rights: list[str],
    batch: StringBatch | None = None,
) -> np.ndarray:
    """Frozen per-left-row LCS substring (pre-kernel-engine)."""
    batch = _resolve_batch(lefts, rights, batch)
    n_left, n_right = len(lefts), len(rights)
    result = np.zeros((n_left, n_right))
    if n_left == 0 or n_right == 0:
        return result
    codes, lengths = batch.encoded_rights
    max_len = codes.shape[1]

    for i, text in enumerate(lefts):
        if not text:
            continue
        best = np.zeros(n_right)
        previous = np.zeros((n_right, max_len + 1))
        for char in text:
            eq = (codes == ord(char)).astype(np.float64)
            current = np.zeros_like(previous)
            current[:, 1:] = (previous[:, :-1] + 1.0) * eq
            np.maximum(best, current.max(axis=1), out=best)
            previous = current
        longest = np.maximum(len(text), lengths)
        with np.errstate(invalid="ignore", divide="ignore"):
            result[i] = np.where(longest > 0, best / longest, 0.0)
    result[batch.empty_mask] = 0.0
    return np.clip(result, 0.0, 1.0)


def jaro_matrix_legacy(
    lefts: list[str],
    rights: list[str],
    batch: StringBatch | None = None,
) -> np.ndarray:
    """Frozen per-pair scalar Jaro loop (pre-kernel-engine)."""
    result = np.zeros((len(lefts), len(rights)))
    for i, a in enumerate(lefts):
        if not a:
            continue
        for j, b in enumerate(rights):
            if b:
                result[i, j] = jaro_similarity(a, b)
    return result


def qgrams_matrix_legacy(
    lefts: list[str],
    rights: list[str],
    batch: StringBatch | None = None,
) -> np.ndarray:
    """Frozen full-universe q-grams distance (pre-kernel-engine)."""
    batch = _resolve_batch(lefts, rights, batch)
    n_left, n_right = len(lefts), len(rights)
    if n_left == 0 or n_right == 0:
        return np.zeros((n_left, n_right))
    matrix_left, matrix_right = _profiles_to_sparse(
        [_padded_trigrams(s) if s else Counter() for s in lefts],
        [_padded_trigrams(s) if s else Counter() for s in rights],
    )
    result = _qgrams_values(matrix_left, matrix_right)
    result[batch.empty_mask] = 0.0
    return np.clip(result, 0.0, 1.0)


def monge_elkan_matrix_legacy(
    lefts: list[str],
    rights: list[str],
    batch: StringBatch | None = None,
) -> np.ndarray:
    """Frozen per-pair Monge-Elkan with memoized SW scores."""
    batch = _resolve_batch(lefts, rights, batch)
    token_lists_left, token_lists_right = batch.token_lists
    cache: dict[tuple[str, str], float] = {}

    def sw(a: str, b: str) -> float:
        key = (a, b)
        value = cache.get(key)
        if value is None:
            value = smith_waterman_similarity(a, b)
            cache[key] = value
        return value

    result = np.zeros((len(lefts), len(rights)))
    for i, list_a in enumerate(token_lists_left):
        if not list_a:
            continue
        for j, list_b in enumerate(token_lists_right):
            if not list_b:
                continue
            total = 0.0
            for token_a in list_a:
                total += max(sw(token_a, token_b) for token_b in list_b)
            result[i, j] = total / len(list_a)
    return np.clip(result, 0.0, 1.0)


def token_measure_matrix_legacy(
    lefts: list[str],
    rights: list[str],
    measure: str,
    batch: StringBatch | None = None,
) -> np.ndarray:
    """Frozen full-universe token measures (pre-kernel-engine)."""
    _check_token_measure(measure)
    batch = _resolve_batch(lefts, rights, batch)
    n_left, n_right = len(lefts), len(rights)
    if n_left == 0 or n_right == 0:
        return np.zeros((n_left, n_right))
    result = _token_measure_values(
        measure,
        *batch.token_sparse,
        *batch.token_binary,
        batch.token_sums,
    )
    result[batch.empty_mask] = 0.0
    return np.clip(result, 0.0, 1.0)


_LEGACY_MATRIX_FUNCTIONS = {
    "levenshtein": levenshtein_matrix_legacy,
    "damerau_levenshtein": damerau_levenshtein_matrix_legacy,
    "needleman_wunsch": needleman_wunsch_matrix_legacy,
    "lcs_subsequence": lcs_subsequence_matrix_legacy,
    "lcs_substring": lcs_substring_matrix_legacy,
    "jaro": jaro_matrix_legacy,
    "qgrams": qgrams_matrix_legacy,
    "monge_elkan": monge_elkan_matrix_legacy,
}


def schema_based_matrix_legacy(
    lefts: list[str],
    rights: list[str],
    measure: str,
    batch: StringBatch | None = None,
) -> np.ndarray:
    """Frozen pre-kernel-engine dispatch of the 16 measures.

    Kept as the differential-testing and benchmarking reference: the
    kernel path of :func:`schema_based_matrix` must reproduce it bit
    for bit (``benchmarks/bench_kernel_engine.py`` enforces both the
    equality and the speedup floor).
    """
    function = _LEGACY_MATRIX_FUNCTIONS.get(measure)
    if function is not None:
        return function(lefts, rights, batch)
    return token_measure_matrix_legacy(lefts, rights, measure, batch)
