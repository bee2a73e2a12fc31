"""Vectorized schema-based string similarity over any set of cells.

The paper's protocol compares *every* pair of attribute values (no
blocking), which makes per-pair dynamic programming in Python the
bottleneck.  This module scores the 16 schema-based measures through
the pairwise-kernel engine of :mod:`repro.pipeline.kernels`, with one
per-measure dispatch (:func:`schema_based_cells`) behind every caller:

* every measure factors the pair grid down to *unique* value pairs
  (:class:`~repro.pipeline.kernels.UniquePlan`) — duplicated attribute
  values are computed once;
* :func:`schema_based_rows` scores any record-row range as whole
  unique-grid rows (the dense, sharded and ad-hoc paths;
  :func:`schema_based_matrix` is the full range) and
  :func:`schema_based_pairs` scores the candidate cells of a
  :class:`~repro.pipeline.kernels.SparsePlan` (the blocked, streamed
  and served paths);
* the alignment measures (Levenshtein, Damerau-Levenshtein,
  Needleman-Wunsch, LCS substring/subsequence) and Jaro run one cell
  kernel each, which broadcasts the right side over whole rows and
  gathers it per cell otherwise;
* Monge-Elkan folds one Smith-Waterman grid over the unique token
  vocabularies;
* the token measures and the q-grams distance keep their whole-grid
  sparse-matrix formulas for whole rows (cheaper than per-cell forms)
  and re-derive the same exact integer sums by row gather for cells.

Convention: pairs where **either** value is empty get similarity 0 —
an absent value carries no matching evidence (the scalar measures in
:mod:`repro.textsim` keep the measure-level "both empty = identical"
convention; the graph builder needs the evidence-level one).

The pre-kernel-engine implementations are frozen as test oracles
(``tests/oracles/strings.py``); every cell the kernel path scores is
**bit-identical** to them, whatever the call shape — differential
tests live in ``tests/pipeline/test_kernels.py`` and
``tests/pipeline/test_batched_strings.py``, and
``benchmarks/bench_kernel_engine.py`` guards the speedup.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property

import numpy as np
from scipy import sparse

from repro.pipeline.kernels import (
    SparsePlan,
    UniquePlan,
    edit_distance_cells,
    encode_strings,
    jaro_cells,
    lcs_cells,
    monge_elkan_cells,
    smith_waterman_grid,
)
from repro.textsim.character import _padded_trigrams
from repro.textsim.tokenize import tokens
from repro.vectorspace.measures import pairwise_min_sum

__all__ = [
    "StringBatch",
    "ALIGNMENT_MEASURES",
    "TOKEN_MATRIX_MEASURES",
    "schema_based_cells",
    "schema_based_rows",
    "schema_based_matrix",
    "schema_based_pairs",
]


class StringBatch:
    """Shared per-``(lefts, rights)`` artifacts of the 16 measures.

    The kernel path consumes the *unique-universe* artifacts: the
    :class:`UniquePlan`, the encoded code-point matrices of the unique
    values (alignment measures and Jaro), the sparse token-count
    matrices of the unique values (token measures), the unique padded
    trigram profiles (q-grams) and the Smith-Waterman token grid
    (Monge-Elkan).  Every artifact is computed lazily on first use and
    kept, so computing several measures over the same value pair (one
    attribute of one dataset) encodes and tokenizes only once.
    """

    def __init__(self, lefts: list[str], rights: list[str]) -> None:
        self.lefts = lefts
        self.rights = rights

    def seed_artifact(self, name: str, value) -> None:
        """Seed the lazy artifact slot ``name`` with a precomputed value.

        Used by the persistent artifact store to hand a loaded
        artifact to the kernels: ``cached_property`` consults the
        instance ``__dict__`` first, so seeding the slot skips the
        build.  An already-computed slot is kept (the seeded value is
        that same object on the build path).  Rejects names that are
        not cached artifacts of this class, so a property rename
        cannot silently turn store hits into rebuilds.
        """
        if not isinstance(getattr(type(self), name, None), cached_property):
            raise AttributeError(
                f"StringBatch has no cached artifact {name!r}"
            )
        self.__dict__.setdefault(name, value)

    @cached_property
    def plan(self) -> UniquePlan:
        """Unique-value execution plan shared by every measure."""
        return UniquePlan.build(self.lefts, self.rights)

    @cached_property
    def unique_left_encoding(self) -> tuple[np.ndarray, np.ndarray]:
        """Code-point matrix and lengths of the unique left values."""
        return encode_strings(self.plan.lefts)

    @cached_property
    def unique_right_encoding(self) -> tuple[np.ndarray, np.ndarray]:
        """Code-point matrix and lengths of the unique right values."""
        return encode_strings(self.plan.rights)

    @cached_property
    def unique_empty_sides(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-side emptiness of the unique values (the empty-value
        convention masks cells from these two 1-D vectors)."""
        return (
            np.array([not s for s in self.plan.lefts], dtype=bool),
            np.array([not s for s in self.plan.rights], dtype=bool),
        )

    @cached_property
    def unique_token_lists(
        self,
    ) -> tuple[list[list[str]], list[list[str]]]:
        """Tokenized unique values of both sides."""
        return (
            [tokens(s) for s in self.plan.lefts],
            [tokens(s) for s in self.plan.rights],
        )

    @cached_property
    def unique_token_sparse(
        self,
    ) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
        """Sparse token-count matrices of the unique values.

        The vocabulary is built in first-occurrence order over the
        unique values, which is exactly the key order a full-list
        construction produces — row contents (and therefore the
        summation order of every sparse product) match a full-list
        matrix bit for bit.
        """
        lists_left, lists_right = self.unique_token_lists
        return _profiles_to_sparse(
            [Counter(words) for words in lists_left],
            [Counter(words) for words in lists_right],
        )

    @cached_property
    def unique_token_binary(
        self,
    ) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
        """Binary (presence) versions of :attr:`unique_token_sparse`."""
        return _binarize(*self.unique_token_sparse)

    @cached_property
    def unique_token_sums(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(bag_left, bag_right, set_left, set_right)`` row sums."""
        return _token_sums(
            *self.unique_token_sparse, *self.unique_token_binary
        )

    @cached_property
    def unique_qgram_sparse(
        self,
    ) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
        """Padded-trigram profile matrices of the unique values."""
        return _profiles_to_sparse(
            [_padded_trigrams(s) if s else Counter() for s in self.plan.lefts],
            [
                _padded_trigrams(s) if s else Counter()
                for s in self.plan.rights
            ],
        )

    @cached_property
    def monge_elkan_grid(
        self,
    ) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
        """Per-value token-id lists plus the unique-token SW grid."""
        lists_left, lists_right = self.unique_token_lists
        vocab_left, ids_left = _token_vocabulary(lists_left)
        vocab_right, ids_right = _token_vocabulary(lists_right)
        grid = smith_waterman_grid(
            *encode_strings(vocab_left), *encode_strings(vocab_right)
        )
        return ids_left, ids_right, grid



def _binarize(matrix_left, matrix_right):
    binary_left = matrix_left.copy()
    binary_left.data = np.ones_like(binary_left.data)
    binary_right = matrix_right.copy()
    binary_right.data = np.ones_like(binary_right.data)
    return binary_left, binary_right


def _token_sums(matrix_left, matrix_right, binary_left, binary_right):
    return (
        matrix_left.sum(axis=1).A1,
        matrix_right.sum(axis=1).A1,
        binary_left.sum(axis=1).A1,
        binary_right.sum(axis=1).A1,
    )


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


def _resolve_batch(
    lefts: list[str], rights: list[str], batch: StringBatch | None
) -> StringBatch:
    return batch if batch is not None else StringBatch(lefts, rights)


def _check_token_measure(measure: str) -> None:
    if measure not in TOKEN_MATRIX_MEASURES:
        known = ", ".join(sorted(TOKEN_MATRIX_MEASURES))
        raise KeyError(f"unknown token measure {measure!r}; known: {known}")


# ----------------------------------------------------------------------
# Whole-grid measure formulas
# ----------------------------------------------------------------------
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

#: Measures whose DP shares the encoded code-point matrices.
ALIGNMENT_MEASURES = (
    "levenshtein",
    "damerau_levenshtein",
    "needleman_wunsch",
    "lcs_subsequence",
    "lcs_substring",
)

#: Cell kernel and fixed options of every encoded-string measure.
_CELL_KERNELS = {
    "levenshtein": (edit_distance_cells, {}),
    "damerau_levenshtein": (edit_distance_cells, {"transpositions": True}),
    "needleman_wunsch": (edit_distance_cells, {"gap": 2}),
    "lcs_subsequence": (lcs_cells, {}),
    "lcs_substring": (lcs_cells, {"substring": True}),
    "jaro": (jaro_cells, {}),
}

#: The measures with a kernel of their own; the rest are token measures.
_KERNEL_MEASURES = (*_CELL_KERNELS, "qgrams", "monge_elkan")

# ----------------------------------------------------------------------
# The one scoring path
# ----------------------------------------------------------------------
def schema_based_cells(
    batch: StringBatch,
    measure: str,
    cell_left: np.ndarray,
    cell_right: np.ndarray | None = None,
) -> np.ndarray:
    """Scores of ``measure`` on cells of ``batch``'s unique-value grid.

    The per-measure dispatch every caller routes through.  With
    ``cell_right=None`` the call covers whole rows: unique left rows
    ``cell_left`` against every unique right value, shape
    ``(len(cell_left), n_unique_right)``.  Otherwise cell ``k`` is
    ``(cell_left[k], cell_right[k])`` and the result has one value per
    cell.  Either way each cell's value is bitwise equal to the frozen
    all-pairs matrix entry: the alignment/Jaro kernels run the same
    integer DP per cell, Monge-Elkan folds the shared Smith-Waterman
    grid in the same position order, and the token/q-gram sums are
    exactly representable integers (sparse products are row-local, so
    whole rows score bit-identically on any row subset).
    """
    cell_left = np.asarray(cell_left, dtype=np.intp)
    if cell_right is not None:
        cell_right = np.asarray(cell_right, dtype=np.intp)
    kernel = _CELL_KERNELS.get(measure)
    if kernel is not None:
        function, options = kernel
        return function(
            *batch.unique_left_encoding,
            *batch.unique_right_encoding,
            cell_left,
            cell_right,
            **options,
        )
    if measure == "monge_elkan":
        return np.clip(
            monge_elkan_cells(*batch.monge_elkan_grid, cell_left, cell_right),
            0.0,
            1.0,
        )
    if measure != "qgrams":
        _check_token_measure(measure)
    if cell_right is not None:
        if measure == "qgrams":
            return _qgram_pair_values(batch, cell_left, cell_right)
        return _token_pair_values(measure, batch, cell_left, cell_right)
    if measure == "qgrams":
        matrix_left, matrix_right = batch.unique_qgram_sparse
        result = _qgrams_values(_rows(matrix_left, cell_left), matrix_right)
    else:
        matrix_left, matrix_right = batch.unique_token_sparse
        binary_left, binary_right = batch.unique_token_binary
        bag_left, bag_right, set_left, set_right = batch.unique_token_sums
        result = _token_measure_values(
            measure,
            _rows(matrix_left, cell_left),
            matrix_right,
            _rows(binary_left, cell_left),
            binary_right,
            (bag_left[cell_left], bag_right, set_left[cell_left], set_right),
        )
    left_empty, right_empty = batch.unique_empty_sides
    result[left_empty[cell_left]] = 0.0
    result[:, right_empty] = 0.0
    return np.clip(result, 0.0, 1.0)


def _rows(matrix: sparse.csr_matrix, rows: np.ndarray) -> sparse.csr_matrix:
    """``matrix[rows]``, without the copy when ``rows`` is every row."""
    if rows.shape[0] == matrix.shape[0] and np.array_equal(
        rows, np.arange(rows.shape[0])
    ):
        return matrix
    return matrix[rows]


def schema_based_rows(
    batch: StringBatch, measure: str, start: int = 0, stop: int | None = None
) -> np.ndarray:
    """Rows ``[start, stop)`` of the all-pairs matrix of ``measure``.

    Any row range, no alignment: the distinct unique rows the range
    touches are scored as whole rows and gathered back to records, so
    every row equals the corresponding row of the full matrix bit for
    bit.
    """
    if measure not in _KERNEL_MEASURES:
        _check_token_measure(measure)
    plan = batch.plan
    rows = plan.left_inverse[start:stop]
    n_right = plan.shape[1]
    if rows.shape[0] == 0 or n_right == 0:
        return np.zeros((rows.shape[0], n_right))
    unique_rows, inverse = np.unique(rows, return_inverse=True)
    values = schema_based_cells(batch, measure, unique_rows)
    return values[np.ix_(inverse, plan.right_inverse)]


def schema_based_matrix(
    lefts: list[str],
    rights: list[str],
    measure: str,
    batch: StringBatch | None = None,
) -> np.ndarray:
    """All-pairs matrix for any of the 16 schema-based measures.

    ``batch`` optionally shares the encoded/tokenized artifacts across
    measures computed over the same value lists.
    """
    return schema_based_rows(_resolve_batch(lefts, rights, batch), measure)


def schema_based_pairs(
    lefts: list[str],
    rights: list[str],
    measure: str,
    sparse_plan: SparsePlan,
    batch: StringBatch | None = None,
) -> np.ndarray:
    """Per-candidate-pair values of a schema-based measure.

    Only the deduplicated candidate cells of ``sparse_plan`` are
    scored; the dense grid is never materialized.  For every retained
    pair ``k`` the value is bitwise equal to
    ``schema_based_matrix(lefts, rights, measure, batch)[pair_left[k],
    pair_right[k]]`` (``tests/pipeline/test_blocking.py`` asserts the
    equality property, ``benchmarks/bench_blocking.py`` guards it).
    """
    batch = _resolve_batch(lefts, rights, batch)
    if sparse_plan.n_pairs == 0:
        return np.zeros(0)
    return sparse_plan.scatter(
        schema_based_cells(
            batch, measure, sparse_plan.cell_left, sparse_plan.cell_right
        )
    )


def _zero_empty_cells(
    values: np.ndarray,
    batch: StringBatch,
    cell_left: np.ndarray,
    cell_right: np.ndarray,
) -> None:
    """Candidate-cell restriction of the empty-value convention."""
    left_empty, right_empty = batch.unique_empty_sides
    values[left_empty[cell_left] | right_empty[cell_right]] = 0.0


def _qgram_pair_values(
    batch: StringBatch, cell_left: np.ndarray, cell_right: np.ndarray
) -> np.ndarray:
    """Candidate-cell q-grams values via gathered profile rows.

    Profile counts are small non-negative integers, so every min-sum
    and total is exactly representable — the row-gathered sums equal
    the dense :func:`_qgrams_values` cells bit for bit.
    """
    matrix_left, matrix_right = batch.unique_qgram_sparse
    gathered_left = matrix_left[cell_left]
    gathered_right = matrix_right[cell_right]
    minimum = np.asarray(
        gathered_left.minimum(gathered_right).sum(axis=1)
    ).ravel()
    sums_left = matrix_left.sum(axis=1).A1
    sums_right = matrix_right.sum(axis=1).A1
    total = sums_left[cell_left] + sums_right[cell_right]
    with np.errstate(invalid="ignore", divide="ignore"):
        values = np.where(total > 0, 2.0 * minimum / total, 0.0)
    _zero_empty_cells(values, batch, cell_left, cell_right)
    return np.clip(values, 0.0, 1.0)


def _token_pair_values(
    measure: str,
    batch: StringBatch,
    cell_left: np.ndarray,
    cell_right: np.ndarray,
) -> np.ndarray:
    """Candidate-cell token-measure values via gathered count rows.

    All intermediates (dots, intersections, min-sums, squared norms)
    are integer-valued float64 below 2^53, hence exact however they
    are summed — the per-cell formulas then perform the same scalar
    IEEE operations as :func:`_token_measure_values`.
    """
    matrix_left, matrix_right = batch.unique_token_sparse
    binary_left, binary_right = batch.unique_token_binary
    bag_left, bag_right, set_left, set_right = batch.unique_token_sums
    gathered_left = matrix_left[cell_left]
    gathered_right = matrix_right[cell_right]

    def dot_rows() -> np.ndarray:
        return np.asarray(
            gathered_left.multiply(gathered_right).sum(axis=1)
        ).ravel()

    def intersection_rows() -> np.ndarray:
        return np.asarray(
            binary_left[cell_left]
            .multiply(binary_right[cell_right])
            .sum(axis=1)
        ).ravel()

    def min_sum_rows() -> np.ndarray:
        return np.asarray(
            gathered_left.minimum(gathered_right).sum(axis=1)
        ).ravel()

    with np.errstate(invalid="ignore", divide="ignore"):
        if measure == "cosine_tokens":
            norms_left = np.sqrt(
                matrix_left.multiply(matrix_left).sum(axis=1)
            ).A1
            norms_right = np.sqrt(
                matrix_right.multiply(matrix_right).sum(axis=1)
            ).A1
            denominator = norms_left[cell_left] * norms_right[cell_right]
            values = np.where(
                denominator > 0, dot_rows() / denominator, 0.0
            )
        elif measure == "euclidean_tokens":
            sq_left = matrix_left.multiply(matrix_left).sum(axis=1).A1
            sq_right = matrix_right.multiply(matrix_right).sum(axis=1).A1
            squared = (
                sq_left[cell_left] + sq_right[cell_right] - 2.0 * dot_rows()
            )
            distance = np.sqrt(np.maximum(squared, 0.0))
            bound = np.sqrt(sq_left[cell_left] + sq_right[cell_right])
            values = np.where(bound > 0, 1.0 - distance / bound, 0.0)
        elif measure in ("block_distance", "simon_white"):
            minimum = min_sum_rows()
            total = bag_left[cell_left] + bag_right[cell_right]
            values = np.where(total > 0, 2.0 * minimum / total, 0.0)
        elif measure == "dice":
            intersection = intersection_rows()
            total = set_left[cell_left] + set_right[cell_right]
            values = np.where(total > 0, 2.0 * intersection / total, 0.0)
        elif measure == "overlap":
            intersection = intersection_rows()
            smaller = np.minimum(set_left[cell_left], set_right[cell_right])
            values = np.where(smaller > 0, intersection / smaller, 0.0)
        elif measure == "jaccard":
            intersection = intersection_rows()
            union = (
                set_left[cell_left] + set_right[cell_right] - intersection
            )
            values = np.where(union > 0, intersection / union, 0.0)
        else:  # generalized_jaccard
            minimum = min_sum_rows()
            maximum = bag_left[cell_left] + bag_right[cell_right] - minimum
            values = np.where(maximum > 0, minimum / maximum, 0.0)
    _zero_empty_cells(values, batch, cell_left, cell_right)
    return np.clip(values, 0.0, 1.0)
