"""Vectorized schema-based string similarity over any set of cells.

The paper's protocol compares *every* pair of attribute values (no
blocking), which makes per-pair dynamic programming in Python the
bottleneck.  This module scores the 16 schema-based measures
(:data:`SCHEMA_BASED_MEASURES`) through the pairwise-kernel engine of
:mod:`repro.pipeline.kernels`, with one per-measure dispatch
(:func:`schema_based_cells`) behind every caller:

* every measure factors the pair grid down to *unique* value pairs
  (:class:`~repro.pipeline.kernels.UniquePlan`) — duplicated attribute
  values are computed once;
* each collection's per-value artifacts live on a :class:`StringSide`
  that grows in place (:meth:`StringSide.extend`); a
  :class:`StringBatch` pairs two sides, and
  :meth:`StringBatch.against` pairs new left values with the rows of
  some records of a kept side, which is how the service scores a pass
  without rebuilding its indexed collection;
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
* the token measures and the q-grams distance are count formulas,
  each written once (:func:`_count_values`) over one pairwise sum of
  two count profiles and per-side statistics that broadcast.  Only the
  pairwise sum has two shapes: a sparse product for whole rows (several
  times cheaper per cell) and row gathers for cell lists.

Convention: pairs where **either** value is empty get similarity 0 —
an absent value carries no matching evidence.  The per-pair
definitions of the measures (the test oracles in
``tests/oracles/textsim/``) keep the measure-level "both empty =
identical" convention instead; the graph builder needs the
evidence-level one.

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
from repro.textsim.tokenize import padded_trigrams, tokens
from repro.vectorspace.measures import pairwise_min_sum
from repro.vectorspace.profiles import (
    count_rows,
    encode_keys,
    first_positions,
    presence,
    widen,
)

__all__ = [
    "SCHEMA_BASED_MEASURES",
    "StringBatch",
    "StringSide",
    "check_measure",
    "measure_input",
    "schema_based_cells",
    "schema_based_rows",
    "schema_based_matrix",
    "schema_based_pairs",
]

#: The 16 schema-based syntactic measures of the paper's Appendix B.1:
#: the seven character-level measures, then the nine token-level ones.
#: The full similarity taxonomy enumerates its specs, and so orders its
#: graphs, in this order.
SCHEMA_BASED_MEASURES = (
    "levenshtein",
    "damerau_levenshtein",
    "jaro",
    "needleman_wunsch",
    "qgrams",
    "lcs_substring",
    "lcs_subsequence",
    "cosine_tokens",
    "euclidean_tokens",
    "block_distance",
    "dice",
    "simon_white",
    "overlap",
    "jaccard",
    "generalized_jaccard",
    "monge_elkan",
)


#: The side artifact each measure input reads (see :func:`measure_input`).
_SIDE_ARTIFACTS = {
    "encoded": "encoding",
    "tokens": "token_counts",
    "qgrams": "qgram_counts",
    "monge_elkan": "token_lists",
}


class StringSide:
    """One collection's share of a :class:`StringBatch`.

    The unique values in first-occurrence order (the per-side half of
    :class:`UniquePlan`: ``inverse`` maps records to unique rows),
    their emptiness, and lazily, one per name: the code-point
    ``encoding``, the ``token_lists``, the ``token_counts`` and
    ``qgram_counts`` rows and the ``monge_elkan`` token ids.  Count
    rows number their keys in the ``vocabularies`` a batch's two sides
    share, left side first, so a batch's count matrices equal a
    two-list construction array for array.  Monge-Elkan ids number
    each side's tokens on their own, as the Smith-Waterman grid's axes.

    :meth:`extend` appends records in place: new values add rows to
    every built artifact and new keys add columns, so no row or column
    moves.  :meth:`take` gives the side of a subset of the records,
    gathered from this one in time linear in the subset.
    """

    def __init__(
        self, values: list[str], vocabularies: dict | None = None
    ) -> None:
        if vocabularies is None:
            vocabularies = {"tokens": {}, "qgrams": {}}
        self.vocabularies = vocabularies
        self._rows: dict[str, int] = {}
        self.inverse = encode_keys(values, self._rows)
        self.values: list[str] = list(self._rows)
        self.empty = np.array([not s for s in self.values], dtype=bool)
        # This side's own token numbering (the Monge-Elkan ids).
        self._token_ids: dict[str, int] = {}
        self._artifacts: dict[str, object] = {}
        # (parent side, unique rows) of a side made by :meth:`take`.
        self._source: tuple[StringSide, np.ndarray] | None = None

    def extend(self, values: list[str]) -> None:
        """Append records ``values``; built artifacts grow with them.

        All or nothing: the new values' rows of every built artifact
        are built, their new keys numbered in staged vocabularies,
        before any field changes, so a build that raises (say, on a
        text the code-point encoding rejects) leaves the side as it
        was.
        """
        rows = _StagedKeys(self._rows)
        inverse = encode_keys(values, rows)
        part = StringSide(
            list(rows.added),
            {
                name: _StagedKeys(vocabulary)
                for name, vocabulary in self.vocabularies.items()
            },
        )
        part._token_ids = _StagedKeys(self._token_ids)
        joined = {
            name: _join(name, built, part.artifact(name))
            for name, built in self._artifacts.items()
        }
        for staged in (rows, part._token_ids, *part.vocabularies.values()):
            staged.commit()
        self.values.extend(part.values)
        self.inverse = np.concatenate([self.inverse, inverse])
        self.empty = np.concatenate([self.empty, part.empty])
        self._artifacts.update(joined)

    def take(self, records: np.ndarray) -> "StringSide":
        """The side of records ``records`` (read-only).

        Its unique values and every artifact but the Monge-Elkan ids
        are gathered from this side, built here on first use; its count
        rows keep this side's columns.  Equal to a side built from
        those records' values, up to the count rows' column numbering.
        """
        rows: dict[int, int] = {}
        inverse = encode_keys(self.inverse[records].tolist(), rows)
        keep = np.fromiter(rows, dtype=np.intp, count=len(rows))
        side = StringSide([], self.vocabularies)
        side.values = [self.values[row] for row in keep]
        side.inverse = inverse
        side.empty = self.empty[keep]
        side._source = (self, keep)
        return side

    def prepare(self, measure: str) -> None:
        """Build the artifact that scoring ``measure`` reads here."""
        self.artifact(_SIDE_ARTIFACTS[measure_input(measure)])

    def artifact(self, name: str):
        """Artifact ``name`` of every unique value, built on first use."""
        if name not in self._artifacts:
            if self._source is not None and name != "monge_elkan":
                parent, keep = self._source
                built = _gather(name, parent.artifact(name), keep)
            else:
                built = self._build(name)
            self._artifacts[name] = built
        return self._artifacts[name]

    def _build(self, name: str):
        """Artifact ``name`` of every unique value, built here."""
        values = self.values
        if name == "encoding":
            return encode_strings(values)
        if name == "token_lists":
            return [tokens(s) for s in values]
        if name == "token_counts":
            return count_rows(
                [Counter(words) for words in self.artifact("token_lists")],
                self.vocabularies["tokens"],
            )
        if name == "qgram_counts":
            return count_rows(
                [padded_trigrams(s) if s else Counter() for s in values],
                self.vocabularies["qgrams"],
            )
        if name == "monge_elkan":
            ids = [
                encode_keys(words, self._token_ids)
                for words in self.artifact("token_lists")
            ]
            return ids, self._token_ids
        raise KeyError(f"StringSide has no artifact {name!r}")


class _StagedKeys:
    """The columns of ``base``'s keys, then keys it lacks, numbered
    after them; ``base`` itself changes only on :meth:`commit`.

    Defines just what :func:`encode_keys` calls (``setdefault`` and
    ``len``), so any other use of it as a vocabulary fails loudly.
    """

    def __init__(self, base: dict) -> None:
        self.base = base
        self.added: dict = {}

    def setdefault(self, key, default):
        column = self.base.get(key)
        if column is None:
            column = self.added.setdefault(key, default)
        return column

    def __len__(self) -> int:
        return len(self.base) + len(self.added)

    def commit(self) -> None:
        """Add the staged keys, with their columns, to ``base``."""
        self.base.update(self.added)


def _join(name: str, built, part):
    """Artifact ``name`` of some values followed by ``part``'s."""
    if name == "encoding":
        (codes, lengths), (new_codes, new_lengths) = built, part
        width = max(codes.shape[1], new_codes.shape[1])
        joined = np.full((len(lengths) + len(new_lengths), width), -1,
                         dtype=np.int32)
        joined[: len(lengths), : codes.shape[1]] = codes
        joined[len(lengths):, : new_codes.shape[1]] = new_codes
        return joined, np.concatenate([lengths, new_lengths])
    if name == "token_lists":
        return built + part
    if name == "monge_elkan":
        return built[0] + part[0], built[1]
    width = max(built.shape[1], part.shape[1])
    return sparse.vstack(
        [widen(built, width), widen(part, width)], format="csr"
    )


def _gather(name: str, built, rows: np.ndarray):
    """Artifact ``name`` of the unique rows ``rows``."""
    if name == "encoding":
        # As wide as the rows' longest value, as encoding them would be:
        # the DP kernels step through every column of the right side.
        codes, lengths = built
        lengths = lengths[rows]
        width = int(lengths.max()) if lengths.shape[0] else 0
        return codes[rows, :width], lengths
    if name == "token_lists":
        return [built[row] for row in rows]
    return built[rows]


class StringBatch:
    """Shared per-``(lefts, rights)`` artifacts of the 16 measures.

    Two :class:`StringSide` objects, :attr:`left` and :attr:`right`,
    and the unique-grid artifacts the kernels read, each assembled
    from the sides on first use and kept: the :class:`UniquePlan`, the
    code-point matrices of the unique values (alignment measures and
    Jaro), the aligned sparse token-count matrices (token measures)
    and padded-trigram profiles (q-grams), and the Smith-Waterman token
    grid (Monge-Elkan).  Computing several measures over the same
    value pair (one attribute of one dataset) encodes and tokenizes
    only once.
    """

    def __init__(self, lefts: list[str], rights: list[str]) -> None:
        self.left = StringSide(lefts)
        self.right = StringSide(rights, self.left.vocabularies)

    @classmethod
    def against(
        cls,
        lefts: list[str],
        right: StringSide,
        records: np.ndarray,
        measure: str,
    ) -> "StringBatch":
        """The batch scoring ``measure`` for ``lefts`` against records
        ``records`` of the side ``right``.

        Builds only the left side and takes the records' rows of
        ``right`` (:meth:`StringSide.take`), so its cost follows
        ``len(lefts) + len(records)``, not the size of ``right``.
        ``right`` builds what ``measure`` reads first, if it has not
        yet; keys it has never seen then get columns after its own, in
        staged vocabularies the batch never commits, so the batch
        changes nothing else in ``right``.  Record ``k`` of the batch's right
        side is ``records[k]``.
        """
        right.prepare(measure)
        batch = cls.__new__(cls)
        batch.left = StringSide(
            lefts,
            {
                name: _StagedKeys(vocabulary)
                for name, vocabulary in right.vocabularies.items()
            },
        )
        batch.right = right.take(records)
        return batch

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
        left, right = self.left, self.right
        return UniquePlan(
            lefts=tuple(left.values),
            rights=tuple(right.values),
            left_inverse=left.inverse,
            right_inverse=right.inverse,
            left_index=first_positions(left.inverse),
            right_index=first_positions(right.inverse),
        )

    @cached_property
    def unique_left_encoding(self) -> tuple[np.ndarray, np.ndarray]:
        """Code-point matrix and lengths of the unique left values."""
        return self.left.artifact("encoding")

    @cached_property
    def unique_right_encoding(self) -> tuple[np.ndarray, np.ndarray]:
        """Code-point matrix and lengths of the unique right values."""
        return self.right.artifact("encoding")

    @cached_property
    def unique_empty_sides(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-side emptiness of the unique values (the empty-value
        convention masks cells from these two 1-D vectors)."""
        return self.left.empty, self.right.empty

    @cached_property
    def unique_token_sparse(
        self,
    ) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
        """Sparse token-count matrices of the unique values.

        The shared vocabulary numbers the tokens in first-occurrence
        order over the unique values, left side first, which is
        exactly the key order a full-list construction produces — row
        contents (and therefore the summation order of every sparse
        product) match a full-list matrix bit for bit.
        """
        return _aligned(
            self.left.artifact("token_counts"),
            self.right.artifact("token_counts"),
        )

    @cached_property
    def unique_token_binary(
        self,
    ) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
        """Binary (presence) versions of :attr:`unique_token_sparse`."""
        left, right = self.unique_token_sparse
        return presence(left), presence(right)

    @cached_property
    def unique_qgram_sparse(
        self,
    ) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
        """Padded-trigram profile matrices of the unique values."""
        return _aligned(
            self.left.artifact("qgram_counts"),
            self.right.artifact("qgram_counts"),
        )

    @cached_property
    def monge_elkan_grid(
        self,
    ) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
        """Per-value token-id lists plus the unique-token SW grid.

        Each side numbers its own tokens; id arrays keep duplicates in
        text order, the order the Monge-Elkan fold consumes them in.
        """
        ids_left, vocab_left = self.left.artifact("monge_elkan")
        ids_right, vocab_right = self.right.artifact("monge_elkan")
        grid = smith_waterman_grid(
            *encode_strings(list(vocab_left)),
            *encode_strings(list(vocab_right)),
        )
        return ids_left, ids_right, grid


def _aligned(
    left: sparse.csr_matrix, right: sparse.csr_matrix
) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """Two count matrices over the same columns."""
    width = max(left.shape[1], right.shape[1])
    return widen(left, width), widen(right, width)


def _resolve_batch(
    lefts: list[str], rights: list[str], batch: StringBatch | None
) -> StringBatch:
    return batch if batch is not None else StringBatch(lefts, rights)


def check_measure(measure: str) -> None:
    """Raise ``KeyError`` naming all 16 measures unless ``measure`` is
    one of :data:`SCHEMA_BASED_MEASURES`."""
    if measure not in SCHEMA_BASED_MEASURES:
        known = ", ".join(sorted(SCHEMA_BASED_MEASURES))
        raise KeyError(f"unknown measure {measure!r}; known: {known}")


#: Cell kernel and fixed options of every encoded-string measure.
_CELL_KERNELS = {
    "levenshtein": (edit_distance_cells, {}),
    "damerau_levenshtein": (edit_distance_cells, {"transpositions": True}),
    "needleman_wunsch": (edit_distance_cells, {"gap": 2}),
    "lcs_subsequence": (lcs_cells, {}),
    "lcs_substring": (lcs_cells, {"substring": True}),
    "jaro": (jaro_cells, {}),
}

#: The count profiles each token measure and q-grams reads (token
#: counts, token presence or padded-trigram counts) and whether its
#: pairwise sum is a min-sum (otherwise a dot product).
_COUNT_PROFILES = {
    "qgrams": ("unique_qgram_sparse", True),
    "cosine_tokens": ("unique_token_sparse", False),
    "euclidean_tokens": ("unique_token_sparse", False),
    "block_distance": ("unique_token_sparse", True),
    "dice": ("unique_token_binary", False),
    "simon_white": ("unique_token_sparse", True),
    "overlap": ("unique_token_binary", False),
    "jaccard": ("unique_token_binary", False),
    "generalized_jaccard": ("unique_token_sparse", True),
}


def measure_input(measure: str) -> str:
    """The shared :class:`StringBatch` input ``measure`` scores from.

    ``"encoded"`` (the code-point matrices), ``"tokens"`` (the token
    counts), ``"qgrams"`` (the padded-trigram counts) or
    ``"monge_elkan"`` (the Smith-Waterman token grid).  Raises
    ``KeyError`` for an unknown measure.
    """
    check_measure(measure)
    if measure in _CELL_KERNELS:
        return "encoded"
    if measure in _COUNT_PROFILES:
        return "qgrams" if measure == "qgrams" else "tokens"
    return "monge_elkan"


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
    source = measure_input(measure)
    cell_left = np.asarray(cell_left, dtype=np.intp)
    if cell_right is not None:
        cell_right = np.asarray(cell_right, dtype=np.intp)
    if source == "encoded":
        function, options = _CELL_KERNELS[measure]
        return function(
            *batch.unique_left_encoding,
            *batch.unique_right_encoding,
            cell_left,
            cell_right,
            **options,
        )
    if source == "monge_elkan":
        return np.clip(
            monge_elkan_cells(*batch.monge_elkan_grid, cell_left, cell_right),
            0.0,
            1.0,
        )
    return _count_values(batch, measure, cell_left, cell_right)


def _count_values(
    batch: StringBatch,
    measure: str,
    cell_left: np.ndarray,
    cell_right: np.ndarray | None,
) -> np.ndarray:
    """Scores of a token measure or q-grams, each formula written once.

    A formula reads one pairwise sum of two count profiles (a dot
    product or a min-sum; over token presence the dot product is the
    set intersection) and per-value statistics: profile sizes (bag or
    set sizes, q-gram totals) and squared norms.  Only the pairwise sum
    has two shapes: whole rows take one sparse product against every
    right row, cell lists gather each cell's two rows.  The statistics
    broadcast instead — a column of left values against a row of right
    ones, or one value per cell — so the formulas and the empty-value
    step below serve both.  Every sum is an integer-valued float64
    below 2^53, hence exact in any summation order, so both shapes
    feed a formula the same operands and score a cell bit for bit
    alike.  Q-grams is the block-distance formula over padded-trigram
    profiles.
    """
    artifact, min_sum = _COUNT_PROFILES[measure]
    left, right = getattr(batch, artifact)
    rows = _rows(left, cell_left)
    if cell_right is None:
        if min_sum:
            pairwise = pairwise_min_sum(rows, right)
        else:
            pairwise = (rows @ right.T).toarray()

        def sides(values_left, values_right):
            return values_left[cell_left, None], values_right[None, :]

    else:
        gathered = right[cell_right]
        if min_sum:
            pairwise = _row_sums(rows.minimum(gathered))
        else:
            pairwise = _row_sums(rows.multiply(gathered))

        def sides(values_left, values_right):
            return values_left[cell_left], values_right[cell_right]

    size_left, size_right = sides(_row_sums(left), _row_sums(right))
    with np.errstate(invalid="ignore", divide="ignore"):
        if measure in ("cosine_tokens", "euclidean_tokens"):
            squares_left, squares_right = sides(
                _row_sums(left.multiply(left)),
                _row_sums(right.multiply(right)),
            )
            if measure == "cosine_tokens":
                norms = np.sqrt(squares_left) * np.sqrt(squares_right)
                values = np.where(norms > 0, pairwise / norms, 0.0)
            else:
                total = squares_left + squares_right
                distance = np.sqrt(np.maximum(total - 2.0 * pairwise, 0.0))
                bound = np.sqrt(total)
                values = np.where(bound > 0, 1.0 - distance / bound, 0.0)
        elif measure == "overlap":
            smaller = np.minimum(size_left, size_right)
            values = np.where(smaller > 0, pairwise / smaller, 0.0)
        elif measure in ("jaccard", "generalized_jaccard"):
            union = size_left + size_right - pairwise
            values = np.where(union > 0, pairwise / union, 0.0)
        else:  # dice, simon_white, block_distance, qgrams
            total = size_left + size_right
            values = np.where(total > 0, 2.0 * pairwise / total, 0.0)
    values[np.logical_or(*sides(*batch.unique_empty_sides))] = 0.0
    return np.clip(values, 0.0, 1.0)


def _row_sums(matrix: sparse.csr_matrix) -> np.ndarray:
    return np.asarray(matrix.sum(axis=1)).ravel()


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
    check_measure(measure)
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
    check_measure(measure)
    batch = _resolve_batch(lefts, rights, batch)
    if sparse_plan.n_pairs == 0:
        return np.zeros(0)
    return sparse_plan.scatter(
        schema_based_cells(
            batch, measure, sparse_plan.cell_left, sparse_plan.cell_right
        )
    )
