"""Deduplicated, blocked, thread-parallel pairwise-kernel engine.

The similarity families compute all-pairs ``lefts x rights`` matrices.
Real clean-clean datasets repeat attribute values heavily, and the
per-pair Python loops of the string kernels dominate corpus generation
once models and embeddings are cached.  This module is the execution
layer those kernels route through:

* :class:`UniquePlan` factors the ``lefts x rights`` product down to
  the grid of *unique* values (first-occurrence order, so derived
  vocabularies match the non-deduplicated construction exactly) and
  scatters results back with ``np.ix_`` — every duplicated value pair
  is computed once.
* :func:`row_blocks` / :func:`run_blocks` tile the unique grid into
  cache-sized row blocks and execute them on a thread pool (the numpy
  kernels release the GIL).  Each block writes a disjoint row range of
  a preallocated output, so assembly is deterministic and the result
  is **invariant under the thread count** — the pool size comes from
  the same ``workers`` knob that drives process-level parallelism
  (:func:`kernel_threads` / :func:`get_kernel_threads`).
* Each string measure has **one cell kernel** (``*_cells``) that
  scores a list of unique-grid cells.  A call that covers whole rows
  (``cell_right=None`` — the dense and sharded paths) broadcasts the
  right side across the rows of a block; a cell list (the blocked and
  served paths) gathers each cell's right string instead.  Both shapes
  are *batched across left strings*: blocks are length-sorted and each
  DP step advances every left string of the block against its right
  strings simultaneously (3-D arrays), so the per-row Python overhead
  of the former one-left-at-a-time loops is amortized over the block.

Bit-identity is the design constraint, not a best effort: every kernel
performs the same IEEE operations in the same order as the body it
replaced, frozen as a test oracle in ``tests/oracles/strings.py``,
whatever the call shape (differential tests in
``tests/pipeline/test_kernels.py`` assert exact equality on arbitrary
cell lists, and ``benchmarks/bench_kernel_engine.py`` guards both the
>= 3x speedup and the bitwise match).  The Smith-Waterman
grid relies on all DP values being small multiples of 0.5 (dyadic
rationals), which makes the offset-based scan propagation exact; the
edit-distance DPs operate on exactly representable small integers.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ROW_CHUNK_CELLS",
    "UniquePlan",
    "SparsePlan",
    "kernel_threads",
    "get_kernel_threads",
    "row_chunk_size",
    "row_blocks",
    "run_blocks",
    "encode_strings",
    "edit_distance_cells",
    "lcs_cells",
    "jaro_cells",
    "smith_waterman_grid",
    "monge_elkan_cells",
]


# ----------------------------------------------------------------------
# Row chunking
# ----------------------------------------------------------------------
#: Cells per dense row chunk of the incremental scoring paths (~8 MB of
#: float64).  The chunk size is a function of the dataset *shape* only —
#: never of a memory budget or shard count — so shard boundaries always
#: land on chunk multiples and every chunked/sharded pass performs the
#: exact same per-block operations as the full dense pass.
ROW_CHUNK_CELLS = 1 << 20


def row_chunk_size(n_right: int) -> int:
    """Rows per dense chunk against ``n_right`` columns.

    Deterministic in the dataset shape alone, which is what makes the
    sharded paths bit-identical to the unsharded ones: any row range
    aligned to a multiple of this size decomposes into the same chunk
    blocks the full pass would compute.
    """
    return max(1, ROW_CHUNK_CELLS // max(int(n_right), 1))


# ----------------------------------------------------------------------
# Thread knob
# ----------------------------------------------------------------------
#: Kernel thread count of the current process; 1 = serial.  Process
#: workers keep the default (they already saturate the cores), the
#: serial corpus path raises it via :func:`kernel_threads`.
_KERNEL_THREADS = 1


def get_kernel_threads() -> int:
    """The thread count kernels use when none is passed explicitly."""
    return _KERNEL_THREADS


@contextmanager
def kernel_threads(n: int):
    """Context manager scoping the kernel thread pool size.

    Results are invariant under ``n`` by construction (disjoint block
    writes); only wall-clock changes.
    """
    global _KERNEL_THREADS
    previous = _KERNEL_THREADS
    _KERNEL_THREADS = max(int(n), 1)
    try:
        yield
    finally:
        _KERNEL_THREADS = previous


# ----------------------------------------------------------------------
# Unique-value execution plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class UniquePlan:
    """Factorization of ``lefts x rights`` into the unique-value grid.

    ``lefts`` / ``rights`` hold the distinct values in **first
    occurrence order** — the order in which a non-deduplicated pass
    would first see them — so vocabulary-building kernels produce the
    same vocabularies (and the same summation orders) as a full-list
    pass.  ``left_inverse[i]`` maps original row ``i`` to its
    unique row; ``left_index[u]`` maps unique row ``u`` back to the
    first original row holding that value.
    """

    lefts: tuple[str, ...]
    rights: tuple[str, ...]
    left_inverse: np.ndarray = field(compare=False)
    right_inverse: np.ndarray = field(compare=False)
    left_index: np.ndarray = field(compare=False)
    right_index: np.ndarray = field(compare=False)

    @classmethod
    def build(cls, lefts: list[str], rights: list[str]) -> "UniquePlan":
        unique_left, inverse_left, index_left = _first_occurrence(lefts)
        unique_right, inverse_right, index_right = _first_occurrence(rights)
        return cls(
            lefts=tuple(unique_left),
            rights=tuple(unique_right),
            left_inverse=inverse_left,
            right_inverse=inverse_right,
            left_index=index_left,
            right_index=index_right,
        )

    @property
    def shape(self) -> tuple[int, int]:
        """Shape of the full (non-deduplicated) matrix."""
        return len(self.left_inverse), len(self.right_inverse)

    @property
    def unique_shape(self) -> tuple[int, int]:
        """Shape of the unique-value grid."""
        return len(self.lefts), len(self.rights)

    @property
    def dedup_ratio(self) -> float:
        """Unique cells per full cell — 1.0 means nothing repeats."""
        full = self.shape[0] * self.shape[1]
        if full == 0:
            return 1.0
        return (self.unique_shape[0] * self.unique_shape[1]) / full

    def expand(self, unique_matrix: np.ndarray) -> np.ndarray:
        """Scatter a unique-grid matrix back to the full pair grid."""
        if 0 in self.shape:
            return np.zeros(self.shape)
        return unique_matrix[np.ix_(self.left_inverse, self.right_inverse)]


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


@dataclass(frozen=True)
class SparsePlan:
    """Candidate-cell execution plan — the sparse sibling of
    :class:`UniquePlan`.

    Candidate record pairs (from a blocking scheme) are mapped through
    the :class:`UniquePlan` inverses onto the unique-value grid and
    deduplicated: each distinct ``(unique left, unique right)`` cell is
    scored once by the ``*_cells`` kernels, then :meth:`scatter` maps
    per-cell values back to per-pair values.  Sharing the
    :class:`UniquePlan` universe means the sparse path consumes the
    exact same cached artifacts (encodings, token matrices, SW grids)
    as the dense path — and therefore the exact same inputs cell for
    cell, which is what makes the bit-identity guarantee composable.
    """

    plan: UniquePlan
    pair_left: np.ndarray = field(compare=False)
    pair_right: np.ndarray = field(compare=False)
    cell_left: np.ndarray = field(compare=False)
    cell_right: np.ndarray = field(compare=False)
    pair_to_cell: np.ndarray = field(compare=False)

    @classmethod
    def build(
        cls,
        plan: UniquePlan,
        pair_left: np.ndarray,
        pair_right: np.ndarray,
    ) -> "SparsePlan":
        pair_left = np.asarray(pair_left, dtype=np.intp)
        pair_right = np.asarray(pair_right, dtype=np.intp)
        stride = np.int64(max(len(plan.rights), 1))
        folded = (
            plan.left_inverse[pair_left].astype(np.int64) * stride
            + plan.right_inverse[pair_right]
        )
        cells, inverse = np.unique(folded, return_inverse=True)
        cell_left, cell_right = np.divmod(cells, stride)
        return cls(
            plan=plan,
            pair_left=pair_left,
            pair_right=pair_right,
            cell_left=cell_left.astype(np.intp),
            cell_right=cell_right.astype(np.intp),
            pair_to_cell=inverse.astype(np.intp),
        )

    @property
    def n_pairs(self) -> int:
        return int(self.pair_left.shape[0])

    @property
    def n_cells(self) -> int:
        return int(self.cell_left.shape[0])

    @property
    def dedup_ratio(self) -> float:
        """Scored cells per candidate pair — 1.0 means nothing repeats."""
        if self.n_pairs == 0:
            return 1.0
        return self.n_cells / self.n_pairs

    def scatter(self, cell_values: np.ndarray) -> np.ndarray:
        """Per-pair values from per-cell values (pure gather — exact)."""
        return cell_values[self.pair_to_cell]


# ----------------------------------------------------------------------
# Block scheduler
# ----------------------------------------------------------------------
#: Target cells (rows x padded right width) per DP block: ~0.5M float64
#: cells keep the handful of live DP slabs inside the L2/L3 cache.
_TARGET_BLOCK_CELLS = 1 << 19


def row_blocks(
    n_rows: int,
    row_weight: int,
    threads: int | None = None,
    target_cells: int = _TARGET_BLOCK_CELLS,
) -> list[tuple[int, int]]:
    """Contiguous row ranges tiling ``n_rows``.

    ``row_weight`` is the cost of one row (e.g. ``n_right * max_len``);
    blocks are sized so ``rows * row_weight`` stays near
    ``target_cells``.  With ``threads > 1`` blocks are additionally
    capped so the pool gets at least a few blocks per thread for load
    balancing.
    """
    if n_rows <= 0:
        return []
    threads = get_kernel_threads() if threads is None else max(threads, 1)
    per_block = max(1, target_cells // max(row_weight, 1))
    if threads > 1:
        balanced = -(-n_rows // (threads * 4))
        per_block = max(1, min(per_block, balanced))
    return [
        (start, min(start + per_block, n_rows))
        for start in range(0, n_rows, per_block)
    ]


def run_blocks(
    blocks: list[tuple[int, int]],
    kernel,
    threads: int | None = None,
) -> None:
    """Execute ``kernel(start, stop)`` for every block.

    Serial when ``threads <= 1`` or there is a single block; otherwise
    on a thread pool.  Kernels write disjoint output rows, so the
    result never depends on scheduling.
    """
    threads = get_kernel_threads() if threads is None else max(threads, 1)
    if threads <= 1 or len(blocks) <= 1:
        for start, stop in blocks:
            kernel(start, stop)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(kernel, start, stop) for start, stop in blocks]
        for future in futures:
            future.result()


# ----------------------------------------------------------------------
# Shared encoding helpers
# ----------------------------------------------------------------------
def encode_strings(strings: tuple[str, ...] | list[str]):
    """Pad strings into an int32 code-point matrix plus lengths.

    Padding uses ``-1``, which never equals a real code point — padded
    steps of the batched kernels are therefore self-masking.
    """
    lengths = np.array([len(s) for s in strings], dtype=np.int64)
    max_len = int(lengths.max()) if len(strings) else 0
    codes = np.full((len(strings), max_len), -1, dtype=np.int32)
    for row, text in enumerate(strings):
        if text:
            codes[row, : len(text)] = np.frombuffer(
                text.encode("utf-32-le"), dtype=np.uint32
            ).astype(np.int32)
    return codes, lengths


def _scan_min_inplace(rows: np.ndarray, offsets: np.ndarray) -> None:
    """``row[j] = min_k<=j (row[k] + step*(j-k))`` along the last axis.

    ``offsets`` is ``step * arange(width)`` in the rows' dtype; the
    scan runs fully in place.  On the exactly-representable integer
    (and dyadic) DP values the offset trick is exact, so this matches
    the scalar insert/gap propagation bit for bit.
    """
    np.subtract(rows, offsets, out=rows)
    np.minimum.accumulate(rows, axis=-1, out=rows)
    np.add(rows, offsets, out=rows)


def _scan_max_inplace(rows: np.ndarray, offsets: np.ndarray) -> None:
    """``row[j] = max_k<=j (row[k] + step*(j-k))`` along the last axis."""
    np.subtract(rows, offsets, out=rows)
    np.maximum.accumulate(rows, axis=-1, out=rows)
    np.add(rows, offsets, out=rows)


def _length_sorted_rows(lengths: np.ndarray) -> np.ndarray:
    """Non-empty row indices, longest first.

    Descending order gives each block a shrinking *prefix* of active
    rows as its DP steps pass the shorter strings, and packs strings of
    similar length together so padding waste stays small.
    """
    nonempty = np.flatnonzero(lengths > 0)
    order = np.argsort(-lengths[nonempty], kind="stable")
    return nonempty[order]


def _finished_segment(lens: np.ndarray, step: int) -> tuple[int, int]:
    """``[start, stop)`` of rows with exactly ``len == step``.

    ``lens`` is descending, so the rows finishing at this step form a
    contiguous segment ending at the active-prefix boundary.
    """
    start = int(np.searchsorted(-lens, -step, side="left"))
    stop = int(np.searchsorted(-lens, -step, side="right"))
    return start, stop


# ----------------------------------------------------------------------
# Cell kernels: one per measure, whole rows (broadcast) or cell lists
# ----------------------------------------------------------------------
class _Cells:
    """The cells of one kernel call on the unique-value grid.

    ``cell_right=None`` asks for whole rows: left row ``cell_left[k]``
    against every right value, with the right side *broadcast* across
    the rows of a block (result ``(n, n_right)``).  Otherwise cell
    ``k`` pairs ``cell_left[k]`` with ``cell_right[k]`` and each cell
    *gathers* its own right string (result ``(n,)``).  A DP cell's
    value depends only on its two strings and both shapes run the same
    integer operations followed by the same float formulas, so a
    cell's value never depends on the call that scored it — the
    bit-identity the dense, blocked, sharded and served paths rest on.

    Items with an empty left string are never scored; the others run
    longest-first, so a block's live rows form a shrinking prefix as
    the DP passes the shorter strings.
    """

    def __init__(
        self,
        left_codes: np.ndarray,
        left_lengths: np.ndarray,
        right_codes: np.ndarray,
        right_lengths: np.ndarray,
        cell_left: np.ndarray,
        cell_right: np.ndarray | None,
    ) -> None:
        self.left_codes, self.left_lengths = left_codes, left_lengths
        self.right_codes, self.right_lengths = right_codes, right_lengths
        self.cell_left = np.asarray(cell_left, dtype=np.intp)
        self.cell_right = (
            None
            if cell_right is None
            else np.asarray(cell_right, dtype=np.intp)
        )
        self.width = right_codes.shape[1]
        self.k = right_codes.shape[0] if cell_right is None else 1
        self.out = np.zeros((self.cell_left.shape[0], self.k))
        self.rows = _length_sorted_rows(left_lengths[self.cell_left])
        if self.k == 0:
            self.rows = self.rows[:0]

    def block(self, ids: np.ndarray):
        """``(lens, codes_a, codes_b, lens_b)`` of the items ``ids``.

        ``codes_b`` is ``(n, k, width)`` and ``lens_b`` ``(n, k)``:
        read-only broadcast views for whole rows, per-cell gathers
        (``k == 1``) otherwise.
        """
        left = self.cell_left[ids]
        if self.cell_right is None:
            shape = (len(ids), self.k)
            codes_b = np.broadcast_to(self.right_codes, (*shape, self.width))
            lens_b = np.broadcast_to(self.right_lengths, shape)
        else:
            right = self.cell_right[ids]
            codes_b = self.right_codes[right][:, None, :]
            lens_b = self.right_lengths[right][:, None]
        return self.left_lengths[left], self.left_codes[left], codes_b, lens_b

    def run(self, kernel, row_width: int, threads: int | None) -> None:
        """Execute ``kernel(start, stop)`` over blocks of :attr:`rows`."""
        blocks = row_blocks(len(self.rows), self.k * row_width, threads)
        run_blocks(blocks, kernel, threads)

    def result(self, clip: bool = True) -> np.ndarray:
        """Scores with empty-side cells zeroed (the builder convention)."""
        out = self.out
        out[self.left_lengths[self.cell_left] == 0] = 0.0
        if self.cell_right is None:
            out[:, self.right_lengths == 0] = 0.0
        else:
            out[self.right_lengths[self.cell_right] == 0] = 0.0
            out = out[:, 0]
        return np.clip(out, 0.0, 1.0) if clip else out


def edit_distance_cells(
    left_codes: np.ndarray,
    left_lengths: np.ndarray,
    right_codes: np.ndarray,
    right_lengths: np.ndarray,
    cell_left: np.ndarray,
    cell_right: np.ndarray | None = None,
    *,
    transpositions: bool = False,
    gap: int = 1,
    threads: int | None = None,
) -> np.ndarray:
    """Alignment-cost similarity ``1 - cost / (gap * longest)`` of cells.

    ``gap=1`` is the normalized Levenshtein distance (Damerau-Levenshtein
    OSA with ``transpositions``); ``gap=2`` is Needleman-Wunsch
    (mismatch 1, gap 2).  See :class:`_Cells` for the two call shapes.

    Each block runs one DP whose step ``i`` advances *every* left
    string of the block against its right strings; rows whose string
    ends at step ``i`` extract their costs and drop out of the active
    prefix.  All DP values are small integers, so the state lives in
    preallocated int32 slabs (half the traffic of float64, no per-step
    allocations) and converts to float only at extraction —
    bit-identical to float64 DPs.
    """
    cells = _Cells(
        left_codes, left_lengths, right_codes, right_lengths,
        cell_left, cell_right,
    )
    width = cells.width
    offsets = gap * np.arange(width + 1, dtype=np.int32)
    scale = float(gap)
    swap = transpositions and width >= 2

    def block(start: int, stop: int) -> None:
        ids = cells.rows[start:stop]
        lens, codes_a, codes_b, lens_b = cells.block(ids)
        shape = (len(ids), cells.k, width + 1)
        previous = np.broadcast_to(offsets, shape).copy()
        current = np.empty(shape, dtype=np.int32)
        scratch = np.empty(shape, dtype=np.int32)
        older = np.empty(shape, dtype=np.int32) if transpositions else None
        cost = np.empty(shape[:2] + (width,), dtype=bool)
        if swap:
            swap_ok = np.empty(shape[:2] + (width - 1,), dtype=bool)
            swap_prev = np.empty_like(swap_ok)
        prev_prev: np.ndarray | None = None
        prev_ca: np.ndarray | None = None
        for step in range(1, int(lens[0]) + 1):
            n_active = int(np.searchsorted(-lens, -step, side="right"))
            prev = previous[:n_active]
            cur = current[:n_active]
            tmp = scratch[:n_active]
            right = codes_b[:n_active]
            ca = codes_a[:n_active, step - 1, None, None]
            np.not_equal(right, ca, out=cost[:n_active])
            np.add(prev[..., :-1], cost[:n_active], out=cur[..., 1:])
            np.add(prev[..., 1:], gap, out=tmp[..., 1:])
            np.minimum(cur[..., 1:], tmp[..., 1:], out=cur[..., 1:])
            cur[..., 0] = step * gap
            if swap and prev_prev is not None:
                ok = swap_ok[:n_active]
                np.equal(right[..., :-1], ca, out=ok)
                np.equal(
                    right[..., 1:],
                    prev_ca[:n_active],
                    out=swap_prev[:n_active],
                )
                ok &= swap_prev[:n_active]
                candidate = tmp[..., 2:]
                np.add(prev_prev[:n_active, :, :-2], 1, out=candidate)
                np.minimum(cur[..., 2:], candidate, out=candidate)
                np.copyto(cur[..., 2:], candidate, where=ok)
            _scan_min_inplace(cur, offsets)  # insert propagation
            if transpositions:
                previous, current, older = current, older, previous
                prev_prev = older
            else:
                previous, current = current, previous
            prev_ca = ca
            first, last = _finished_segment(lens, step)
            if first < last:
                blens = lens_b[first:last]
                costs = np.take_along_axis(
                    previous[first:last], blens[..., None], axis=2
                )[..., 0]
                longest = np.maximum(step, blens)
                with np.errstate(invalid="ignore", divide="ignore"):
                    cells.out[ids[first:last]] = np.where(
                        longest > 0, 1.0 - costs / (scale * longest), 0.0
                    )

    cells.run(block, width + 1, threads)
    return cells.result()


def lcs_cells(
    left_codes: np.ndarray,
    left_lengths: np.ndarray,
    right_codes: np.ndarray,
    right_lengths: np.ndarray,
    cell_left: np.ndarray,
    cell_right: np.ndarray | None = None,
    *,
    substring: bool = False,
    threads: int | None = None,
) -> np.ndarray:
    """Longest-common-subsequence similarity ``lcs / longest`` of cells.

    With ``substring`` the common part must be contiguous (longest
    common substring).  Same block/DP layout as
    :func:`edit_distance_cells`.
    """
    cells = _Cells(
        left_codes, left_lengths, right_codes, right_lengths,
        cell_left, cell_right,
    )
    width = cells.width

    def block(start: int, stop: int) -> None:
        ids = cells.rows[start:stop]
        lens, codes_a, codes_b, lens_b = cells.block(ids)
        shape = (len(ids), cells.k, width + 1)
        best = np.zeros(shape[:2], dtype=np.int32)
        previous = np.zeros(shape, dtype=np.int32)
        current = np.empty(shape, dtype=np.int32)
        eq = np.empty(shape[:2] + (width,), dtype=bool)
        for step in range(1, int(lens[0]) + 1):
            n_active = int(np.searchsorted(-lens, -step, side="right"))
            prev = previous[:n_active]
            cur = current[:n_active]
            np.equal(
                codes_b[:n_active],
                codes_a[:n_active, step - 1, None, None],
                out=eq[:n_active],
            )
            if substring:
                np.add(prev[..., :-1], 1, out=cur[..., 1:])
                np.multiply(cur[..., 1:], eq[:n_active], out=cur[..., 1:])
                cur[..., 0] = 0
                np.maximum(
                    best[:n_active], cur.max(axis=-1), out=best[:n_active]
                )
            else:
                np.add(prev[..., :-1], eq[:n_active], out=cur[..., 1:])
                np.maximum(prev[..., 1:], cur[..., 1:], out=cur[..., 1:])
                cur[..., 0] = 0
                np.maximum.accumulate(cur, axis=-1, out=cur)
            previous, current = current, previous
            first, last = _finished_segment(lens, step)
            if first < last:
                blens = lens_b[first:last]
                if substring:
                    common = best[first:last]
                else:
                    common = np.take_along_axis(
                        previous[first:last], blens[..., None], axis=2
                    )[..., 0]
                longest = np.maximum(step, blens)
                with np.errstate(invalid="ignore", divide="ignore"):
                    cells.out[ids[first:last]] = np.where(
                        longest > 0, common / longest, 0.0
                    )

    cells.run(block, width + 1, threads)
    return cells.result()


def jaro_cells(
    left_codes: np.ndarray,
    left_lengths: np.ndarray,
    right_codes: np.ndarray,
    right_lengths: np.ndarray,
    cell_left: np.ndarray,
    cell_right: np.ndarray | None = None,
    threads: int | None = None,
) -> np.ndarray:
    """Jaro similarity of cells as a batched array kernel.

    The greedy common-character matching is inherently sequential in
    the *left* string's characters, but each of those steps is a pure
    array operation over every cell of the block: first-unflagged-match
    selection via ``argmax`` over the per-cell match window, then one
    vectorized transposition count from the cumulative match ranks.
    """
    cells = _Cells(
        left_codes, left_lengths, right_codes, right_lengths,
        cell_left, cell_right,
    )
    width = cells.width
    cols = np.arange(width)[None, None, :]

    def block(start: int, stop: int) -> None:
        ids = cells.rows[start:stop]
        lens, codes_a, codes_b, lens_b = cells.block(ids)
        shape = (len(ids), cells.k)
        la = lens[:, None]
        window = np.maximum(np.maximum(la, lens_b) // 2 - 1, 0)
        # Per-cell window bounds at step 0; both shift by one per step.
        low = 0 - window
        high = window.copy()
        # Unflagged-position tracking keeps candidate filtering to one
        # in-place ``&=`` per step; right-side padding positions stay
        # True forever but never match (the active-prefix slicing keeps
        # the -1 pad out of the left side, and a real code never equals
        # the pad).
        unflagged = np.ones((*shape, width), dtype=bool)
        matched = np.zeros((*shape, int(lens[0])), dtype=bool)
        cand = np.empty((*shape, width), dtype=bool)
        winbuf = np.empty_like(cand)
        for i in range(int(lens[0])):
            n_active = int(np.searchsorted(-lens, -(i + 1), side="right"))
            step_cand = cand[:n_active]
            step_win = winbuf[:n_active]
            np.equal(
                codes_b[:n_active], codes_a[:n_active, i, None, None],
                out=step_cand,
            )
            step_cand &= unflagged[:n_active]
            np.greater_equal(cols, low[:n_active, :, None], out=step_win)
            step_cand &= step_win
            np.less_equal(cols, high[:n_active, :, None], out=step_win)
            step_cand &= step_win
            has = step_cand.any(axis=-1)
            if has.any():
                first_j = np.argmax(step_cand, axis=-1)
                ai, bi = np.nonzero(has)
                unflagged[ai, bi, first_j[ai, bi]] = False
                matched[ai, bi, i] = True
            low += 1
            high += 1
        b_flag = ~unflagged
        common = b_flag.sum(axis=-1)
        transpositions = _jaro_transpositions(
            codes_a, codes_b, matched, b_flag, common
        )
        with np.errstate(invalid="ignore", divide="ignore"):
            cells.out[ids] = np.where(
                common > 0,
                (
                    common / la
                    + common / lens_b
                    + (common - transpositions) / np.maximum(common, 1)
                )
                / 3.0,
                0.0,
            )

    cells.run(block, max(width, 1), threads)
    return cells.result(clip=False)


def _jaro_transpositions(
    codes_a: np.ndarray,
    codes_b: np.ndarray,
    matched: np.ndarray,
    b_flag: np.ndarray,
    common: np.ndarray,
) -> np.ndarray:
    """Half the positions where the matched sequences disagree.

    The k-th matched left character (in left order) is lined up against
    the k-th flagged right character (in right order) by scattering
    both along their cumulative match ranks.
    """
    max_common = int(common.max()) if common.size else 0
    if max_common == 0:
        return np.zeros(common.shape, dtype=np.int64)
    rank_a = np.cumsum(matched, axis=-1) - 1
    rank_b = np.cumsum(b_flag, axis=-1) - 1
    seq_a = np.full((*common.shape, max_common), -1, dtype=np.int32)
    seq_b = np.full((*common.shape, max_common), -2, dtype=np.int32)
    ai, bi, ci = np.nonzero(matched)
    seq_a[ai, bi, rank_a[ai, bi, ci]] = codes_a[ai, ci]
    ai, bi, cj = np.nonzero(b_flag)
    seq_b[ai, bi, rank_b[ai, bi, cj]] = codes_b[ai, bi, cj]
    return ((seq_a != seq_b) & (seq_a != -1)).sum(axis=-1) // 2


# ----------------------------------------------------------------------
# Smith-Waterman token grid + Monge-Elkan assembly
# ----------------------------------------------------------------------
_SW_MATCH = 1.0
_SW_MISMATCH = -2.0
_SW_GAP = -0.5

def smith_waterman_grid(
    left_codes: np.ndarray,
    left_lengths: np.ndarray,
    right_codes: np.ndarray,
    right_lengths: np.ndarray,
    threads: int | None = None,
) -> np.ndarray:
    """All-pairs Smith-Waterman similarity of two token vocabularies.

    Every DP value is a small multiple of 0.5, so the whole DP runs on
    doubled int32 scores (match +2, mismatch -4, gap -1); halving at
    extraction is exact (dyadic), and the offset-based max scan used
    for the in-row gap propagation is exact on integers — the grid is
    bit-identical to the scalar
    :func:`repro.textsim.smith_waterman.smith_waterman_similarity`.
    """
    n_left, n_right = left_codes.shape[0], right_codes.shape[0]
    out = np.zeros((n_left, n_right))
    if n_left == 0 or n_right == 0:
        return out
    max_len = right_codes.shape[1]
    match2, mismatch2, gap2 = (
        int(2 * _SW_MATCH),
        int(2 * _SW_MISMATCH),
        int(2 * _SW_GAP),
    )
    offsets = gap2 * np.arange(max_len + 1, dtype=np.int32)
    rows = _length_sorted_rows(left_lengths)

    def block(start: int, stop: int) -> None:
        ids = rows[start:stop]
        lens = left_lengths[ids]
        codes_a = left_codes[ids]
        shape = (len(ids), n_right, max_len + 1)
        best = np.zeros((len(ids), n_right), dtype=np.int32)
        previous = np.zeros(shape, dtype=np.int32)
        current = np.empty(shape, dtype=np.int32)
        scratch = np.empty(shape, dtype=np.int32)
        substitution = np.empty(
            (len(ids), n_right, max_len), dtype=np.int32
        )
        for step in range(1, int(lens[0]) + 1):
            n_active = int(np.searchsorted(-lens, -step, side="right"))
            prev = previous[:n_active]
            cur = current[:n_active]
            tmp = scratch[:n_active]
            ca = codes_a[:n_active, step - 1]
            sub = substitution[:n_active]
            np.copyto(sub, mismatch2)
            np.copyto(
                sub,
                match2,
                where=right_codes[None, :, :] == ca[:, None, None],
            )
            np.add(prev[..., :-1], sub, out=cur[..., 1:])
            np.add(prev[..., 1:], gap2, out=tmp[..., 1:])
            np.maximum(cur[..., 1:], tmp[..., 1:], out=cur[..., 1:])
            np.maximum(cur[..., 1:], 0, out=cur[..., 1:])
            cur[..., 0] = 0
            _scan_max_inplace(cur, offsets)
            np.maximum(
                best[:n_active],
                cur[..., 1:].max(axis=-1),
                out=best[:n_active],
            )
            previous, current = current, previous
            first, last = _finished_segment(lens, step)
            if first < last:
                shortest = np.minimum(step, right_lengths)
                score = best[first:last] / 2.0
                with np.errstate(invalid="ignore", divide="ignore"):
                    out[ids[first:last]] = np.where(
                        shortest > 0,
                        score / (shortest * _SW_MATCH),
                        0.0,
                    )

    weight = n_right * (max_len + 1)
    run_blocks(row_blocks(len(rows), weight, threads), block, threads)
    return out


def monge_elkan_cells(
    left_token_ids: list[np.ndarray],
    right_token_ids: list[np.ndarray],
    grid: np.ndarray,
    cell_left: np.ndarray,
    cell_right: np.ndarray | None = None,
) -> np.ndarray:
    """Monge-Elkan of cells over a precomputed unique-token SW ``grid``.

    ``*_token_ids`` hold, per unique value, the token indices into the
    grid axes — duplicates included, in text order, exactly as the
    scalar measure iterates them.  Call shapes as in :class:`_Cells`.
    The max over a right value's tokens is one ``np.maximum.reduceat``
    per grid row over the right values the call needs (selection —
    exact); the mean over a left value's tokens is a strict left fold
    over token-count buckets, reproducing the scalar summation order
    bit-for-bit.
    """
    cell_left = np.asarray(cell_left, dtype=np.intp)
    whole_rows = cell_right is None
    needed = (
        range(len(right_token_ids)) if whole_rows else np.unique(cell_right)
    )
    nonempty = np.asarray(
        [j for j in needed if len(right_token_ids[j])], dtype=np.intp
    )
    out = np.zeros(
        (cell_left.shape[0], len(right_token_ids) if whole_rows else 1)
    )
    if nonempty.shape[0] == 0 or cell_left.shape[0] == 0:
        return out if whole_rows else out[:, 0]
    right_lists = [right_token_ids[j] for j in nonempty]
    offsets = np.cumsum([0] + [len(ids) for ids in right_lists[:-1]])
    # (unique left token) x (needed right value): best SW score of the
    # token against any token of the value.
    best = np.maximum.reduceat(
        grid[:, np.concatenate(right_lists)], offsets, axis=1
    )
    counts = np.asarray(
        [len(left_token_ids[i]) for i in cell_left], dtype=np.int64
    )
    valid = counts > 0
    if not whole_rows:
        column_of = np.full(len(right_token_ids), -1, dtype=np.int64)
        column_of[nonempty] = np.arange(nonempty.shape[0])
        columns = column_of[np.asarray(cell_right, dtype=np.intp)]
        valid &= columns >= 0
    for count in np.unique(counts[valid]):
        bucket = np.flatnonzero(valid & (counts == count))
        ids = np.stack([left_token_ids[cell_left[k]] for k in bucket])
        if whole_rows:
            values = best[ids]  # (bucket, count, needed values)
        else:
            values = best[ids, columns[bucket, None]][..., None]
        total = values[:, 0].copy()
        for position in range(1, int(count)):
            total += values[:, position]
        if whole_rows:
            out[np.ix_(bucket, nonempty)] = total / int(count)
        else:
            out[bucket] = total / int(count)
    return out if whole_rows else out[:, 0]
