"""Out-of-core sharded execution: bounded-memory scoring over row shards.

The dense engine paths materialize one ``n_left x n_right`` float64
matrix per similarity function — the single largest allocation of a
corpus run, and the reason datasets beyond RAM are untouchable even
when blocking makes the *pair* count tiny.  This module plans the
split of the (post-blocking) candidate space into independent
**row-range shards**:

* :class:`ShardPlanner` sizes shards to a ``memory_budget`` from the
  record counts, the unique-value statistics of the texts and the
  candidate density of the blocking scheme (dense density when no
  blocking is configured).  Plans are pure functions of their inputs —
  the same dataset and budget always produce the same boundaries.
* :func:`plan_for_dataset` derives those statistics from a generated
  dataset.

The plans execute in the corpus workbench
(:mod:`repro.pipeline.workbench`, ``GraphCorpusConfig.max_memory``):
every shard range is one resilient pool task making one
:meth:`~repro.pipeline.engine.SimilarityEngine.score` call, journaled
as it lands, and :func:`~repro.pipeline.workbench.concat_scores`
merges each spec's shard scores in range order.

Merge determinism rules
-----------------------
The merged graph is **bit-identical to the unsharded path and
invariant to the shard count** because of three invariants:

1. Shards cover disjoint, consecutive row ranges, and each shard emits
   its edges in exactly the order the full-matrix construction would —
   row-major nonzero order on the dense path, candidate order under
   blocking — so concatenating shards in range order reproduces the
   unsharded edge stream.
2. A string-measure shard scores exactly its own rows (or candidate
   cells): the cell kernels are per-cell exact, so any row split
   reproduces the unsharded scores.  Only the BLAS families (vector,
   graph, semantic) need grid alignment: their shards evaluate *whole*
   blocks of the absolute row-chunk grid
   (:func:`~repro.pipeline.kernels.row_chunk_size`, a function of the
   dataset shape alone) and slice the rows they own, so every gemm has
   the same operands and shape as in the unsharded chunked pass —
   shard boundaries are free to land on any row.
3. Shards return **raw** (unclipped) scores; clipping and min-max
   normalization run once, over the merged stream, through the same
   :func:`~repro.pipeline.graph_builder.pairs_to_graph` the blocking
   layer uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.pipeline.kernels import row_chunk_size

__all__ = [
    "ShardPlan",
    "ShardPlanner",
    "plan_for_dataset",
]


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic split of ``n_left`` rows into range shards.

    ``boundaries`` holds the ascending shard start rows (the first is
    always ``0``); shard ``i`` covers ``[boundaries[i], boundaries[i+1])``
    with the last shard ending at ``n_left``.  ``chunk`` records the
    dataset's absolute row-chunk grid size and ``bytes_per_row`` the
    planner's spill estimate — both informational; execution derives
    the grid from the dataset shape again.
    """

    n_left: int
    n_right: int
    chunk: int
    boundaries: tuple[int, ...]
    memory_budget: int | None = None
    bytes_per_row: int = 0

    @property
    def n_shards(self) -> int:
        return len(self.boundaries)

    def ranges(self) -> list[tuple[int, int]]:
        """``(start, stop)`` row ranges, in merge order."""
        stops = (*self.boundaries[1:], self.n_left)
        return list(zip(self.boundaries, stops))

    def describe(self) -> str:
        """Human-readable plan summary for ``repro shard plan``."""
        rows = max(
            (stop - start for start, stop in self.ranges()), default=0
        )
        budget = (
            f"{self.memory_budget / 1e6:.1f} MB"
            if self.memory_budget is not None
            else "none"
        )
        lines = [
            f"{self.n_shards} shard(s) x <= {rows} rows over "
            f"{self.n_left} x {self.n_right} cells",
            f"budget {budget}, est. {self.bytes_per_row} spill "
            f"bytes/row, chunk grid {self.chunk} rows "
            f"(~{self.chunk * max(self.n_right, 1) * 8 / 1e6:.1f} MB "
            "per dense block)",
        ]
        for index, (start, stop) in enumerate(self.ranges()):
            est = (stop - start) * self.bytes_per_row
            lines.append(
                f"  shard {index}: rows [{start}, {stop}) "
                f"(~{est / 1e6:.1f} MB est. spill)"
            )
        return "\n".join(lines)


class ShardPlanner:
    """Sizes row-range shards to a memory budget.

    The estimate charges each shard for its accumulated spill edges
    (``EDGE_BYTES`` per expected positive cell — candidate density
    under blocking, full width without) and reserves a fixed overhead
    for the transient per-chunk state: one dense block of the chunk
    grid plus the unique-value scratch of the string kernels.  All
    inputs are dataset statistics, so planning is deterministic.
    """

    #: Spilled bytes per edge: two int64 indices plus one float64 score.
    EDGE_BYTES = 24
    #: Bytes per dense matrix cell (float64).
    CELL_BYTES = 8
    #: Scratch bytes charged per unique left value of a chunk (encoded
    #: code points + token index slots of a transient string batch).
    UNIQUE_BYTES = 256

    @staticmethod
    def plan(
        n_left: int,
        n_right: int,
        memory_budget: int | None = None,
        *,
        candidates_per_row: float | None = None,
        unique_fraction: float = 1.0,
        n_shards: int | None = None,
    ) -> ShardPlan:
        """A :class:`ShardPlan` for an ``n_left x n_right`` space.

        ``n_shards`` forces an explicit shard count (used by the
        invariance tests and benchmarks); otherwise the count follows
        from ``memory_budget``, and no budget means one shard.
        """
        n_left = max(int(n_left), 0)
        n_right = max(int(n_right), 0)
        chunk = row_chunk_size(n_right)
        edges_per_row = (
            float(n_right)
            if candidates_per_row is None
            else max(float(candidates_per_row), 0.0)
        )
        row_bytes = max(
            int(math.ceil(edges_per_row * ShardPlanner.EDGE_BYTES)), 1
        )
        if n_shards is not None:
            count = max(int(n_shards), 1)
            rows = max(-(-max(n_left, 1) // count), 1)
        elif memory_budget is None:
            rows = max(n_left, 1)
        else:
            overhead = chunk * max(n_right, 1) * ShardPlanner.CELL_BYTES
            overhead += int(
                chunk * min(max(unique_fraction, 0.0), 1.0)
                * ShardPlanner.UNIQUE_BYTES
            )
            rows = max((int(memory_budget) - overhead) // row_bytes, 1)
            if rows >= chunk:
                # Align full shards to the chunk grid so interior
                # shards never pay a partial boundary block.
                rows -= rows % chunk
        boundaries = tuple(range(0, max(n_left, 1), rows))
        return ShardPlan(
            n_left=n_left,
            n_right=n_right,
            chunk=chunk,
            boundaries=boundaries,
            memory_budget=(
                None if memory_budget is None else int(memory_budget)
            ),
            bytes_per_row=row_bytes,
        )


def plan_for_dataset(
    dataset,
    memory_budget: int | None = None,
    blocking: str | None = None,
    *,
    n_shards: int | None = None,
) -> ShardPlan:
    """Plan shards for a generated dataset.

    Derives the planner statistics from the dataset itself: record
    counts from the collections, the unique-value fraction from the
    schema-agnostic texts, and — when ``blocking`` is given — the
    candidate density of the blocking scheme.
    """
    texts_left = dataset.left.texts()
    texts_right = dataset.right.texts()
    n_left, n_right = len(texts_left), len(texts_right)
    candidates_per_row = None
    if blocking is not None:
        from repro.pipeline.blocking import build_candidate_set

        candidates = build_candidate_set(texts_left, texts_right, blocking)
        candidates_per_row = candidates.n_pairs / max(n_left, 1)
    unique_fraction = len(set(texts_left)) / max(n_left, 1)
    return ShardPlanner.plan(
        n_left,
        n_right,
        memory_budget,
        candidates_per_row=candidates_per_row,
        unique_fraction=unique_fraction,
        n_shards=n_shards,
    )
