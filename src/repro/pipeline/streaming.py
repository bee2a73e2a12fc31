"""Streaming replay driver: incremental ER over a record arrival stream.

The batch dirty-ER path computes everything from a complete
collection: one candidate set, one kernel pass, one compiled graph,
one clustering call.  This module replays the *same* collection as a
deterministic insertion sequence — a seeded permutation of the record
ids, consumed in fixed-size batches — and resolves it incrementally:

* candidates come from single-record probes of the frozen
  :class:`~repro.pipeline.blocking.BlockingIndex` (built once over
  the full collection, the serving convention: corpus statistics
  freeze at build time, so probe rows equal batch candidate rows),
* scores come from per-batch sparse kernel passes over one frozen
  :class:`~repro.pipeline.batched_strings.StringBatch` (per-pair
  scores are bitwise independent of which pairs share a pass),
* the graph grows through :func:`repro.graph.incremental.insert_uni_edges`,
  the only state the stream mutates, and
* partitions are the batch kernels
  (:meth:`~repro.extensions.dirty_er.DirtyClusterer.cluster_compiled`)
  run on that live compiled graph whenever a caller asks for them.

**Batch equivalence** is the load-bearing property: after the last
batch, the compiled edge permutation, CSR adjacency and every
partition are bit-identical to the batch path over the same records
(:func:`batch_reference`), whatever the seed or batch size.  The
compiled views are insertion-order invariant because a unipartite
graph has no duplicate edges — only the provenance ``order`` and the
raw source arrays remember arrival order.  The incrementality lives
in :mod:`repro.graph.incremental` alone: delta merges, selection
invalidation and the patched GECG triangle base keep the live graph
equal to a fresh compile, so the kernels need no second,
delta-maintained copy of any partition.

Both paths keep raw clipped scores (``normalize=False``): a stream
cannot min-max normalize mid-flight without rescaling every edge it
already inserted whenever a new extreme arrives.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.extensions.dirty_er import DIRTY_ALGORITHM_CODES, DirtyClusterer
from repro.graph.incremental import insert_uni_edges
from repro.graph.unipartite import (
    CompiledUnipartiteGraph,
    UnipartiteGraph,
    pairs_to_unipartite_graph,
)
from repro.pipeline.batched_strings import StringBatch, schema_based_pairs
from repro.pipeline.blocking import (
    BlockingIndex,
    build_candidate_set,
    canonical_blocking,
)
from repro.pipeline.kernels import SparsePlan

__all__ = [
    "StreamResult",
    "batch_reference",
    "canonical_clusters",
    "replay_stream",
    "stream_report",
]

#: Compiled views that must match the batch compile bit-for-bit.
#: ``order`` and the source arrays are provenance — they remember
#: insertion order, which the stream legitimately changes.
COMPILED_VIEWS = (
    "u_sorted",
    "v_sorted",
    "weight_sorted",
    "weight_ascending",
    "indptr",
    "neighbors",
    "neighbor_weights",
)


def canonical_clusters(clusters) -> list[tuple[int, ...]]:
    """Order-free canonical form of a partition."""
    return sorted(tuple(sorted(cluster)) for cluster in clusters)


@dataclass
class StreamResult:
    """Everything the replay produced, plus its cost breakdown.

    ``update_seconds`` is the incremental-maintenance cost the
    streaming tier exists to bound: the graph delta merges, excluding
    probing and kernel scoring (which the batch path pays
    identically).  ``partition_seconds`` accumulates the kernel calls
    of :meth:`partitions`.  ``rebuild_seconds`` is the cost of
    one from-scratch compile + clustering measured when the stream
    crossed ``probe_records`` records (the half-way rebuild probe) —
    ``None`` unless the probe was requested.
    """

    n_records: int
    batch_size: int
    seed: int
    measure: str
    blocking: str
    threshold: float
    algorithms: tuple[str, ...]
    arrival: np.ndarray = field(repr=False)
    compiled: CompiledUnipartiteGraph = field(repr=False)
    n_batches: int = 0
    n_pairs_scored: int = 0
    probe_seconds: float = 0.0
    score_seconds: float = 0.0
    update_seconds: float = 0.0
    partition_seconds: float = 0.0
    probe_records: int | None = None
    probe_update_seconds: float | None = None
    rebuild_seconds: float | None = None

    @property
    def n_edges(self) -> int:
        return self.compiled.n_edges

    def partitions(self) -> dict[str, list[tuple[int, ...]]]:
        """Canonical partitions of the live graph, one per algorithm.

        Each is the batch kernel run on ``compiled`` as it stands, so
        it follows any later mutation of it (an insert, a delete, node
        growth) with no notification.
        """
        start = time.perf_counter()
        out = {
            code: canonical_clusters(
                DirtyClusterer(code).cluster_compiled(
                    self.compiled, self.threshold
                )
            )
            for code in self.algorithms
        }
        self.partition_seconds += time.perf_counter() - start
        return out


def batch_reference(
    texts: list[str],
    values: list[str] | None = None,
    *,
    measure: str,
    blocking: str,
) -> UnipartiteGraph:
    """The batch path the stream must reproduce bit-for-bit.

    One candidate set over the full self join, one sparse kernel
    pass, one graph build keeping the strict upper triangle of
    positive clipped scores (raw, un-normalized — see the module
    docstring).
    """
    values = list(texts) if values is None else list(values)
    candidates = build_candidate_set(
        list(texts), list(texts), canonical_blocking(blocking)
    )
    batch = StringBatch(values, values)
    plan = SparsePlan.build(batch.plan, candidates.left, candidates.right)
    scored = schema_based_pairs(values, values, measure, plan, batch)
    return pairs_to_unipartite_graph(
        len(texts),
        candidates.left,
        candidates.right,
        scored,
        name="stream-reference",
        normalize=False,
    )


def replay_stream(
    texts: list[str],
    values: list[str] | None = None,
    *,
    measure: str,
    blocking: str,
    threshold: float,
    algorithms: tuple[str, ...] = DIRTY_ALGORITHM_CODES,
    seed: int = 42,
    batch_size: int = 32,
    rebuild_probe: bool = False,
) -> StreamResult:
    """Replay ``texts`` as a seeded insertion stream and resolve it.

    Records arrive in ``np.random.default_rng(seed).permutation(n)``
    order, ``batch_size`` at a time.  An unordered pair ``{i, j}``
    (``i < j`` by record id) is a candidate iff the batch candidate
    set keeps cell ``(i, j)`` — that is, iff ``j`` survives the
    frozen-index probe of record ``i`` — and it is scored in the
    first batch where both endpoints have arrived, exactly once.

    The replay only grows the compiled graph; it clusters nothing.
    :meth:`StreamResult.partitions` runs the kernels of
    ``algorithms`` on the live graph when asked.  A NaN
    ``threshold`` would select no edge, so it raises
    :class:`ValueError` before the first probe.

    With ``rebuild_probe=True`` the replay times one from-scratch
    compile-and-cluster of the graph-so-far when the stream crosses
    the half-way record, the denominator of the amortized-cost guard
    in ``benchmarks/bench_streaming.py``.
    """
    texts = list(texts)
    values = list(texts) if values is None else list(values)
    if len(values) != len(texts):
        raise ValueError("values must parallel texts")
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    if math.isnan(threshold):
        raise ValueError(f"threshold must be a number, got {threshold!r}")
    algorithms = tuple(code.upper() for code in algorithms)
    unknown = set(algorithms) - set(DIRTY_ALGORITHM_CODES)
    if unknown:
        raise ValueError(f"unknown algorithms {sorted(unknown)}")
    n = len(texts)
    blocking = canonical_blocking(blocking)
    arrival = np.random.default_rng(seed).permutation(n)

    # Frozen serving state over the full collection: corpus statistics
    # (IDF thresholds, minhash permutations, unique-value universe)
    # freeze at build time so every probe and every score matches the
    # batch build bit-for-bit regardless of arrival order.
    index = BlockingIndex.build(texts, texts, blocking)
    batch_strings = StringBatch(values, values)

    compiled = UnipartiteGraph(n, [], [], [], name="stream").compiled()
    result = StreamResult(
        n_records=n,
        batch_size=batch_size,
        seed=seed,
        measure=measure,
        blocking=blocking,
        threshold=threshold,
        algorithms=algorithms,
        arrival=arrival,
        compiled=compiled,
    )

    arrived = np.zeros(n, dtype=bool)
    # pending[j] = arrived records i < j whose candidate (i, j) waits
    # for j; consumed exactly once when j arrives.
    pending: dict[int, list[int]] = {}
    halfway = n // 2
    ingested = 0
    for at in range(0, n, batch_size):
        batch_records = arrival[at : at + batch_size].tolist()
        arrived[batch_records] = True
        ready_u: list[int] = []
        ready_v: list[int] = []
        probe_start = time.perf_counter()
        for record in batch_records:
            for partner in index.probe(texts[record]).tolist():
                if partner <= record:
                    continue
                if arrived[partner]:
                    ready_u.append(record)
                    ready_v.append(partner)
                else:
                    pending.setdefault(partner, []).append(record)
            for left in pending.pop(record, ()):
                ready_u.append(left)
                ready_v.append(record)
        result.probe_seconds += time.perf_counter() - probe_start

        if ready_u:
            score_start = time.perf_counter()
            pair_u = np.asarray(ready_u, dtype=np.intp)
            pair_v = np.asarray(ready_v, dtype=np.intp)
            plan = SparsePlan.build(batch_strings.plan, pair_u, pair_v)
            scored = schema_based_pairs(
                values, values, measure, plan, batch_strings
            )
            result.n_pairs_scored += len(scored)
            keep = scored > 0.0
            pair_u = pair_u[keep]
            pair_v = pair_v[keep]
            weights = np.clip(scored[keep], 0.0, 1.0)
            result.score_seconds += time.perf_counter() - score_start

            if len(weights):
                update_start = time.perf_counter()
                insert_uni_edges(compiled, pair_u, pair_v, weights)
                result.update_seconds += (
                    time.perf_counter() - update_start
                )
        result.n_batches += 1
        ingested += len(batch_records)

        if (
            rebuild_probe
            and result.rebuild_seconds is None
            and ingested >= halfway
        ):
            result.probe_records = ingested
            result.probe_update_seconds = result.update_seconds
            result.rebuild_seconds = _time_rebuild(
                compiled, threshold, algorithms
            )
    return result


def _time_rebuild(
    compiled: CompiledUnipartiteGraph,
    threshold: float,
    algorithms: tuple[str, ...],
) -> float:
    """One from-scratch compile + clustering of the graph so far."""
    source = compiled.source
    start = time.perf_counter()
    fresh = UnipartiteGraph(
        source.n_nodes,
        np.array(source.u, copy=True),
        np.array(source.v, copy=True),
        np.array(source.weight, copy=True),
        validate=False,
    ).compiled()
    for code in algorithms:
        DirtyClusterer(code).cluster_compiled(fresh, threshold)
    return time.perf_counter() - start


def stream_report(
    result: StreamResult,
    texts: list[str],
    values: list[str] | None = None,
) -> dict:
    """Compare the replayed state against :func:`batch_reference`.

    Returns a JSON-friendly report: per-view bit-identity of the
    compiled graph, per-algorithm partition identity, and the cost
    breakdown.  The driver and the benchmark both consume it; the
    tests assert every boolean.
    """
    reference = batch_reference(
        texts, values, measure=result.measure, blocking=result.blocking
    ).compiled()
    views = {
        name: bool(
            np.array_equal(
                getattr(result.compiled, name), getattr(reference, name)
            )
        )
        for name in COMPILED_VIEWS
    }
    streamed = result.partitions()
    partitions = {
        code: streamed[code]
        == canonical_clusters(
            DirtyClusterer(code).cluster_compiled(
                reference, result.threshold
            )
        )
        for code in result.algorithms
    }
    return {
        "n_records": result.n_records,
        "batch_size": result.batch_size,
        "seed": result.seed,
        "measure": result.measure,
        "blocking": result.blocking,
        "threshold": result.threshold,
        "n_batches": result.n_batches,
        "n_pairs_scored": result.n_pairs_scored,
        "n_edges": result.n_edges,
        "n_edges_batch": reference.n_edges,
        "graph_identical": all(views.values()),
        "views": views,
        "partitions_identical": partitions,
        "probe_seconds": result.probe_seconds,
        "score_seconds": result.score_seconds,
        "update_seconds": result.update_seconds,
        "partition_seconds": result.partition_seconds,
        "probe_records": result.probe_records,
        "probe_update_seconds": result.probe_update_seconds,
        "rebuild_seconds": result.rebuild_seconds,
    }
