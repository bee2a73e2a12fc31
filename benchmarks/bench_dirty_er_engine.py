"""Dirty-ER clustering benchmark: legacy networkx path vs compiled engine.

Runs the dirty-ER workload — the four clustering algorithms (CC, MCC,
EMCC, GECG) over every graph at all 20 thresholds — twice:

* the **legacy path**: the frozen networkx reference bodies
  (``tests/oracles/dirty_er.py``), each call
  re-pruning its own ``nx.Graph`` copy, scored with the scalar
  :func:`~repro.evaluation.metrics.evaluate_clusters`;
* the **engine path**:
  :func:`repro.experiments.runner.run_dirty_er_sweeps`, where each
  graph is compiled once (one descending edge sort + symmetric CSR —
  :mod:`repro.graph.unipartite`) and every grid point consumes cached
  threshold selections through the bitset/csgraph/triangle-base kernels,
  scored through the shared ``GroundTruthIndex``;

then asserts

* **identical cluster assignments** for all four algorithms at every
  grid threshold on every graph (canonical partition comparison, in a
  dedicated untimed verification pass) and identical sweep scores, and
* an engine speedup of at least the floor (3x on both profiles — the
  redundancy removed is structural: per-call graph copies, per-call
  whole-graph clique enumeration, Python triangle loops).

With ``--workers N`` a third engine pass distributes the graphs over a
process pool and asserts the results are invariant under the worker
count.  ``--json PATH`` writes the machine-readable report CI uploads
as a workflow artifact.

Run directly (the CI smoke job does)::

    PYTHONPATH=src python benchmarks/bench_dirty_er_engine.py [--smoke] [-j N]
"""

from __future__ import annotations

import argparse
import copy
import sys
import time
from pathlib import Path

import numpy as np

try:  # direct script execution: benchmarks/ is sys.path[0]
    from _report import write_report as _write_report
except ImportError:  # imported as benchmarks.bench_* from the repo root
    from benchmarks._report import write_report as _write_report

# The frozen oracles are the tests.oracles package under the repo root.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.evaluation.metrics import evaluate_clusters
from repro.evaluation.sweep import (
    DEFAULT_THRESHOLD_GRID,
    SweepPoint,
    SweepResult,
)
from repro.experiments.runner import run_dirty_er_sweeps
from repro.extensions.dirty_er import (
    DIRTY_ALGORITHM_CODES,
    create_clusterer,
)
from repro.graph.unipartite import UnipartiteGraph
from repro.pipeline.workbench import GraphRecord
from tests.oracles.dirty_er import cluster_legacy, to_networkx

#: Required engine-vs-legacy speedup.  The acceptance bar is 3x on the
#: CI smoke profile; the full profile holds the same floor.
MIN_SPEEDUP = 3.0
MIN_SPEEDUP_SMOKE = 3.0

#: (n_nodes, n_grouped, max_group, n_noise_edges) per synthetic graph.
#: Structure-heavy profiles (many planted groups, light noise): every
#: clique removal forces the legacy path to re-enumerate the whole
#: remaining graph while the engine re-searches one component.
DEFAULT_SHAPES = ((300, 220, 6, 360), (240, 180, 5, 300), (260, 190, 5, 320))
SMOKE_SHAPES = ((240, 180, 5, 300), (180, 130, 4, 240))


def synthetic_dirty_records(
    shapes: tuple[tuple[int, int, int, int], ...], seed: int = 42
) -> list[GraphRecord]:
    """Planted-cluster unipartite graphs with 2-decimal weights.

    A prefix of the nodes is partitioned into fully-connected duplicate
    groups carrying high weights; uniform noise edges carry low-to-mid
    weights.  Rounding to 2 decimals produces heavy weight ties, so
    the canonical tie-breaking of both paths is exercised at every
    grid point.  The planted intra-group pairs are the ground truth.
    """
    rng = np.random.default_rng(seed)
    records = []
    for index, (n_nodes, n_grouped, max_group, n_noise) in enumerate(shapes):
        edges: dict[tuple[int, int], float] = {}
        truth: set[tuple[int, int]] = set()
        node = 0
        while node < n_grouped:
            size = int(rng.integers(2, max_group + 1))
            group = list(range(node, min(node + size, n_grouped)))
            node += size
            if len(group) < 2:
                break
            for a_pos, a in enumerate(group):
                for b in group[a_pos + 1 :]:
                    edges[(a, b)] = max(
                        round(float(rng.uniform(0.55, 1.0)), 2), 0.01
                    )
                    truth.add((a, b))
        for _ in range(n_noise):
            a = int(rng.integers(n_nodes))
            b = int(rng.integers(n_nodes))
            if a == b:
                continue
            key = (min(a, b), max(a, b))
            if key in edges:
                continue
            edges[key] = max(round(float(rng.uniform(0.05, 0.6)), 2), 0.01)
        u, v = zip(*edges) if edges else ((), ())
        graph = UnipartiteGraph(
            n_nodes,
            u,
            v,
            tuple(edges.values()),
            name=f"dirty_bench_{index}",
        )
        records.append(
            GraphRecord(
                graph=graph,
                dataset=f"dirty_bench_{index}",
                family="synthetic",
                function=f"planted_{index}",
                category="BLC",
                ground_truth=truth,
            )
        )
    return records


# ----------------------------------------------------------------------
# Legacy path: per-call networkx clustering, verbatim semantics
# ----------------------------------------------------------------------
def legacy_dirty_sweep(clusterer, nx_graph, ground_truth, grid):
    """The pre-engine sweep loop: per-call pruning + scalar scoring,
    dispatching to the frozen ``*_legacy`` bodies."""
    weights = sorted(
        data.get("weight", 0.0) for _, _, data in nx_graph.edges(data=True)
    )
    sorted_weights = np.asarray(weights)
    result = SweepResult(algorithm=clusterer.code)
    previous_threshold = None
    previous_point = None
    for threshold in grid:
        if previous_point is not None and _no_weight_in_range(
            sorted_weights, previous_threshold, threshold
        ):
            point = SweepPoint(
                threshold=threshold,
                scores=previous_point.scores,
                seconds=previous_point.seconds,
            )
        else:
            start = time.perf_counter()
            clusters = cluster_legacy(clusterer, nx_graph, threshold)
            elapsed = time.perf_counter() - start
            scores = evaluate_clusters(clusters, ground_truth)
            point = SweepPoint(
                threshold=threshold, scores=scores, seconds=elapsed
            )
        result.points.append(point)
        previous_threshold = threshold
        previous_point = point
    return result


def _no_weight_in_range(sorted_weights, low, high):
    start = np.searchsorted(sorted_weights, low, side="left")
    end = np.searchsorted(sorted_weights, high, side="right")
    return start == end


def run_legacy(
    records: list[GraphRecord],
    grid=DEFAULT_THRESHOLD_GRID,
    codes=DIRTY_ALGORITHM_CODES,
) -> list[dict[str, SweepResult]]:
    all_sweeps = []
    for record in records:
        nx_graph = to_networkx(record.graph)
        all_sweeps.append(
            {
                code: legacy_dirty_sweep(
                    create_clusterer(code),
                    nx_graph,
                    record.ground_truth,
                    grid,
                )
                for code in codes
            }
        )
    return all_sweeps


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def assert_identical_sweeps(legacy, engine) -> None:
    """Every sweep point of every cell must match bit for bit."""
    assert len(legacy) == len(engine)
    for graph_index, (a_sweeps, b_sweeps) in enumerate(zip(legacy, engine)):
        assert set(a_sweeps) == set(b_sweeps)
        for code, a in a_sweeps.items():
            b = b_sweeps[code]
            label = f"graph {graph_index} {code}"
            assert len(a.points) == len(b.points), label
            for pa, pb in zip(a.points, b.points):
                assert pa.threshold == pb.threshold, label
                assert pa.scores == pb.scores, (
                    f"{label} t={pa.threshold}: "
                    f"{pa.scores} != {pb.scores}"
                )


def _canonical(clusters) -> list[tuple[int, ...]]:
    return sorted(tuple(sorted(cluster)) for cluster in clusters)


def assert_identical_clusterings(
    records: list[GraphRecord], grid=DEFAULT_THRESHOLD_GRID
) -> int:
    """Untimed verification: legacy and compiled partitions are equal,
    cluster for cluster, at every grid threshold."""
    checked = 0
    for record in records:
        nx_graph = to_networkx(record.graph)
        compiled = record.graph.compiled()
        for code in DIRTY_ALGORITHM_CODES:
            clusterer = create_clusterer(code)
            for threshold in grid:
                legacy = _canonical(
                    cluster_legacy(clusterer, nx_graph, threshold)
                )
                engine = _canonical(
                    clusterer.cluster_compiled(compiled, threshold)
                )
                assert legacy == engine, (
                    f"{record.function} {code} t={threshold}: "
                    f"clusterings diverge"
                )
                checked += 1
    return checked


def _fresh(records):
    """Deep-copied records so each timed pass starts with cold caches."""
    return copy.deepcopy(records)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny CI profile instead of the full benchmark profile",
    )
    parser.add_argument(
        "--workers", "-j", type=int, default=1,
        help="extra engine pass over a process pool (asserts invariance)",
    )
    parser.add_argument(
        "--no-assert", action="store_true",
        help="report without failing on the speedup threshold",
    )
    parser.add_argument(
        "--repeats", type=int, default=2,
        help="interleaved timing repeats; the per-path minimum is used",
    )
    parser.add_argument(
        "--json", type=str, default=None,
        help="write the machine-readable report to this path",
    )
    args = parser.parse_args(argv)
    shapes = SMOKE_SHAPES if args.smoke else DEFAULT_SHAPES
    records = synthetic_dirty_records(shapes)
    grid = DEFAULT_THRESHOLD_GRID
    n_cells = len(records) * len(DIRTY_ALGORITHM_CODES)

    # Warm-up: one tiny untimed pass per path (imports, allocators).
    warm = synthetic_dirty_records(((24, 16, 3, 30),), seed=1)
    run_legacy(_fresh(warm), grid)
    run_dirty_er_sweeps(_fresh(warm), grid=grid)

    legacy_seconds = engine_seconds = float("inf")
    legacy_sweeps = engine_results = None
    for _ in range(max(args.repeats, 1)):
        fresh = _fresh(records)
        start = time.perf_counter()
        legacy_sweeps = run_legacy(fresh, grid)
        legacy_seconds = min(legacy_seconds, time.perf_counter() - start)

        fresh = _fresh(records)
        start = time.perf_counter()
        engine_results = run_dirty_er_sweeps(fresh, grid=grid)
        engine_seconds = min(engine_seconds, time.perf_counter() - start)

    engine_sweeps = [result.sweeps for result in engine_results]
    assert_identical_sweeps(legacy_sweeps, engine_sweeps)
    checked = assert_identical_clusterings(_fresh(records), grid)
    speedup = (
        legacy_seconds / engine_seconds if engine_seconds else float("inf")
    )
    print(
        f"[bench_dirty_er_engine] {n_cells} sweep cells "
        f"({len(records)} graphs x {len(DIRTY_ALGORITHM_CODES)} "
        f"algorithms x {len(grid)} thresholds) | legacy "
        f"{legacy_seconds:.2f}s | engine {engine_seconds:.2f}s | "
        f"speedup {speedup:.2f}x | {checked} clusterings identical "
        f"(min of {max(args.repeats, 1)})"
    )

    if args.workers > 1:
        start = time.perf_counter()
        parallel_results = run_dirty_er_sweeps(
            _fresh(records), grid=grid, workers=args.workers
        )
        parallel_seconds = time.perf_counter() - start
        assert_identical_sweeps(
            engine_sweeps, [result.sweeps for result in parallel_results]
        )
        print(
            f"[bench_dirty_er_engine] engine x{args.workers} workers "
            f"{parallel_seconds:.2f}s | speedup vs legacy "
            f"{legacy_seconds / parallel_seconds:.2f}x (identical)"
        )

    floor = MIN_SPEEDUP_SMOKE if args.smoke else MIN_SPEEDUP
    passed = speedup >= floor
    if args.json:
        _write_report(
            args.json,
            "bench_dirty_er_engine",
            smoke=args.smoke,
            legacy_seconds=legacy_seconds,
            engine_seconds=engine_seconds,
            speedup=speedup,
            floor=floor,
            asserted=not args.no_assert,
            cells=n_cells,
            clusterings_checked=checked,
        )
    if not args.no_assert and not passed:
        print(
            f"[bench_dirty_er_engine] FAIL: speedup {speedup:.2f}x below "
            f"the {floor:.1f}x floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
