"""Matching-sweep benchmark: legacy per-call path vs compiled engine.

Runs the paper's core loop — every algorithm (all ten, including the
two oracles) over every graph at all 20 thresholds — twice:

* the **legacy path**: the pre-refactor implementations
  (``match_legacy`` in ``tests/oracles/matching.py``), each call
  masking, copying and re-sorting the edge arrays for itself, scored
  with the scalar ``evaluate_pairs``;
* the **engine path**: :func:`repro.experiments.runner.run_matching_sweeps`,
  where each graph is compiled once (one edge sort + CSR adjacency)
  and every ``(algorithm, threshold)`` cell consumes cached prefix
  slices, scored through the shared
  :class:`~repro.evaluation.metrics.GroundTruthIndex`;

then

* asserts the sweeps are **bit-identical** (same thresholds, same
  precision/recall/F1/counts at every sweep point of every algorithm
  on every graph), and
* asserts the engine is at least ``MIN_SPEEDUP``x faster wall-clock.

With ``--workers N`` a third engine pass distributes the (graph x
algorithm) cells over a process pool and asserts the results are
invariant under the worker count.  The ``--json`` report also carries
each algorithm's mean per-point seconds on both paths, from the
sweeps' own ``SweepPoint.seconds``.

Run directly (the CI smoke job does)::

    PYTHONPATH=src python benchmarks/bench_matching_sweep.py [--smoke] [-j N]

Not a pytest-benchmark harness on purpose: the comparison needs two
cold end-to-end runs of the same workload, not statistics over many
hot repetitions.
"""

from __future__ import annotations

import argparse
import copy
import sys
import time
from pathlib import Path
from statistics import fmean

import numpy as np

try:  # direct script execution: benchmarks/ is sys.path[0]
    from _report import write_report as _write_report
except ImportError:  # imported as benchmarks.bench_* from the repo root
    from benchmarks._report import write_report as _write_report

# The frozen oracles are the tests.oracles package under the repo root.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.evaluation.metrics import evaluate_pairs
from repro.evaluation.sweep import (
    DEFAULT_THRESHOLD_GRID,
    SweepPoint,
    SweepResult,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_matching_sweeps
from repro.graph.bipartite import SimilarityGraph
from repro.matching import BestMatchClustering, create_matcher
from repro.pipeline.workbench import GraphRecord
from tests.oracles.matching import match_legacy

#: Required engine-vs-legacy speedup on the benchmark profile.  The
#: redundancy the engine removes is structural (20 masks + sorts and
#: re-built adjacency per algorithm per graph), so 3x is conservative.
MIN_SPEEDUP = 3.0

#: Floor for the tiny ``--smoke`` profile, where per-run timing noise
#: on loaded CI runners is large relative to the workload.
MIN_SPEEDUP_SMOKE = 2.0

#: All ten algorithms: the paper's eight plus the two oracles.
ALL_CODES = (
    "CNC", "RSR", "RCA", "BAH", "BMC", "EXC", "KRC", "UMC", "HUN", "GSM",
)

#: (n_left, n_right, n_edges, parallel) of the synthetic benchmark
#: graphs.  A ``parallel`` graph draws its cells with replacement, so
#: some pairs carry several edges of different weights: the multigraph
#: paths (CNC's first copies of a pair, BAH's heaviest copy, HUN's
#: last write) run at benchmark scale too.
DEFAULT_SHAPES = (
    (150, 160, 15_000, False),
    (120, 200, 12_000, False),
    (180, 140, 14_000, False),
    (140, 150, 12_000, True),
)
SMOKE_SHAPES = ((70, 80, 3_500, False), (60, 70, 3_000, True))

#: BAH budgets: small enough that the seeded swap search does not
#: drown the per-call setup costs, large enough to stay a real search;
#: the generous time limit keeps the wall-clock cutoff out of play so
#: runs are deterministic.  Both paths make the same moves, but the
#: engine's bulk-drawn move stream makes each one cheaper, so BAH's
#: ratio measures the search itself as well as the setup.
BENCH_CONFIG = ExperimentConfig(
    bah_max_moves=300, bah_time_limit=600.0, bah_seed=7
)


def synthetic_records(
    shapes: tuple[tuple[int, int, int, bool], ...], seed: int = 42
) -> list[GraphRecord]:
    """Deterministic random graphs with 2-decimal weights (heavy ties,
    so tie-breaking is exercised at every threshold)."""
    rng = np.random.default_rng(seed)
    records = []
    for index, (n_left, n_right, n_edges, parallel) in enumerate(shapes):
        cells = rng.choice(n_left * n_right, size=n_edges, replace=parallel)
        weight = np.maximum(np.round(rng.random(n_edges), 2), 0.01)
        graph = SimilarityGraph(
            n_left,
            n_right,
            cells // n_right,
            cells % n_right,
            weight,
            name=f"bench_{index}",
        )
        n_truth = min(n_left, n_right) // 2
        truth = {
            (int(i), int(rng.integers(n_right))) for i in range(n_truth)
        }
        records.append(
            GraphRecord(
                graph=graph,
                dataset=f"bench_{index}",
                family="synthetic",
                function=f"uniform_{index}",
                category="BLC",
                ground_truth=truth,
            )
        )
    return records


# ----------------------------------------------------------------------
# Legacy path: the pre-refactor sweep loop, verbatim semantics
# ----------------------------------------------------------------------
def legacy_threshold_sweep(matcher, graph, ground_truth, grid):
    """The pre-engine ``threshold_sweep``: per-call sort + Python-set
    scoring, dispatching to the frozen legacy implementations."""
    result = SweepResult(algorithm=matcher.code)
    sorted_weights = np.sort(graph.weight)
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
            matching = match_legacy(matcher, graph, threshold)
            elapsed = time.perf_counter() - start
            scores = evaluate_pairs(matching.pairs, ground_truth)
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


def _legacy_matcher(code: str, config: ExperimentConfig):
    if code == "BAH":
        return create_matcher(
            "BAH",
            max_moves=config.bah_max_moves,
            time_limit=config.bah_time_limit,
            seed=config.bah_seed,
        )
    return create_matcher(code)


def run_legacy(
    records: list[GraphRecord],
    config: ExperimentConfig,
    codes: tuple[str, ...] = ALL_CODES,
) -> list[dict[str, SweepResult]]:
    """The pre-refactor experiment loop over all (graph, code) cells."""
    all_sweeps = []
    for record in records:
        sweeps: dict[str, SweepResult] = {}
        for code in codes:
            if code == "BMC":
                candidates = [
                    legacy_threshold_sweep(
                        BestMatchClustering(basis=basis),
                        record.graph,
                        record.ground_truth,
                        config.grid,
                    )
                    for basis in ("left", "right")
                ]
                sweeps[code] = max(
                    candidates, key=lambda s: s.best_scores.f_measure
                )
            else:
                sweeps[code] = legacy_threshold_sweep(
                    _legacy_matcher(code, config),
                    record.graph,
                    record.ground_truth,
                    config.grid,
                )
        all_sweeps.append(sweeps)
    return all_sweeps


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def assert_identical(
    legacy: list[dict[str, SweepResult]],
    engine: list[dict[str, SweepResult]],
) -> None:
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


def mean_point_seconds(
    all_sweeps: list[dict[str, SweepResult]],
) -> dict[str, float]:
    """Per algorithm, the mean ``SweepPoint.seconds`` over every graph's
    sweep (every sweep has one point per grid threshold)."""
    return {
        code: fmean(sweeps[code].mean_seconds for sweeps in all_sweeps)
        for code in ALL_CODES
    }


def _fresh(records: list[GraphRecord]) -> list[GraphRecord]:
    """Deep-copied records so each timed pass starts with cold caches
    (no compiled artifacts or adjacency lists left by a prior pass)."""
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
    records = synthetic_records(shapes)
    config = BENCH_CONFIG
    n_cells = len(records) * len(ALL_CODES)

    # Warm-up: one tiny untimed pass per path (imports, allocators).
    warm = synthetic_records(((20, 20, 150, False),), seed=1)
    run_legacy(_fresh(warm), config)
    run_matching_sweeps(_fresh(warm), config, codes=ALL_CODES)

    legacy_seconds = engine_seconds = float("inf")
    legacy_sweeps = engine_results = None
    for _ in range(max(args.repeats, 1)):
        fresh = _fresh(records)
        start = time.perf_counter()
        legacy_sweeps = run_legacy(fresh, config)
        legacy_seconds = min(legacy_seconds, time.perf_counter() - start)

        fresh = _fresh(records)
        start = time.perf_counter()
        engine_results = run_matching_sweeps(fresh, config, codes=ALL_CODES)
        engine_seconds = min(engine_seconds, time.perf_counter() - start)

    engine_sweeps = [result.sweeps for result in engine_results]
    assert_identical(legacy_sweeps, engine_sweeps)
    speedup = (
        legacy_seconds / engine_seconds if engine_seconds else float("inf")
    )
    print(
        f"[bench_matching_sweep] {n_cells} sweep cells "
        f"({len(records)} graphs x {len(ALL_CODES)} algorithms x "
        f"{len(DEFAULT_THRESHOLD_GRID)} thresholds) | legacy "
        f"{legacy_seconds:.2f}s | engine {engine_seconds:.2f}s | "
        f"speedup {speedup:.2f}x (bit-identical, min of "
        f"{max(args.repeats, 1)})"
    )

    if args.workers > 1:
        start = time.perf_counter()
        parallel_results = run_matching_sweeps(
            _fresh(records), config, codes=ALL_CODES, workers=args.workers
        )
        parallel_seconds = time.perf_counter() - start
        assert_identical(
            engine_sweeps, [result.sweeps for result in parallel_results]
        )
        print(
            f"[bench_matching_sweep] engine x{args.workers} workers "
            f"{parallel_seconds:.2f}s | speedup vs legacy "
            f"{legacy_seconds / parallel_seconds:.2f}x (bit-identical)"
        )

    floor = MIN_SPEEDUP_SMOKE if args.smoke else MIN_SPEEDUP
    passed = speedup >= floor
    if args.json:
        legacy_points = mean_point_seconds(legacy_sweeps)
        engine_points = mean_point_seconds(engine_sweeps)
        _write_report(
            args.json,
            "bench_matching_sweep",
            smoke=args.smoke,
            legacy_seconds=legacy_seconds,
            engine_seconds=engine_seconds,
            speedup=speedup,
            floor=floor,
            asserted=not args.no_assert,
            cells=n_cells,
            algorithm_point_seconds={
                code: {
                    "legacy": legacy_points[code],
                    "engine": engine_points[code],
                }
                for code in ALL_CODES
            },
        )
    if not args.no_assert and not passed:
        print(
            f"[bench_matching_sweep] FAIL: speedup {speedup:.2f}x below "
            f"the {floor:.1f}x floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
