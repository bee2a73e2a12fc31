"""Resilience benchmark: runner overhead and resume-after-kill cost.

The fault-tolerant runner (:mod:`repro.pipeline.resilience`) wraps
every fan-out in the pipeline, so it must be close to free when
nothing fails, and a ``--resume`` after a mid-run death must cost a
fraction of starting over.  Two self-asserting gates:

* **Overhead** — the full matching sweep driven through
  ``ResilientPool`` must reach at least ``MIN_OVERHEAD_SPEEDUP``
  (0.95x, i.e. <= ~5% overhead) of the same workload submitted to a
  raw ``concurrent.futures.ProcessPoolExecutor``, with bit-identical
  sweep tables.
* **Resume** — after a run is killed partway (a standing injected
  fault fails the tail of the corpus once five of eight graphs have
  journaled), rerunning with the journal must finish within
  ``MAX_RESUME_FRACTION`` (50%) of the cold wall time and reproduce
  the uninterrupted tables exactly.

Run directly (the CI smoke job does)::

    PYTHONPATH=src python benchmarks/bench_resilience.py [--smoke]

Not a pytest-benchmark harness on purpose: both gates need timed
end-to-end runs of one workload under different failure schedules,
not statistics over hot repetitions.
"""

from __future__ import annotations

import argparse
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

try:  # direct script execution: benchmarks/ is sys.path[0]
    from _report import write_report as _write_report
except ImportError:  # imported as benchmarks.bench_* from the repo root
    from benchmarks._report import write_report as _write_report

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    _sweep_graph,
    run_matching_sweeps,
    sweep_algorithm,
)
from repro.graph import SimilarityGraph
from repro.matching.registry import PAPER_ALGORITHM_CODES
from repro.pipeline.resilience import ResilienceError, RunJournal
from repro.pipeline.workbench import GraphRecord
from repro.testing import faults

#: The resilient pool versus a raw executor on the same sweep tasks:
#: the wrapper adds one env probe and one journal miss per task, so
#: anything past ~5% overhead is a regression.
MIN_OVERHEAD_SPEEDUP = 0.95

#: Resumed wall time over cold wall time after 5 of 8 graphs
#: journaled (3 of 6 under ``--smoke``): the resumed run recomputes
#: the un-journaled tail only, so well under half a cold run.
MAX_RESUME_FRACTION = 0.50

CONFIG = ExperimentConfig(bah_max_moves=150, bah_time_limit=60.0)


def synthetic_records(n_graphs: int, m: int, seed: int = 23):
    """Uniform-cost synthetic corpus (equal edge counts per graph)."""
    rng = np.random.default_rng(seed)
    n_left = max(40, m // 50)
    n_right = max(36, (9 * n_left) // 10)
    records = []
    for index in range(n_graphs):
        graph = SimilarityGraph(
            n_left,
            n_right,
            rng.integers(0, n_left, m),
            rng.integers(0, n_right, m),
            np.maximum(np.round(rng.random(m), 2), 0.01),
            name=f"g{index}",
        )
        truth = {(int(i), int(i % n_right)) for i in range(n_left // 2)}
        records.append(
            GraphRecord(
                graph=graph,
                dataset=f"d{index}",
                family="synthetic",
                function=f"fn{index}",
                category="BLC",
                ground_truth=truth,
            )
        )
    return records


def _flatten(results):
    """The timing-free content of a sweep table (exact floats)."""
    return [
        (
            result.dataset,
            code,
            [(point.threshold, point.scores) for point in sweep.points],
        )
        for result in results
        for code, sweep in result.sweeps.items()
    ]


def _raw_pool_sweep(records, workers: int):
    """The pre-resilience driver: bare executor, no retry, no journal."""
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(
                _sweep_graph,
                record.graph,
                record.ground_truth,
                PAPER_ALGORITHM_CODES,
                sweep_algorithm,
                CONFIG,
            )
            for record in records
        ]
        return [future.result() for future in futures]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="smaller CI profile (6 graphs instead of 8)",
    )
    parser.add_argument(
        "--workers", "-j", type=int, default=2,
        help="worker processes for the overhead gate",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="overhead timing repeats; the per-driver minimum is used",
    )
    parser.add_argument(
        "--no-assert", action="store_true",
        help="report without failing on the thresholds",
    )
    parser.add_argument(
        "--json", type=str, default=None,
        help="write the machine-readable report to this path",
    )
    args = parser.parse_args(argv)
    n_graphs, m = (6, 20_000) if args.smoke else (8, 40_000)
    records = synthetic_records(n_graphs, m)

    # Warm-up: one untimed serial pass absorbs import and allocator
    # costs, and its result is the bit-identity reference.
    reference = run_matching_sweeps(records, CONFIG)

    # ------------------------------------------------------------------
    # Gate 1: resilient-pool overhead vs a raw executor
    # ------------------------------------------------------------------
    raw_seconds = resilient_seconds = float("inf")
    for _ in range(max(args.repeats, 1)):
        start = time.perf_counter()
        raw = _raw_pool_sweep(records, args.workers)
        raw_seconds = min(raw_seconds, time.perf_counter() - start)

        start = time.perf_counter()
        resilient = run_matching_sweeps(
            records, CONFIG, workers=args.workers
        )
        resilient_seconds = min(
            resilient_seconds, time.perf_counter() - start
        )

    assert _flatten(resilient) == _flatten(reference), (
        "resilient pooled sweep diverged from the serial reference"
    )
    raw_flat = [
        (record.dataset, code,
         [(point.threshold, point.scores) for point in sweeps[code].points])
        for record, sweeps in zip(records, raw)
        for code in PAPER_ALGORITHM_CODES
    ]
    assert raw_flat == _flatten(reference), (
        "raw-pool and resilient results diverged"
    )
    overhead_speedup = (
        raw_seconds / resilient_seconds if resilient_seconds else 1.0
    )
    print(
        f"[bench_resilience] overhead: raw pool {raw_seconds:.2f}s | "
        f"resilient {resilient_seconds:.2f}s | ratio "
        f"{overhead_speedup:.3f}x (floor {MIN_OVERHEAD_SPEEDUP}, "
        f"{n_graphs} graphs x {len(PAPER_ALGORITHM_CODES)} algorithms, "
        f"workers={args.workers}, min of {max(args.repeats, 1)})"
    )

    # ------------------------------------------------------------------
    # Gate 2: resume-after-kill vs cold wall time (serial, so the
    # ratio reflects work skipped, not scheduling noise)
    # ------------------------------------------------------------------
    journaled = n_graphs - (n_graphs // 8 + 2)  # 5 of 8, 3 of 6
    with tempfile.TemporaryDirectory(prefix="repro-journal-") as root:
        start = time.perf_counter()
        cold = run_matching_sweeps(records, CONFIG)
        cold_seconds = time.perf_counter() - start

        # Kill the run once `journaled` graphs have committed: a
        # standing fault permanently fails every later graph.
        rules = [
            {"match": f":fn{index}:", "action": "error", "attempts": None}
            for index in range(journaled, n_graphs)
        ]
        os.environ[faults.ENV_VAR] = faults.fault_spec(rules)
        try:
            journal = RunJournal(root, "bench-resume")
            try:
                run_matching_sweeps(records, CONFIG, journal=journal)
            except ResilienceError:
                pass
            else:
                raise AssertionError("the injected mid-run kill never fired")
        finally:
            del os.environ[faults.ENV_VAR]
        assert len(journal.completed_keys()) == journaled, (
            f"expected {journaled} journaled graphs, found "
            f"{len(journal.completed_keys())}"
        )

        start = time.perf_counter()
        resumed = run_matching_sweeps(records, CONFIG, journal=journal)
        resume_seconds = time.perf_counter() - start

    assert _flatten(resumed) == _flatten(cold), (
        "resumed sweep diverged from the uninterrupted run"
    )
    resume_fraction = resume_seconds / cold_seconds if cold_seconds else 0.0
    print(
        f"[bench_resilience] resume: cold {cold_seconds:.2f}s | resumed "
        f"after kill at {journaled}/{n_graphs} graphs "
        f"{resume_seconds:.2f}s | fraction {resume_fraction:.2f} "
        f"(ceiling {MAX_RESUME_FRACTION}, bit-identical)"
    )

    overhead_ok = overhead_speedup >= MIN_OVERHEAD_SPEEDUP
    resume_ok = resume_fraction <= MAX_RESUME_FRACTION
    passed = overhead_ok and resume_ok
    if args.json:
        _write_report(
            args.json,
            "bench_resilience",
            args.smoke,
            legacy_seconds=raw_seconds,
            engine_seconds=resilient_seconds,
            speedup=overhead_speedup,
            floor=MIN_OVERHEAD_SPEEDUP,
            asserted=not args.no_assert,
            cold_seconds=cold_seconds,
            resume_seconds=resume_seconds,
            resume_fraction=resume_fraction,
            resume_ceiling=MAX_RESUME_FRACTION,
            resume_passed=resume_ok,
        )
    if not args.no_assert:
        assert overhead_ok, (
            f"resilient-pool overhead ratio {overhead_speedup:.3f}x is "
            f"below the {MIN_OVERHEAD_SPEEDUP}x floor"
        )
        assert resume_ok, (
            f"resume fraction {resume_fraction:.2f} exceeds the "
            f"{MAX_RESUME_FRACTION} ceiling"
        )
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
