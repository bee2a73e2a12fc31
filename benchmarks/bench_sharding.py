"""Benchmark: out-of-core sharded scoring vs the in-memory dense path.

The sharded execution tier exists to bound peak memory: a dense
similarity pass materialises the full ``n_left x n_right`` float64
matrix, while the sharded tier scores one
:class:`~repro.pipeline.sharding.ShardPlanner` row range per
:meth:`~repro.pipeline.engine.SimilarityEngine.score` call and merges
the shards' edges in range order with
:func:`~repro.pipeline.workbench.concat_scores` — what a
``max_memory`` corpus run does per shard task — so its peak residency
is one grid block plus the edge arrays regardless of the dataset
size.  This benchmark proves all three contract clauses on a workload
whose dense matrix alone dwarfs the budget:

* **bounded memory** — the sharded run's peak RSS stays under a
  budget that the dense run provably exceeds.  Peak RSS is the
  process-lifetime high-water mark (``resource.getrusage``), so each
  path runs in a fresh spawned subprocess; the budget is calibrated
  as baseline RSS (interpreter + dataset + artifacts + one warm grid
  block) plus a fixed compute allowance handed to the planner.
* **no wall-time cliff** — the sharded run finishes within
  ``WALL_CEILING`` (1.15x) of the dense run.
* **bit-identity** — the merged sharded graph equals the dense graph
  bit for bit, and is invariant to the shard count.

Two string-measure legs guard the fixed costs a shard must not pay
(string shards score only their own rows or candidate cells; only the
BLAS families are aligned to the row-chunk grid):

* **small shards** — four shards inside one row-chunk grid cell finish
  within ``WALL_CEILING`` of one shard, bit-identically;
* **blocked shards** — a sharded blocked run finishes within
  ``WALL_CEILING`` of the unsharded blocked run, bit-identically.

Usage::

    python benchmarks/bench_sharding.py            # full profile
    python benchmarks/bench_sharding.py --smoke    # reduced, for CI
    python benchmarks/bench_sharding.py --json reports/bench_sharding.json
"""

from __future__ import annotations

import argparse
import hashlib
import multiprocessing
import resource
import sys
import time

import numpy as np

try:
    from _report import write_report as _write_report
except ImportError:  # pragma: no cover - invoked as a module
    from benchmarks._report import write_report as _write_report

from repro.datasets.generator import CleanCleanDataset, DatasetSpec
from repro.datasets.profile import EntityCollection, EntityProfile
from repro.pipeline.engine import SimilarityEngine
from repro.pipeline.graph_builder import pairs_to_graph
from repro.pipeline.sharding import ShardPlanner
from repro.pipeline.similarity_functions import SimilarityFunctionSpec
from repro.pipeline.workbench import concat_scores

# Sharded wall time must stay within this factor of the dense run.
WALL_CEILING = 1.15

# Records per side / compute allowance handed to the planner.  The
# dense matrix is n^2 * 8 bytes (288 MB full, 128 MB smoke) — always
# a large multiple of the allowance, so the dense run cannot fit the
# budget and the sharded run (one ~8 MB grid block + the edge arrays)
# comfortably can.  Below ~4000 records the dense matrix is cheap
# enough that per-shard overhead breaches the wall ceiling, so the
# smoke profile stays at the scale the tier is built for.
N_RECORDS = 6000
N_RECORDS_SMOKE = 4000
MARGIN_BYTES = 96 << 20
MARGIN_BYTES_SMOKE = 40 << 20

# Shard counts exercised by the in-process invariance check.
INVARIANCE_RECORDS = 1000
INVARIANCE_SHARDS = (1, 3, 7)

# Every record shares its group token with ~50 counterparts, so the
# score matrix is dense to compute but sparse in positive cells —
# the shape the sharded tier's edge arrays are built for.
GROUP_FANOUT = 50

SPEC = SimilarityFunctionSpec(
    family="schema_agnostic_syntactic",
    details={"model": "vector", "unit": "token", "n": 1, "measure": "cosine_tf"},
    name="cosine_tf",
)

# String legs: records per side and shard counts.  The small-shard
# workload fits one row-chunk grid cell; the blocked one keeps ~50
# candidates per row (one shared group token).
STRING_SPEC = SimilarityFunctionSpec(
    family="schema_based_syntactic",
    details={"attribute": "name", "measure": "levenshtein"},
    name="levenshtein",
)
SMALL_SHARD_RECORDS = 600
SMALL_SHARD_RECORDS_SMOKE = 400
BLOCKED_RECORDS = 3000
BLOCKED_RECORDS_SMOKE = 1600
STRING_SHARDS = 4
BLOCKING = "tokens"


def _workload_dataset(n_records: int) -> CleanCleanDataset:
    """Synthetic clean-clean dataset with group-structured overlap."""
    groups = max(1, n_records // GROUP_FANOUT)

    def side(tag: str) -> EntityCollection:
        return EntityCollection(
            name=tag,
            profiles=[
                EntityProfile(
                    f"{tag}{i}",
                    {"name": f"key{tag}{i:06d} grp{i % groups:04d}"},
                )
                for i in range(n_records)
            ],
        )

    spec = DatasetSpec(
        code="shardbench",
        domain="synthetic",
        n_left=n_records,
        n_right=n_records,
        n_duplicates=0,
        schema_attributes=("name",),
    )
    return CleanCleanDataset(
        spec=spec, left=side("L"), right=side("R"), ground_truth=set()
    )


def _digest(graph) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for array in (graph.left, graph.right, graph.weight):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _peak_rss_bytes() -> int:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024


def _subprocess_main(mode: str, n_records: int, margin: int, queue) -> None:
    """Run one measured path in a fresh process and report its peak RSS.

    ``ru_maxrss`` is a process-lifetime high-water mark, so the dense
    and sharded paths cannot share a process: whichever ran first
    would contaminate the other's reading.
    """
    dataset = _workload_dataset(n_records)
    engine = SimilarityEngine(dataset)
    result = {"mode": mode}
    if mode == "baseline":
        # Interpreter + dataset + scoring artifacts + one warm grid
        # block: everything both paths pay before the budget applies.
        engine.score([SPEC], 0, 1)
    elif mode == "dense":
        start = time.perf_counter()
        graph = _unsharded_graph(engine, SPEC)
        result["seconds"] = time.perf_counter() - start
        result["digest"] = _digest(graph)
        result["n_edges"] = int(graph.n_edges)
    elif mode == "sharded":
        plan = ShardPlanner.plan(n_records, n_records, memory_budget=margin)
        start = time.perf_counter()
        graph = _sharded_graph(engine, SPEC, plan)
        result["seconds"] = time.perf_counter() - start
        result["digest"] = _digest(graph)
        result["n_edges"] = int(graph.n_edges)
        result["n_shards"] = plan.n_shards
    else:  # pragma: no cover - driver bug
        raise ValueError(f"unknown mode {mode!r}")
    result["rss"] = _peak_rss_bytes()
    queue.put(result)


def _measure(mode: str, n_records: int, margin: int) -> dict:
    context = multiprocessing.get_context("spawn")
    queue = context.SimpleQueue()
    process = context.Process(
        target=_subprocess_main, args=(mode, n_records, margin, queue)
    )
    process.start()
    result = queue.get()
    process.join()
    if process.exitcode != 0:  # pragma: no cover - subprocess crash
        raise RuntimeError(f"{mode} subprocess exited {process.exitcode}")
    return result


def _unsharded_graph(engine, spec):
    """The graph of one whole-range executor call."""
    n_left, n_right = engine.shape()
    [scores] = engine.score([spec])
    return pairs_to_graph(n_left, n_right, *scores.edges, name="shardbench")


def _sharded_graph(engine, spec, plan):
    """The graph of one executor call per plan range, merged in range
    order."""
    n_left, n_right = engine.shape()
    merged = concat_scores(
        [
            engine.score([spec], start, stop)[0]
            for start, stop in plan.ranges()
        ]
    )
    return pairs_to_graph(n_left, n_right, *merged.edges, name="shardbench")


def _interleaved(repeats: int, *runs) -> tuple[list[float], list]:
    """Best-of-``repeats`` seconds and last result of each run, with
    the runs interleaved so host-speed drift hits them alike."""
    best = [float("inf")] * len(runs)
    results: list = [None] * len(runs)
    for _ in range(max(repeats, 1)):
        for index, run in enumerate(runs):
            start = time.perf_counter()
            results[index] = run()
            best[index] = min(best[index], time.perf_counter() - start)
    return best, results


def _string_leg(n_records: int, blocking: str | None, repeats: int) -> dict:
    """Sharded vs unsharded wall time of a string measure.

    Without blocking, one shard is compared with ``STRING_SHARDS``
    shards inside one row-chunk grid cell; with blocking, the
    unsharded blocked run with its ``STRING_SHARDS``-shard split.
    Artifacts (encodings, candidate set) are warmed first, so the
    ratio is scoring plus merge cost alone.
    """
    engine = SimilarityEngine(_workload_dataset(n_records), blocking=blocking)
    sharded = ShardPlanner.plan(n_records, n_records, n_shards=STRING_SHARDS)
    if blocking is None:
        assert sharded.chunk >= n_records, "shards must share a grid cell"

    def reference():
        return _unsharded_graph(engine, STRING_SPEC)

    def split():
        return _sharded_graph(engine, STRING_SPEC, sharded)

    _interleaved(1, reference, split)  # warm the artifacts
    (base_s, split_s), (base, merged) = _interleaved(
        repeats, reference, split
    )
    return {
        "reference_seconds": base_s,
        "sharded_seconds": split_s,
        "ratio": split_s / max(base_s, 1e-9),
        "identical": _digest(base) == _digest(merged),
        "n_edges": int(base.n_edges),
    }


def _check_shard_count_invariance(n_records: int) -> bool:
    """Merged output must not depend on how the rows were sharded."""
    dataset = _workload_dataset(n_records)
    reference = _digest(_unsharded_graph(SimilarityEngine(dataset), SPEC))
    identical = True
    for n_shards in INVARIANCE_SHARDS:
        plan = ShardPlanner.plan(n_records, n_records, n_shards=n_shards)
        engine = SimilarityEngine(dataset)
        digest = _digest(_sharded_graph(engine, SPEC, plan))
        matches = digest == reference
        identical = identical and matches
        print(
            f"[bench_sharding]   {n_shards} shard(s): "
            f"{'bit-identical' if matches else 'DIVERGED'}"
        )
    return identical


def _format_mb(n_bytes: int) -> str:
    return f"{n_bytes / (1 << 20):.1f}MB"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced workload for CI smoke runs",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timed repetitions per path (best-of wall time, max RSS)",
    )
    parser.add_argument(
        "--no-assert",
        action="store_true",
        help="report results without enforcing the floors",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write a machine-readable report to PATH",
    )
    args = parser.parse_args(argv)

    n_records = N_RECORDS_SMOKE if args.smoke else N_RECORDS
    margin = MARGIN_BYTES_SMOKE if args.smoke else MARGIN_BYTES
    matrix_bytes = n_records * n_records * 8
    print(
        f"[bench_sharding] workload: {n_records}x{n_records} records, "
        f"dense matrix {_format_mb(matrix_bytes)}, "
        f"compute allowance {_format_mb(margin)}"
    )

    baseline = _measure("baseline", n_records, margin)
    budget = baseline["rss"] + margin
    print(
        f"[bench_sharding] baseline RSS {_format_mb(baseline['rss'])} "
        f"-> memory budget {_format_mb(budget)}"
    )

    dense_seconds = float("inf")
    sharded_seconds = float("inf")
    dense_rss = 0
    sharded_rss = 0
    dense_digest = sharded_digest = None
    n_edges = n_shards = 0
    for _ in range(max(args.repeats, 1)):
        dense = _measure("dense", n_records, margin)
        sharded = _measure("sharded", n_records, margin)
        dense_seconds = min(dense_seconds, dense["seconds"])
        sharded_seconds = min(sharded_seconds, sharded["seconds"])
        dense_rss = max(dense_rss, dense["rss"])
        sharded_rss = max(sharded_rss, sharded["rss"])
        dense_digest, sharded_digest = dense["digest"], sharded["digest"]
        n_edges, n_shards = sharded["n_edges"], sharded["n_shards"]

    identical = dense_digest == sharded_digest
    rss_ok = sharded_rss <= budget < dense_rss
    speedup = dense_seconds / max(sharded_seconds, 1e-9)
    floor = 1.0 / WALL_CEILING

    print(
        f"[bench_sharding] dense:   {dense_seconds:.2f}s, "
        f"peak RSS {_format_mb(dense_rss)} "
        f"({'exceeds' if dense_rss > budget else 'WITHIN'} budget)"
    )
    print(
        f"[bench_sharding] sharded: {sharded_seconds:.2f}s, "
        f"peak RSS {_format_mb(sharded_rss)} "
        f"({'under' if sharded_rss <= budget else 'OVER'} budget), "
        f"{n_shards} shards, {n_edges} edges, "
        f"{'bit-identical' if identical else 'DIVERGED'}"
    )
    print(
        f"[bench_sharding] wall ratio {sharded_seconds / max(dense_seconds, 1e-9):.2f}x "
        f"(ceiling {WALL_CEILING:.2f}x)"
    )
    print("[bench_sharding] shard-count invariance:")
    invariant = _check_shard_count_invariance(INVARIANCE_RECORDS)

    small = _string_leg(
        SMALL_SHARD_RECORDS_SMOKE if args.smoke else SMALL_SHARD_RECORDS,
        None,
        args.repeats,
    )
    blocked = _string_leg(
        BLOCKED_RECORDS_SMOKE if args.smoke else BLOCKED_RECORDS,
        BLOCKING,
        args.repeats,
    )
    for label, leg, reference in (
        ("small shards", small, "one shard"),
        ("blocked shards", blocked, "unsharded blocked"),
    ):
        print(
            f"[bench_sharding] {label}: {STRING_SHARDS} shards "
            f"{leg['sharded_seconds']:.2f}s vs {reference} "
            f"{leg['reference_seconds']:.2f}s = {leg['ratio']:.2f}x "
            f"(ceiling {WALL_CEILING:.2f}x), {leg['n_edges']} edges, "
            f"{'bit-identical' if leg['identical'] else 'DIVERGED'}"
        )

    if args.json:
        _write_report(
            args.json,
            "bench_sharding",
            smoke=args.smoke,
            legacy_seconds=dense_seconds,
            engine_seconds=sharded_seconds,
            speedup=speedup,
            floor=floor,
            asserted=not args.no_assert,
            budget_bytes=budget,
            dense_rss_bytes=dense_rss,
            sharded_rss_bytes=sharded_rss,
            rss_ok=bool(rss_ok),
            identical=bool(identical and invariant),
            n_shards=n_shards,
            n_records=n_records,
            n_edges=n_edges,
            small_shard_ratio=small["ratio"],
            blocked_shard_ratio=blocked["ratio"],
            wall_ceiling=WALL_CEILING,
            string_legs_identical=bool(
                small["identical"] and blocked["identical"]
            ),
        )
        print(f"[bench_sharding] report written to {args.json}")

    failures = []
    if not identical:
        failures.append("sharded graph diverged from the dense graph")
    if not invariant:
        failures.append("merged graph depends on the shard count")
    if sharded_rss > budget:
        failures.append(
            f"sharded peak RSS {_format_mb(sharded_rss)} exceeds the "
            f"budget {_format_mb(budget)}"
        )
    if dense_rss <= budget:
        failures.append(
            f"dense peak RSS {_format_mb(dense_rss)} fits the budget "
            f"{_format_mb(budget)} — workload too small to prove anything"
        )
    if speedup < floor:
        failures.append(
            f"sharded wall time {sharded_seconds:.2f}s breaches the "
            f"{WALL_CEILING:.2f}x ceiling over dense {dense_seconds:.2f}s"
        )
    for label, leg in (("small-shard", small), ("blocked-shard", blocked)):
        if not leg["identical"]:
            failures.append(f"{label} leg diverged from its reference")
        if leg["ratio"] > WALL_CEILING:
            failures.append(
                f"{label} leg costs {leg['ratio']:.2f}x, above the "
                f"{WALL_CEILING:.2f}x ceiling"
            )
    if failures and not args.no_assert:
        for failure in failures:
            print(f"[bench_sharding] FAIL: {failure}", file=sys.stderr)
        return 1
    if failures:
        for failure in failures:
            print(f"[bench_sharding] tolerated: {failure}")
    else:
        print("[bench_sharding] PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
