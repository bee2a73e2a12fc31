"""Blocking benchmark: dense all-pairs scoring vs candidate generation.

Runs the schema-based measure suite over a slice of the dataset
catalog twice through :meth:`~repro.pipeline.engine.SimilarityEngine.score`
— once on a dense engine (all pairs) and once on an engine with a
per-dataset ``blocking=`` spec (candidate pairs only) — then

* asserts the candidate sets reach at least ``MIN_REDUCTION``x pair
  reduction at ``MIN_RECALL`` ground-truth pair recall, aggregated
  over the workload (total dense cells / total candidate pairs, and
  total recovered truth pairs / total truth pairs),
* asserts every blocked score is **bit-identical** to the dense
  matrix on every retained cell (the sparse kernels run the same
  integer DPs, restricted to candidate cells), including one dense
  -then-gather fallback family,
* asserts the blocked suite is at least ``MIN_SPEEDUP``x faster
  wall-clock than the dense suite,
* re-runs the blocked path under ``--threads N`` and asserts the
  candidate sets and scores are invariant under the thread count, and
* completes a synthetic ~10^6-record run under the blocked path where
  the dense grid (~2.5 * 10^11 cells, ~2 TB of float64) is infeasible.

Run directly (the CI smoke job does)::

    PYTHONPATH=src python benchmarks/bench_blocking.py [--smoke] [-j N]

``--artifact-store PATH`` (plus optional ``--store-read-tier PATH``)
backs the blocked engines with a persistent
:class:`~repro.pipeline.store.ArtifactStore`, exercising the
content-addressed ``candidate_set`` artifacts across runs.

Not a pytest-benchmark harness on purpose: the comparison needs cold
end-to-end runs of the same workload, not statistics over many hot
repetitions.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

try:  # direct script execution: benchmarks/ is sys.path[0]
    from _report import write_report as _write_report
except ImportError:  # imported as benchmarks.bench_* from the repo root
    from benchmarks._report import write_report as _write_report

from repro.datasets.catalog import dataset_spec
from repro.datasets.generator import CleanCleanDataset, DatasetSpec, generate_dataset
from repro.datasets.profile import EntityCollection, EntityProfile
from repro.pipeline.blocking import build_candidate_set
from repro.pipeline.engine import SimilarityEngine
from repro.pipeline.kernels import kernel_threads
from repro.pipeline.similarity_functions import SimilarityFunctionSpec
from repro.pipeline.store import ArtifactStore, dataset_store_key
from repro.textsim.registry import SCHEMA_BASED_MEASURES

#: Aggregate candidate-quality floors over the benchmark workload:
#: total dense cells / total candidate pairs, and total recovered
#: ground-truth pairs / total ground-truth pairs.
MIN_REDUCTION = 10.0
MIN_RECALL = 0.98

#: Required blocked-vs-dense speedup on the schema-based suite.  The
#: sparse plan scores only candidate cells, so the speedup tracks the
#: pair reduction (minus shared artifact costs).
MIN_SPEEDUP = 3.0

#: Floor for the tiny ``--smoke`` profile, where per-run timing noise
#: on loaded CI runners is large relative to the workload.
MIN_SPEEDUP_SMOKE = 2.0

#: Candidate-quality corpora: (dataset code, scale, max_pairs,
#: blocking spec), measured at multi-million-cell scale (candidate
#: generation is cheap; only the dense *scoring* grid is not).  The
#: spec is tuned per noise profile — d1's light noise keeps word
#: tokens intact (plain token blocking), d4/d7 corrupt whole tokens so
#: only q-gram keys survive the typos.  d6's heavy missing-value rate
#: leaves some duplicates with no shared keys at all; it cannot reach
#: the recall floor at 10x reduction and is deliberately excluded.
QUALITY_WORKLOAD = (
    ("d1", 4.0, 4_000_000, "tokens:max_df=0.05"),
    ("d4", 2.0, 4_000_000, "tokens:q=4,max_df=0.02"),
    ("d7", 2.0, 4_000_000, "tokens:q=4,max_df=0.02"),
)

QUALITY_WORKLOAD_SMOKE = (
    ("d1", 1.0, 500_000, "tokens:max_df=0.05"),
    ("d4", 0.5, 500_000, "tokens:q=4,max_df=0.02"),
)

#: Timed-suite corpora: quality tuple + the scored attribute.  Scales
#: are capped so the *dense* reference pass stays in benchmark range —
#: d4's authors attribute has 233-char outliers that pad every
#: alignment DP, making its dense grid the most expensive per cell
#: (exactly the case blocking exists for).
SUITE_WORKLOAD = (
    ("d1", 4.0, 4_000_000, "tokens:max_df=0.05", "name"),
    ("d4", 0.5, 500_000, "tokens:q=4,max_df=0.02", "authors"),
    ("d7", 2.0, 4_000_000, "tokens:q=4,max_df=0.02", "name"),
)

SUITE_WORKLOAD_SMOKE = (
    ("d1", 1.0, 500_000, "tokens:max_df=0.05", "name"),
    ("d4", 0.25, 125_000, "tokens:q=4,max_df=0.02", "authors"),
)

_WARMUP = ("d1", 0.03, 1_000, "tokens", "name")

#: Records per side of the synthetic mega run (~10^6 / ~10^5 total).
MEGA_RECORDS = 500_000
MEGA_RECORDS_SMOKE = 50_000


def _load_workload(workload, store_path, read_tier):
    """``(label, specs, dense engine, blocked engine)`` per corpus."""
    loaded = []
    for code, scale, max_pairs, blocking, attribute in workload:
        dataset = generate_dataset(
            dataset_spec(code, scale=scale, max_pairs=max_pairs), seed=42
        )
        store = None
        dataset_key = None
        if store_path is not None:
            store = ArtifactStore(store_path, read_tier=read_tier)
            dataset_key = dataset_store_key(code, scale, max_pairs, 42)
        specs = [
            SimilarityFunctionSpec(
                family="schema_based_syntactic",
                details={"attribute": attribute, "measure": measure},
                name=measure,
            )
            for measure in SCHEMA_BASED_MEASURES
        ]
        dense = SimilarityEngine(dataset)
        blocked = SimilarityEngine(
            dataset,
            store=store,
            dataset_key=dataset_key,
            blocking=blocking,
        )
        loaded.append((f"{code}.{attribute}:{blocking}", specs, dense, blocked))
    return loaded


def run_dense(loaded) -> tuple[dict, float]:
    """The dense suite; returns per-spec scores + wall-clock seconds."""
    return _run_suite(loaded, blocked=False)


def run_blocked(loaded) -> tuple[dict, float]:
    """The blocked suite; returns per-spec scores + wall-clock seconds."""
    return _run_suite(loaded, blocked=True)


def _run_suite(loaded, blocked: bool) -> tuple[dict, float]:
    results = {}
    start = time.perf_counter()
    for label, specs, dense, blocked_engine in loaded:
        engine = blocked_engine if blocked else dense
        for spec, scores in zip(specs, engine.score(specs)):
            results[(label, spec.name)] = scores
    return results, time.perf_counter() - start


def _assert_blocked_cells(dense, blocked, dense_scores, blocked_scores, key):
    """Blocked edges are exactly the positive dense cells among the
    candidates, in candidate order, with bitwise-equal scores."""
    matrix = np.zeros(dense.shape())
    matrix[dense_scores.left, dense_scores.right] = dense_scores.values
    candidates = blocked.cache.candidate_set(blocked.blocking)
    cells = matrix[candidates.left, candidates.right]
    positive = cells > 0.0
    assert (
        np.array_equal(blocked_scores.left, candidates.left[positive])
        and np.array_equal(blocked_scores.right, candidates.right[positive])
        and np.array_equal(blocked_scores.values, cells[positive])
    ), f"blocked scores differ from dense cells for {key}"


def assert_identical(
    loaded, dense_results: dict, blocked_results: dict
) -> None:
    """Every blocked score equals the dense matrix on its cell."""
    assert dense_results.keys() == blocked_results.keys()
    engines = {label: (dense, blocked) for label, _, dense, blocked in loaded}
    for key, scores in blocked_results.items():
        dense, blocked = engines[key[0]]
        _assert_blocked_cells(dense, blocked, dense_results[key], scores, key)


def candidate_quality(workload) -> tuple[float, float, float, list[str]]:
    """Aggregate reduction + recall (+ build seconds) over the workload."""
    pairs = cells = hits = truth = 0
    build_seconds = 0.0
    lines = []
    for code, scale, max_pairs, blocking in workload:
        dataset = generate_dataset(
            dataset_spec(code, scale=scale, max_pairs=max_pairs), seed=42
        )
        start = time.perf_counter()
        candidates = build_candidate_set(
            dataset.left.texts(), dataset.right.texts(), blocking
        )
        seconds = time.perf_counter() - start
        recall = candidates.recall(dataset.ground_truth)
        lines.append(
            f"[bench_blocking] {code} {candidates.n_left}x"
            f"{candidates.n_right} {blocking}: {candidates.n_pairs} "
            f"candidates, reduction {candidates.reduction:.1f}x, recall "
            f"{recall:.4f} ({seconds:.2f}s)"
        )
        pairs += candidates.n_pairs
        cells += candidates.n_left * candidates.n_right
        hits += round(recall * len(dataset.ground_truth))
        truth += len(dataset.ground_truth)
        build_seconds += seconds
    return cells / pairs, hits / truth, build_seconds, lines


def assert_fallback_gather(loaded) -> None:
    """Dense-then-gather families return the dense cells verbatim."""
    label, _, dense, blocked = loaded[0]
    spec = SimilarityFunctionSpec(
        family="schema_agnostic_syntactic",
        details={"model": "vector", "unit": "char", "n": 2, "measure": "cosine_tf"},
        name="vector_fallback",
    )
    [dense_scores] = dense.score([spec])
    [blocked_scores] = blocked.score([spec])
    _assert_blocked_cells(dense, blocked, dense_scores, blocked_scores, label)


def _mega_dataset(n_records: int) -> CleanCleanDataset:
    """Synthetic clean-clean dataset with ``n_records`` per side.

    Every record carries one globally-rare key token (shared exactly
    by its true match on the other side) plus side-local filler, so
    token blocking recovers every truth pair from ~n^2 cells.  The
    right side is shuffled so matches are not index-aligned.
    """
    rng = np.random.default_rng(42)
    left = EntityCollection(
        name="mega-left",
        profiles=[
            EntityProfile(
                identifier=f"L{i}",
                attributes={"name": f"rec{i:07d} alpha{i % 997:03d}"},
            )
            for i in range(n_records)
        ],
    )
    order = rng.permutation(n_records)
    right = EntityCollection(
        name="mega-right",
        profiles=[
            EntityProfile(
                identifier=f"R{j}",
                attributes={"name": f"rec{int(order[j]):07d} beta{j % 983:03d}"},
            )
            for j in range(n_records)
        ],
    )
    spec = DatasetSpec(
        code="mega",
        domain="synthetic",
        n_left=n_records,
        n_right=n_records,
        n_duplicates=n_records,
        schema_attributes=("name",),
    )
    truth = {(int(order[j]), j) for j in range(n_records)}
    return CleanCleanDataset(spec=spec, left=left, right=right, ground_truth=truth)


def bench_mega(n_records: int) -> str:
    """End-to-end blocked scoring of a ~2 * n_records corpus."""
    dataset = _mega_dataset(n_records)
    engine = SimilarityEngine(dataset, blocking="tokens")
    spec = SimilarityFunctionSpec(
        family="schema_based_syntactic",
        details={"attribute": "name", "measure": "levenshtein"},
        name="levenshtein",
    )
    start = time.perf_counter()
    engine.score([spec])
    seconds = time.perf_counter() - start
    candidates = engine.cache.candidate_set(engine.blocking)
    recall = candidates.recall(dataset.ground_truth)
    assert recall == 1.0, f"mega run lost truth pairs (recall {recall})"
    assert candidates.reduction >= n_records * 0.5, (
        f"mega reduction {candidates.reduction:.0f}x below the "
        f"{n_records // 2}x floor"
    )
    dense_cells = n_records * n_records
    return (
        f"[bench_blocking] mega {n_records}x{n_records} tokens: "
        f"{candidates.n_pairs} scored pairs from {dense_cells:.1e} dense "
        f"cells (reduction {candidates.reduction:.0f}x, recall "
        f"{recall:.1f}) in {seconds:.2f}s end-to-end"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny CI profile instead of the full benchmark workload",
    )
    parser.add_argument(
        "--threads", "-j", type=int, default=1,
        help="also run the blocked path with N kernel threads and "
        "assert the candidate sets and scores are invariant",
    )
    parser.add_argument(
        "--no-assert", action="store_true",
        help="report without failing on the quality/speedup floors",
    )
    parser.add_argument(
        "--repeats", type=int, default=1,
        help="interleaved timing repeats; the per-path minimum is used",
    )
    parser.add_argument(
        "--json", type=str, default=None,
        help="write the machine-readable report to this path",
    )
    parser.add_argument(
        "--artifact-store", type=str, default=None,
        help="back the blocked engines with a persistent artifact "
        "store at this path (candidate sets become store artifacts)",
    )
    parser.add_argument(
        "--store-read-tier", type=str, default=None,
        help="layer a shared read-only store under --artifact-store",
    )
    args = parser.parse_args(argv)
    quality_workload = (
        QUALITY_WORKLOAD_SMOKE if args.smoke else QUALITY_WORKLOAD
    )
    suite_workload = SUITE_WORKLOAD_SMOKE if args.smoke else SUITE_WORKLOAD

    reduction, recall, build_seconds, lines = candidate_quality(
        quality_workload
    )
    for line in lines:
        print(line)
    print(
        f"[bench_blocking] aggregate: reduction {reduction:.1f}x "
        f"(floor {MIN_REDUCTION:.0f}x), recall {recall:.4f} (floor "
        f"{MIN_RECALL}), candidate builds {build_seconds:.2f}s"
    )

    loaded = _load_workload(
        suite_workload, args.artifact_store, args.store_read_tier
    )
    warm = _load_workload((_WARMUP,), None, None)
    run_dense(warm)
    run_blocked(warm)

    # Interleave the passes and keep each path's minimum: the minimum
    # of repeated runs is the noise-robust wall-clock estimator.
    dense_seconds = blocked_seconds = float("inf")
    dense_results: dict = {}
    pairs: dict = {}
    for _ in range(max(args.repeats, 1)):
        dense_results, seconds = run_dense(loaded)
        dense_seconds = min(dense_seconds, seconds)
        pairs, seconds = run_blocked(loaded)
        blocked_seconds = min(blocked_seconds, seconds)

    assert_identical(loaded, dense_results, pairs)
    assert_fallback_gather(loaded)
    speedup = (
        dense_seconds / blocked_seconds if blocked_seconds else float("inf")
    )
    print(
        f"[bench_blocking] {len(loaded)} corpora x "
        f"{len(SCHEMA_BASED_MEASURES)} measures | dense "
        f"{dense_seconds:.2f}s | blocked {blocked_seconds:.2f}s | "
        f"speedup {speedup:.2f}x (bit-identical on retained cells, "
        f"min of {max(args.repeats, 1)})"
    )

    if args.threads > 1:
        threaded_loaded = _load_workload(suite_workload, None, None)
        with kernel_threads(args.threads):
            threaded, threaded_seconds = run_blocked(threaded_loaded)
        assert threaded.keys() == pairs.keys()
        for key, scores in threaded.items():
            baseline = pairs[key]
            assert np.array_equal(baseline.left, scores.left) and (
                np.array_equal(baseline.right, scores.right)
            ), f"candidate set changed under threads={args.threads}: {key}"
            assert np.array_equal(baseline.values, scores.values), (
                f"scores changed under threads={args.threads}: {key}"
            )
        print(
            f"[bench_blocking] blocked x{args.threads} threads "
            f"{threaded_seconds:.2f}s (bit-identical to serial)"
        )

    print(bench_mega(MEGA_RECORDS_SMOKE if args.smoke else MEGA_RECORDS))

    floor = MIN_SPEEDUP_SMOKE if args.smoke else MIN_SPEEDUP
    quality_ok = reduction >= MIN_REDUCTION and recall >= MIN_RECALL
    passed = speedup >= floor and quality_ok
    if args.json:
        _write_report(
            args.json,
            "bench_blocking",
            smoke=args.smoke,
            legacy_seconds=dense_seconds,
            engine_seconds=blocked_seconds,
            speedup=speedup,
            floor=floor,
            asserted=not args.no_assert,
            reduction=reduction,
            reduction_floor=MIN_REDUCTION,
            recall=recall,
            recall_floor=MIN_RECALL,
            corpora=len(loaded),
        )
    if not args.no_assert and not passed:
        print(
            f"[bench_blocking] FAIL: speedup {speedup:.2f}x (floor "
            f"{floor:.1f}x), reduction {reduction:.1f}x (floor "
            f"{MIN_REDUCTION:.0f}x), recall {recall:.4f} (floor "
            f"{MIN_RECALL})",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
