"""Streaming-tier benchmark: amortized delta updates vs full rebuilds.

Replays each workload dataset's self-join union collection as a
seeded insertion stream through the incremental tier
(:mod:`repro.pipeline.streaming`: frozen blocking-index probes,
per-batch sparse kernel passes, in-place compiled-graph delta merges,
then the clustering kernels run on the live graph) and asserts the
properties the tier exists for:

* **amortized cost** — at the half-way record the cumulative
  incremental update cost (the graph delta merges) per ingested
  record is at most
  ``MAX_AMORTIZED_FRACTION`` (10%) of one from-scratch
  compile-and-cluster of the same state, i.e. the per-insert speedup
  over rebuild-per-insert is at least 10x,
* **batch equivalence** — the final compiled graph views and all four
  partitions of the live graph (CC, MCC, EMCC, GECG) are bit-identical
  to the batch path over the same records,
* **batch-size invariance** — replaying with a different insertion
  batch size (and a different arrival seed) reproduces the same final
  graph and partitions.

Run directly (the CI smoke job does)::

    PYTHONPATH=src python benchmarks/bench_streaming.py [--smoke]

Not a pytest-benchmark harness on purpose: the amortized-cost ratio
needs one cold end-to-end replay per dataset, not statistics over hot
repetitions.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

try:  # direct script execution: benchmarks/ is sys.path[0]
    from _report import write_report as _write_report
except ImportError:  # imported as benchmarks.bench_* from the repo root
    from benchmarks._report import write_report as _write_report

from repro.datasets.catalog import dataset_spec
from repro.datasets.generator import generate_dataset
from repro.pipeline.streaming import (
    COMPILED_VIEWS,
    replay_stream,
    stream_report,
)

#: The amortized-cost guard: cumulative graph delta-merge seconds per
#: ingested record at the half-way probe, as a fraction of one full
#: rebuild (compile + cluster all four algorithms) of the same state.
MAX_AMORTIZED_FRACTION = 0.10

#: The equivalent speedup floor reported to CI (>= 10x).
MIN_SPEEDUP = 1.0 / MAX_AMORTIZED_FRACTION

MEASURE = "jaccard"
BLOCKING = "tokens"
THRESHOLD = 0.5

#: Workload rows: (dataset code, scale, max_pairs, batch size).  The
#: self-join union collection is streamed, so the record count is
#: ``scale * (n_left + n_right)`` of the catalog profile.
WORKLOAD = (
    ("d1", 4.0, 20_000, 17),
    ("d3", 2.0, 20_000, 32),
)

WORKLOAD_SMOKE = (("d1", 1.0, 2_000, 13),)

#: The invariance replay: different batch size *and* arrival seed must
#: land on the identical final state.
ALT_BATCH_SIZE = 7
ALT_SEED = 99


def union_texts(code: str, scale: float, max_pairs: int) -> list[str]:
    """The dirty-ER union collection of one catalog profile."""
    dataset = generate_dataset(
        dataset_spec(code, scale, max_pairs), seed=42
    )
    return dataset.left.texts() + dataset.right.texts()


def run_dataset(code: str, scale: float, max_pairs: int, batch_size: int):
    """Replay one dataset and return its verdict row."""
    texts = union_texts(code, scale, max_pairs)
    result = replay_stream(
        texts,
        measure=MEASURE,
        blocking=BLOCKING,
        threshold=THRESHOLD,
        seed=42,
        batch_size=batch_size,
        rebuild_probe=True,
    )
    report = stream_report(result, texts)

    alternate = replay_stream(
        texts,
        measure=MEASURE,
        blocking=BLOCKING,
        threshold=THRESHOLD,
        seed=ALT_SEED,
        batch_size=ALT_BATCH_SIZE,
    )
    invariant = all(
        np.array_equal(
            getattr(result.compiled, name),
            getattr(alternate.compiled, name),
        )
        for name in COMPILED_VIEWS
    ) and result.partitions() == alternate.partitions()

    amortized = report["probe_update_seconds"] / max(
        report["probe_records"], 1
    )
    speedup = (
        report["rebuild_seconds"] / amortized
        if amortized
        else float("inf")
    )
    return {
        "dataset": code,
        "n_records": report["n_records"],
        "n_edges": report["n_edges"],
        "n_batches": report["n_batches"],
        "graph_identical": report["graph_identical"],
        "partitions_identical": report["partitions_identical"],
        "batch_size_invariant": bool(invariant),
        "amortized_seconds": amortized,
        "rebuild_seconds": report["rebuild_seconds"],
        "update_seconds": report["update_seconds"],
        "speedup": speedup,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny CI profile instead of the full benchmark workload",
    )
    parser.add_argument(
        "--no-assert", action="store_true",
        help="report without failing on the floors",
    )
    parser.add_argument(
        "--json", type=str, default=None,
        help="write the machine-readable report to this path",
    )
    args = parser.parse_args(argv)
    workload = WORKLOAD_SMOKE if args.smoke else WORKLOAD

    rows = [run_dataset(*entry) for entry in workload]
    for row in rows:
        partitions = " ".join(
            f"{code}={'ok' if same else 'DIVERGED'}"
            for code, same in row["partitions_identical"].items()
        )
        print(
            f"[bench_streaming] {row['dataset']}: {row['n_records']} "
            f"records -> {row['n_edges']} edges in {row['n_batches']} "
            f"batches; amortized {row['amortized_seconds'] * 1e6:.1f}"
            f"us/record vs rebuild {row['rebuild_seconds']:.3f}s "
            f"({row['speedup']:.0f}x); graph "
            f"{'ok' if row['graph_identical'] else 'DIVERGED'}; "
            f"{partitions}; batch-size "
            f"{'invariant' if row['batch_size_invariant'] else 'VARIANT'}"
        )

    identical = all(
        row["graph_identical"]
        and all(row["partitions_identical"].values())
        and row["batch_size_invariant"]
        for row in rows
    )
    speedup = min(row["speedup"] for row in rows)
    rebuild_seconds = sum(row["rebuild_seconds"] for row in rows)
    amortized_seconds = sum(row["amortized_seconds"] for row in rows)
    print(
        f"[bench_streaming] aggregate: worst amortized fraction "
        f"{1.0 / speedup:.4f} (ceiling {MAX_AMORTIZED_FRACTION}), "
        f"equivalence {'ok' if identical else 'FAILED'}"
    )

    if args.json:
        _write_report(
            args.json,
            benchmark="streaming",
            smoke=args.smoke,
            legacy_seconds=rebuild_seconds,
            engine_seconds=amortized_seconds,
            speedup=speedup,
            floor=MIN_SPEEDUP,
            asserted=not args.no_assert,
            identical=identical,
            datasets=rows,
        )

    if not args.no_assert:
        assert identical, "stream diverged from the batch path"
        assert speedup >= MIN_SPEEDUP, (
            f"amortized per-insert cost exceeds "
            f"{MAX_AMORTIZED_FRACTION:.0%} of a full rebuild: "
            f"{1.0 / speedup:.4f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
