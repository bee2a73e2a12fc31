"""Pairwise-kernel engine benchmark: legacy scalar path vs kernels.

Computes the schema-based kernel suite — all 16 string measures over
every schema attribute of a slice of the dataset catalog — twice:
once through the frozen pre-kernel-engine path
(``schema_based_matrix_legacy`` in ``tests/oracles/strings.py``:
per-pair Jaro and Monge-Elkan loops, one-left-at-a-time DPs, no value
deduplication) and once through the deduplicated, blocked kernel
engine (:func:`~repro.pipeline.batched_strings.schema_based_matrix`),
then

* asserts every similarity matrix is **bit-identical** across the two
  paths,
* asserts the kernel path is at least ``MIN_SPEEDUP``x faster
  wall-clock on the suite,
* reports (and differentially checks) the batched RWMD kernel against
  its frozen pair loop, and
* embeds the largest column with both semantic models through the
  batched collection pass and through the frozen scalar bodies
  (``tests/oracles/embeddings.py``), asserts equal bits and reports
  both timings.

Run directly (the CI smoke job does)::

    PYTHONPATH=src python benchmarks/bench_kernel_engine.py [--smoke]

Not a pytest-benchmark harness on purpose: the comparison needs two
cold end-to-end runs of the same workload, not statistics over many
hot repetitions.
"""

from __future__ import annotations

import argparse
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

from repro.datasets.catalog import dataset_spec
from repro.datasets.generator import generate_dataset
from repro.embeddings import ContextualModel, FastTextLikeModel
from repro.embeddings.hashing import clear_cache
from repro.embeddings.measures import word_mover_similarity_matrix
from repro.pipeline.batched_strings import (
    SCHEMA_BASED_MEASURES,
    StringBatch,
    schema_based_matrix,
)
from repro.pipeline.kernels import UniquePlan
from tests.oracles.embeddings import (
    contextual_embed_tokens,
    fasttext_embed_tokens,
    word_mover_similarity_matrix_legacy,
)
from tests.oracles.strings import (
    LegacyStringBatch,
    schema_based_matrix_legacy,
)

#: Required kernel-vs-legacy speedup on the schema-based suite.  The
#: kernel engine removes structural redundancy (duplicated values,
#: per-pair Python loops), so 3x is attainable on one core.
MIN_SPEEDUP = 3.0

#: Floor for the tiny ``--smoke`` profile, where per-run timing noise
#: on loaded CI runners is large relative to the workload.
MIN_SPEEDUP_SMOKE = 2.0

#: Attribute workloads with the duplication profile of real clean-clean
#: data: (dataset code, scale, max_pairs).  All schema attributes and
#: all 16 measures of each dataset participate.
FULL_WORKLOAD = (
    ("d1", 0.1, 10_000),
    ("d6", 0.2, 10_000),
    ("d7", 0.2, 10_000),
    ("d8", 0.15, 10_000),
)

SMOKE_WORKLOAD = (("d7", 0.2, 10_000),)

_WARMUP = ("d1", 0.03, 1_000)


def _attribute_values(workload):
    """``(label, lefts, rights)`` for every schema attribute."""
    columns = []
    for code, scale, max_pairs in workload:
        dataset = generate_dataset(
            dataset_spec(code, scale=scale, max_pairs=max_pairs), seed=42
        )
        for attribute in dataset.spec.schema_attributes:
            columns.append(
                (
                    f"{code}:{attribute}",
                    dataset.left.attribute_values(attribute),
                    dataset.right.attribute_values(attribute),
                )
            )
    return columns


def run_suite(columns, compute, batch_type) -> tuple[dict, float]:
    """All 16 measures on every column, sharing one ``batch_type``
    batch per column; returns matrices + seconds."""
    matrices = {}
    start = time.perf_counter()
    for label, lefts, rights in columns:
        batch = batch_type(lefts, rights)
        for measure in SCHEMA_BASED_MEASURES:
            matrices[(label, measure)] = compute(
                lefts, rights, measure, batch
            )
    return matrices, time.perf_counter() - start


def assert_identical(legacy: dict, kernel: dict, context: str) -> None:
    assert legacy.keys() == kernel.keys(), context
    for key in legacy:
        assert np.array_equal(legacy[key], kernel[key]), (
            f"{context}: matrix differs for {key}"
        )


def _largest(columns):
    return max(columns, key=lambda column: len(column[1]) * len(column[2]))


def bench_embeddings(columns) -> tuple[str, dict]:
    """Differential + timing report of the batched embeddings.

    Both models embed every text of the largest column once through
    ``embed_collection`` from a cold hash-vector cache, and once
    through the scalar oracle bodies (which memoize nothing).
    """
    label, lefts, rights = _largest(columns)
    texts = lefts + rights
    fields = {"embedding_texts": len(texts)}
    parts = []
    for model_type, oracle in (
        (FastTextLikeModel, fasttext_embed_tokens),
        (ContextualModel, contextual_embed_tokens),
    ):
        clear_cache()
        start = time.perf_counter()
        batched = model_type().embed_collection(texts)
        batched_seconds = time.perf_counter() - start
        model = model_type()
        start = time.perf_counter()
        scalar = [oracle(model, text) for text in texts]
        oracle_seconds = time.perf_counter() - start
        for text, got, expected in zip(texts, batched, scalar):
            assert got.shape == expected.shape and np.array_equal(
                got, expected
            ), f"{model.name} embedding differs on {label}: {text!r}"
        fields[f"{model.name}_batched_seconds"] = batched_seconds
        fields[f"{model.name}_oracle_seconds"] = oracle_seconds
        parts.append(
            f"{model.name} oracle {oracle_seconds:.2f}s | batched "
            f"{batched_seconds:.2f}s"
        )
    line = (
        f"[bench_kernel_engine] embeddings {label} {len(texts)} texts | "
        + " | ".join(parts)
        + " (bit-identical)"
    )
    return line, fields


def bench_rwmd(columns) -> str:
    """Differential + timing report of the batched RWMD kernel."""
    label, lefts, rights = _largest(columns)
    model = FastTextLikeModel(dim=32)
    plan = UniquePlan.build(lefts, rights)
    left = [model.embed_tokens(text) for text in plan.lefts]
    right = [model.embed_tokens(text) for text in plan.rights]
    start = time.perf_counter()
    legacy = word_mover_similarity_matrix_legacy(left, right)
    legacy_seconds = time.perf_counter() - start
    start = time.perf_counter()
    batched = word_mover_similarity_matrix(left, right)
    batched_seconds = time.perf_counter() - start
    assert np.array_equal(legacy, batched), f"RWMD differs on {label}"
    speedup = (
        legacy_seconds / batched_seconds if batched_seconds else float("inf")
    )
    return (
        f"[bench_kernel_engine] rwmd {label} "
        f"{len(plan.lefts)}x{len(plan.rights)} unique | legacy "
        f"{legacy_seconds:.2f}s | batched {batched_seconds:.2f}s | "
        f"speedup {speedup:.2f}x (bit-identical)"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny CI profile instead of the full benchmark workload",
    )
    parser.add_argument(
        "--no-assert", action="store_true",
        help="report without failing on the speedup threshold",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="interleaved timing repeats; the per-path minimum is used",
    )
    parser.add_argument(
        "--json", type=str, default=None,
        help="write the machine-readable report to this path",
    )
    args = parser.parse_args(argv)
    workload = SMOKE_WORKLOAD if args.smoke else FULL_WORKLOAD
    columns = _attribute_values(workload)

    warm = _attribute_values((_WARMUP,))
    run_suite(warm, schema_based_matrix_legacy, LegacyStringBatch)
    run_suite(warm, schema_based_matrix, StringBatch)

    # Interleave the passes and keep each path's minimum: the minimum
    # of repeated runs is the noise-robust wall-clock estimator.
    legacy_seconds = kernel_seconds = float("inf")
    legacy: dict = {}
    kernel: dict = {}
    for _ in range(max(args.repeats, 1)):
        legacy, seconds = run_suite(
            columns, schema_based_matrix_legacy, LegacyStringBatch
        )
        legacy_seconds = min(legacy_seconds, seconds)
        kernel, seconds = run_suite(columns, schema_based_matrix, StringBatch)
        kernel_seconds = min(kernel_seconds, seconds)

    assert_identical(legacy, kernel, "legacy vs kernels")
    speedup = (
        legacy_seconds / kernel_seconds if kernel_seconds else float("inf")
    )
    cells = sum(len(l) * len(r) for _, l, r in columns)
    print(
        f"[bench_kernel_engine] {len(columns)} attributes x "
        f"{len(SCHEMA_BASED_MEASURES)} measures ({cells} pairs/measure) | "
        f"legacy {legacy_seconds:.2f}s | kernels {kernel_seconds:.2f}s | "
        f"speedup {speedup:.2f}x (bit-identical, min of "
        f"{max(args.repeats, 1)})"
    )

    print(bench_rwmd(columns))
    embeddings_line, embeddings_fields = bench_embeddings(columns)
    print(embeddings_line)

    floor = MIN_SPEEDUP_SMOKE if args.smoke else MIN_SPEEDUP
    passed = speedup >= floor
    if args.json:
        _write_report(
            args.json,
            "bench_kernel_engine",
            smoke=args.smoke,
            legacy_seconds=legacy_seconds,
            engine_seconds=kernel_seconds,
            speedup=speedup,
            floor=floor,
            asserted=not args.no_assert,
            attributes=len(columns),
            **embeddings_fields,
        )
    if not args.no_assert and not passed:
        print(
            f"[bench_kernel_engine] FAIL: speedup {speedup:.2f}x below "
            f"the {floor:.1f}x floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
