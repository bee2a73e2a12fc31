"""Corpus-engine benchmark: direct path vs shared-artifact engine.

Generates the same reduced graph corpus twice — once through the
pre-refactor *direct* path (every function rebuilds every model,
embedding and encoding from scratch via the frozen
``compute_similarity_matrix`` oracle in ``tests/oracles/similarity.py``)
and once through the shared-artifact engine path used by
:func:`~repro.pipeline.workbench.generate_corpus` — then

* asserts the two corpora are **bit-identical** (same retained graphs,
  same edge sets, same weights), and
* asserts the engine is at least ``MIN_SPEEDUP``x faster wall-clock.

Run directly (the CI smoke job does)::

    PYTHONPATH=src python benchmarks/bench_corpus_engine.py [--smoke] [-j N]

Not a pytest-benchmark harness on purpose: the comparison needs two
cold end-to-end runs of the same workload, not statistics over many
hot repetitions.
"""

from __future__ import annotations

import argparse
import dataclasses
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
from repro.pipeline.similarity_functions import enumerate_functions
from repro.pipeline.workbench import (
    GraphCorpusConfig,
    GraphRecord,
    _all_matches_zero,
    _enumerate_kwargs,
    generate_corpus,
)
from tests.oracles.similarity import compute_similarity_matrix, matrix_to_graph

#: Required engine-vs-direct speedup (the redundancy the engine removes
#: is structural — models rebuilt 4-6x per group — so 2x is conservative).
MIN_SPEEDUP = 2.0

#: Floor for the tiny ``--smoke`` profile, where per-run timing noise
#: on loaded CI runners is large relative to the ~0.2s workload.
MIN_SPEEDUP_SMOKE = 1.5

#: Reduced but representative config: all four families, both n-gram
#: units, every vector/graph/semantic measure, token-sharing string
#: measures — the full redundancy profile of the paper's taxonomy at a
#: fraction of the size.
REDUCED_CONFIG = GraphCorpusConfig(
    datasets=("d1", "d2"),
    scale=0.06,
    max_pairs=10_000,
    schema_based_measures=(
        "levenshtein",
        "qgrams",
        "cosine_tokens",
        "dice",
        "jaccard",
        "generalized_jaccard",
    ),
    ngram_models=(("char", 3), ("token", 1)),
    max_attributes=2,
)

#: Tiny CI profile; same structure, smaller datasets.
SMOKE_CONFIG = GraphCorpusConfig(
    datasets=("d1",),
    scale=0.04,
    max_pairs=4_000,
    schema_based_measures=("cosine_tokens", "dice", "jaccard"),
    ngram_models=(("token", 1),),
    max_attributes=1,
)

#: Micro workload run untimed before measuring, so one-off process
#: costs (imports, allocator warm-up, BLAS thread spin-up) don't skew
#: the timed passes.  Artifact caches are per-run instances, so the
#: warm-up does not pre-warm the engine's caches.
_WARMUP_CONFIG = GraphCorpusConfig(
    datasets=("d1",),
    scale=0.02,
    max_pairs=1_000,
    schema_based_measures=("jaccard",),
    ngram_models=(("token", 1),),
    vector_measures=("cosine_tf",),
    graph_measures=("containment",),
    semantic_models=("fasttext_like",),
    max_attributes=1,
)


def run_direct(config: GraphCorpusConfig) -> list[GraphRecord]:
    """The pre-refactor corpus loop: one flat pass, no shared artifacts."""
    from repro.datasets.catalog import CATEGORY_BY_DATASET

    records: list[GraphRecord] = []
    for code in config.datasets:
        dataset = generate_dataset(
            dataset_spec(code, scale=config.scale, max_pairs=config.max_pairs),
            seed=config.seed,
        )
        specs = enumerate_functions(dataset, **_enumerate_kwargs(config))
        for spec in specs:
            start = time.perf_counter()
            matrix = compute_similarity_matrix(dataset, spec)
            graph = matrix_to_graph(
                matrix,
                name=f"{dataset.code}:{spec.name}",
                metadata={
                    "dataset": dataset.code,
                    "family": spec.family,
                    "function": spec.name,
                },
            )
            elapsed = time.perf_counter() - start
            if _all_matches_zero(graph, dataset.ground_truth):
                continue
            records.append(
                GraphRecord(
                    graph=graph,
                    dataset=dataset.code,
                    family=spec.family,
                    function=spec.name,
                    category=CATEGORY_BY_DATASET[dataset.code],
                    ground_truth=dataset.ground_truth,
                    build_seconds=elapsed,
                )
            )
    return records


def assert_identical(
    direct: list[GraphRecord], engine: list[GraphRecord]
) -> None:
    """Both corpora must match graph for graph, bit for bit."""
    assert len(direct) == len(engine), (
        f"corpus size differs: direct {len(direct)} vs engine {len(engine)}"
    )
    for a, b in zip(direct, engine):
        assert (a.dataset, a.function) == (b.dataset, b.function), (
            f"order differs: {a.dataset}:{a.function} vs "
            f"{b.dataset}:{b.function}"
        )
        label = f"{a.dataset}:{a.function}"
        assert np.array_equal(a.graph.left, b.graph.left), label
        assert np.array_equal(a.graph.right, b.graph.right), label
        assert np.array_equal(a.graph.weight, b.graph.weight), label


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny CI profile instead of the reduced benchmark config",
    )
    parser.add_argument(
        "--workers", "-j", type=int, default=1,
        help="engine worker processes (timed as a separate pass)",
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
    config = SMOKE_CONFIG if args.smoke else REDUCED_CONFIG

    run_direct(_WARMUP_CONFIG)
    generate_corpus(_WARMUP_CONFIG)

    # Interleave the passes and keep each path's minimum: the minimum
    # of repeated runs is the noise-robust wall-clock estimator.
    direct_seconds = engine_seconds = float("inf")
    direct: list[GraphRecord] = []
    engine: list[GraphRecord] = []
    for _ in range(max(args.repeats, 1)):
        start = time.perf_counter()
        direct = run_direct(config)
        direct_seconds = min(direct_seconds, time.perf_counter() - start)

        start = time.perf_counter()
        engine = generate_corpus(config)
        engine_seconds = min(engine_seconds, time.perf_counter() - start)

    assert_identical(direct, engine)
    speedup = direct_seconds / engine_seconds if engine_seconds else float("inf")
    print(
        f"[bench_corpus_engine] {len(engine)} graphs | direct "
        f"{direct_seconds:.2f}s | engine {engine_seconds:.2f}s | "
        f"speedup {speedup:.2f}x (bit-identical, min of "
        f"{max(args.repeats, 1)})"
    )

    if args.workers > 1:
        start = time.perf_counter()
        parallel = generate_corpus(
            dataclasses.replace(config, workers=args.workers)
        )
        parallel_seconds = time.perf_counter() - start
        assert_identical(engine, parallel)
        print(
            f"[bench_corpus_engine] engine x{args.workers} workers "
            f"{parallel_seconds:.2f}s | speedup vs direct "
            f"{direct_seconds / parallel_seconds:.2f}x (bit-identical)"
        )

    floor = MIN_SPEEDUP_SMOKE if args.smoke else MIN_SPEEDUP
    passed = speedup >= floor
    if args.json:
        _write_report(
            args.json,
            "bench_corpus_engine",
            smoke=args.smoke,
            legacy_seconds=direct_seconds,
            engine_seconds=engine_seconds,
            speedup=speedup,
            floor=floor,
            asserted=not args.no_assert,
            graphs=len(engine),
        )
    if not args.no_assert and not passed:
        print(
            f"[bench_corpus_engine] FAIL: speedup {speedup:.2f}x below "
            f"the {floor:.1f}x floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
