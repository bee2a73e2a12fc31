"""The four benchmark workloads, one measured unit per fresh interpreter.

``run.py`` starts this file once per unit::

    python3 perfbench/workloads.py '<json spec>'

and reads the one JSON line it prints: set-up and measured seconds,
items done, peak RSS, the output check against ``reference.json`` and,
in a traced unit, the per-layer metrics.  A unit is one call through a
public entry point:

``corpus``  one cold ``generate_corpus`` over ``DEFAULT_BENCH_CONFIG``'s
            taxonomy on d2/d3/d8 (BLC, OSD, SCR) into an empty cache.
``sweep``   one ``run_experiments`` over a corpus prebuilt once per
            invocation, with an empty results cache.
``serve``   one open-loop load segment through ``create_app`` and the
            in-process ``AsgiClient``: seeded Poisson ``/resolve``
            arrivals plus an ``/ingest`` barrier every 50th arrival.
``stream``  one ``replay_stream`` plus ``partitions()`` over d4's union
            collection with the ``repro stream`` defaults.

Every run cycles through the four input variants, starting at
``seed % VARIANTS``, so runs with different seeds do the same work:
the variant picks the dataset seed (corpus, serve, stream) or BAH's
seed over one corpus (sweep), and every variant has reference
digests.  The full seed also draws the serve arrival times.  Untraced
units wrap only one entry point, to prove the timed section did its
work.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from tracing import Probe, Tracer, install

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

#: Input variants with reference digests; the seed picks one.
VARIANTS = 4

# corpus / sweep: a dataset subset spanning BLC (d2), OSD (d3), SCR (d8).
CORPUS_DATASETS = ("d2", "d3", "d8")
CORPUS_SCALE = 0.05
CORPUS_MAX_PAIRS = 20_000

# serve: d8's right side is the indexed collection.
SERVE_DATASET = "d8"
SERVE_SCALE = 0.3
SERVE_MAX_PAIRS = 1_000_000  # 340 queries x 2,940 indexed
SERVE_RATE = 240.0           # resolve + ingest arrivals per second
SERVE_SEGMENTS = 8           # fresh services per run, two per variant
INGEST_EVERY = 50            # arrival 50, 100, ... is an /ingest
INGEST_RECORDS = 4
TOP_K = 10
LATENCY_LIMIT_MS = 500.0     # goodput counts resolves within this
MAX_SECONDS = 30             # longest run the serve reference covers

# stream: the ``repro stream`` defaults over one union collection.
STREAM_DATASET = "d4"
STREAM_SCALE = 0.05
STREAM_MAX_PAIRS = 80_000
STREAM_MEASURE = "jaccard"
STREAM_BLOCKING = "tokens"
STREAM_THRESHOLD = 0.5
STREAM_BATCH = 32

#: The paper's four input families (engine.<family>.score_s).
FAMILIES = (
    "schema_based_syntactic",
    "schema_agnostic_syntactic",
    "schema_based_semantic",
    "schema_agnostic_semantic",
)


def data_seed(variant: int) -> int:
    return 42 + variant


def serve_arrivals(seconds: float) -> int:
    """Arrivals per serve segment of ``seconds / VARIANTS``: whole
    ingest blocks at SERVE_RATE."""
    blocks = round(SERVE_RATE * seconds / VARIANTS / INGEST_EVERY)
    return INGEST_EVERY * max(1, blocks)


# ----------------------------------------------------------------------
# Output digests (deterministic fields only)
# ----------------------------------------------------------------------
def _digest(*parts: bytes) -> str:
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def corpus_digests(records) -> list[list[str]]:
    """One ``[key, digest]`` per graph: shape, edge arrays, ground truth."""
    truth: dict[str, bytes] = {}
    out = []
    for record in records:
        if record.dataset not in truth:
            pairs = sorted(record.ground_truth)
            truth[record.dataset] = np.asarray(pairs, np.int64).tobytes()
        graph = record.graph
        key = f"{record.dataset}:{record.function}"
        out.append([key, _digest(
            key.encode(),
            f"{graph.n_left}x{graph.n_right}".encode(),
            np.asarray(graph.left, np.int64).tobytes(),
            np.asarray(graph.right, np.int64).tobytes(),
            np.asarray(graph.weight, np.float64).tobytes(),
            truth[record.dataset],
        )])
    return out


def sweep_digests(results) -> list[list[str]]:
    """One ``[key, digest]`` per surviving graph, in result order.

    Covers every point's threshold, P, R, F1, TP, output and truth
    pair counts; the per-point ``seconds`` is a timing, not an output.
    """
    out = []
    for result in results:
        key = f"{result.dataset}:{result.family}:{result.function}"
        payload = {
            code: [
                [
                    float(point.threshold),
                    float(point.scores.precision),
                    float(point.scores.recall),
                    float(point.scores.f_measure),
                    int(point.scores.true_positives),
                    int(point.scores.output_pairs),
                    int(point.scores.ground_truth_pairs),
                ]
                for point in sweep.points
            ]
            for code, sweep in result.sweeps.items()
        }
        out.append([key, _digest(json.dumps(payload).encode())])
    return out


def response_blocks(responses) -> list[str]:
    """One digest per ingest block of ``(status, body)`` responses."""
    out = []
    for start in range(0, len(responses), INGEST_EVERY):
        parts = [
            b"missing" if item is None
            else str(item[0]).encode() + b"\n" + item[1]
            for item in responses[start:start + INGEST_EVERY]
        ]
        out.append(_digest(*parts))
    return out


def stream_digests(report: dict, partitions: dict) -> dict:
    """``stream_report`` identity flags plus one digest per partition."""
    return {
        "graph_identical": bool(report["graph_identical"]),
        "partitions_identical": {
            code: bool(same)
            for code, same in report["partitions_identical"].items()
        },
        "partitions": {
            code: _digest(json.dumps(
                [[int(node) for node in cluster] for cluster in clusters]
            ).encode())
            for code, clusters in partitions.items()
        },
    }


# ----------------------------------------------------------------------
# Output checks: failed operations out of attempted ones
# ----------------------------------------------------------------------
def check_listed(ours: list, reference: list, weight: int = 1) -> int:
    """Failed operations of a positional ``[key, digest]`` comparison."""
    failed = 0
    for index in range(max(len(ours), len(reference))):
        if index >= len(ours) or index >= len(reference):
            failed += weight
        elif list(ours[index]) != list(reference[index]):
            failed += weight
    return failed


def check_stream(ours: dict, reference: dict) -> int:
    """Failed partitions: all four when the graph diverged from batch."""
    codes = sorted(reference["partitions"])
    if not ours["graph_identical"] or not reference["graph_identical"]:
        return len(codes)
    return sum(
        1
        for code in codes
        if not ours["partitions_identical"].get(code)
        or ours["partitions"].get(code) != reference["partitions"][code]
    )


def check_serve(responses, reference_blocks: list[str]) -> set[int]:
    """Indices of failed requests: non-200 or in a mismatched block."""
    bad = {
        index for index, item in enumerate(responses)
        if item is None or item[0] != 200
    }
    for block, digest in enumerate(response_blocks(responses)):
        if block >= len(reference_blocks) or digest != reference_blocks[block]:
            start = block * INGEST_EVERY
            bad.update(range(start, min(start + INGEST_EVERY, len(responses))))
    return bad


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def experiment_config(variant: int, sweep: bool = False):
    """DEFAULT_BENCH_CONFIG on the benchmark's subset, every knob explicit.

    The corpus workload varies the dataset seed.  The sweep workload
    keeps variant 0's corpus and varies BAH's seed, which changes the
    outputs but not the amount of work.
    """
    from repro.experiments import DEFAULT_BENCH_CONFIG

    corpus = dataclasses.replace(
        DEFAULT_BENCH_CONFIG.corpus,
        datasets=CORPUS_DATASETS,
        scale=CORPUS_SCALE,
        max_pairs=CORPUS_MAX_PAIRS,
        seed=data_seed(0 if sweep else variant),
        blocking=None,
        workers=1,
        artifact_store=None,
        store_read_tier=None,
        max_memory=None,
    )
    return dataclasses.replace(
        DEFAULT_BENCH_CONFIG,
        corpus=corpus,
        bah_seed=data_seed(variant) if sweep else DEFAULT_BENCH_CONFIG.bah_seed,
    )


def serve_ops(queries: list[str], variant: int) -> list:
    """The variant's request sequence; every prefix is stable.

    Drawn for the longest covered run and sliced, so a shorter run's
    requests (and reference blocks) are a prefix of a longer one's.
    """
    rng = np.random.default_rng([variant, 7])
    ops = []
    for index in range(serve_arrivals(MAX_SECONDS)):
        if (index + 1) % INGEST_EVERY == 0:
            picks = rng.integers(len(queries), size=INGEST_RECORDS)
            records = [
                {"id": f"ingest-{index}-{j}", "text": queries[p]}
                for j, p in enumerate(picks.tolist())
            ]
            ops.append(("ingest", {"dataset": SERVE_DATASET,
                                   "records": records}))
        else:
            pick = int(rng.integers(len(queries)))
            ops.append(("resolve", {"dataset": SERVE_DATASET,
                                    "record": queries[pick],
                                    "top_k": TOP_K}))
    return ops


def serve_offsets(seed: int, segment: int, count: int) -> np.ndarray:
    """Poisson arrival times (seconds from the first arrival)."""
    gaps = np.random.default_rng([seed, segment, 11]).exponential(
        1.0 / SERVE_RATE, count
    )
    return np.cumsum(gaps) - gaps[0]


# ----------------------------------------------------------------------
# Probes: each layer's public entry points
# ----------------------------------------------------------------------
def _artifact_state(args, kwargs):
    cache, key = args[0], args[1] if len(args) > 1 else kwargs["key"]
    return cache.build_counts[key] + cache.load_counts[key]


def _artifact_after(tracer, span, state, args, kwargs, result):
    if _artifact_state(args, kwargs) == state:
        tracer.discard(span)  # memo hit: no work
    else:
        tracer.count("engine.artifact_builds")


def _counting(counter: str, measure):
    def after(tracer, span, state, args, kwargs, result):
        tracer.count(counter, measure(args, result))
    return after


def _sampling(name: str, measure):
    def after(tracer, span, state, args, kwargs, result):
        tracer.sample(name, measure(args, result))
    return after


def _n_edges_before(args, kwargs):
    return args[0].n_edges


def _edges_inserted(tracer, span, state, args, kwargs, result):
    tracer.count("incremental.edges_inserted", args[0].n_edges - state)
    tracer.count("stream.edges_kept", len(args[1]))


KERNEL_PROBES = [
    Probe("repro.pipeline.kernels:UniquePlan.build", "strings.batch"),
    Probe("repro.pipeline.kernels:SparsePlan.build", "kernels.sparse_plan"),
    Probe("repro.pipeline.batched_strings:schema_based_pairs",
          "kernels.pairs",
          after=_counting("kernels.pairs_scored", lambda a, r: len(r))),
    Probe("repro.pipeline.blocking:BlockingIndex.probe", "blocking.probe",
          after=_sampling("blocking.candidates", lambda a, r: len(r))),
]


def _string_batch_probes() -> list[Probe]:
    """Every lazy artifact of ``StringBatch`` as a ``strings.batch`` span.

    Without the class (renamed by a refactor) the ``plan`` probe stands
    in, so the layer reports as unmeasured instead of failing the unit.
    """
    from functools import cached_property

    try:
        from repro.pipeline.batched_strings import StringBatch
    except ImportError:
        return [Probe("repro.pipeline.batched_strings:StringBatch.plan",
                      "strings.batch")]
    return [
        Probe(f"repro.pipeline.batched_strings:StringBatch.{name}",
              "strings.batch")
        for name, value in vars(StringBatch).items()
        if isinstance(value, cached_property)
    ]


def corpus_probes() -> list[Probe]:
    return [
        Probe("repro.pipeline.workbench:generate_corpus",
              "workbench.generate_corpus"),
        Probe("repro.datasets.generator:generate_dataset",
              "datasets.generate"),
        Probe("repro.pipeline.engine:SimilarityEngine.compute_timed",
              lambda a, k: f"engine.{a[1].family}.score", work=True),
        Probe("repro.pipeline.engine:ArtifactCache.get", "engine.artifact",
              before=_artifact_state, after=_artifact_after),
        Probe("repro.pipeline.graph_builder:matrix_to_graph",
              "graph_builder.build",
              after=_counting("graph_builder.edges",
                              lambda a, r: r.n_edges)),
        Probe("repro.pipeline.workbench:_store_cache", "workbench.write"),
    ]


def sweep_probes() -> list[Probe]:
    from repro.matching.registry import PAPER_ALGORITHM_CODES, create_matcher

    matchers = {type(create_matcher(code)) for code in PAPER_ALGORITHM_CODES}
    return [
        Probe("repro.experiments.runner:run_experiments",
              "runner.run_experiments"),
        Probe("repro.pipeline.workbench:generate_corpus",
              "workbench.generate_corpus"),
        Probe("repro.pipeline.workbench:_load_cached", "workbench.load"),
        Probe("repro.graph.compiled:CompiledGraph.__init__",
              "compiled.build"),
        *[
            Probe(f"{cls.__module__}:{cls.__qualname__}.match_compiled",
                  lambda a, k: f"matching.{a[0].code}", work=True)
            for cls in sorted(matchers, key=lambda c: c.__qualname__)
        ],
        Probe("repro.evaluation.metrics:GroundTruthIndex.__init__",
              "evaluation.index"),
        Probe("repro.evaluation.metrics:GroundTruthIndex.score",
              "evaluation.score"),
        Probe("repro.evaluation.sweep:threshold_sweep", "evaluation.sweep",
              after=_counting("sweep.points", lambda a, r: len(r.points))),
        Probe("repro.evaluation.filtering:is_noisy_graph",
              "evaluation.filter"),
        Probe("repro.evaluation.filtering:find_duplicate_inputs",
              "evaluation.filter"),
        Probe("repro.experiments.runner:_store_results", "runner.write"),
        Probe("repro.pipeline.resilience:RunJournal.commit",
              "resilience.journal"),
        Probe("repro.pipeline.resilience:ResilientPool._record_failure",
              "resilience.retry"),
    ]


def serve_probes() -> list[Probe]:
    return [
        Probe("repro.service.app:_warm_service", "service.warmup"),
        Probe("repro.service.asgi:App.__call__",
              lambda a, k: f"asgi.{a[1]['type']}"),
        Probe("repro.service.scheduler:MicroBatchScheduler.submit",
              "scheduler.submit"),
        Probe("repro.service.resolver:ResolverService.resolve_batch",
              "resolver.pass", work=True,
              after=_sampling("scheduler.batch", lambda a, r: len(a[3]))),
        Probe("repro.service.resolver:ResolverService.ingest",
              "resolver.ingest"),
        Probe("repro.pipeline.blocking:BlockingIndex.ingest",
              "blocking.ingest"),
        *KERNEL_PROBES,
        *_string_batch_probes(),
    ]


def stream_probes() -> list[Probe]:
    return [
        Probe("repro.pipeline.streaming:replay_stream", "streaming.replay"),
        Probe("repro.pipeline.streaming:StreamResult.partitions",
              "streaming.partitions"),
        Probe("repro.pipeline.blocking:BlockingIndex.build",
              "blocking.index_build"),
        Probe("repro.graph.incremental:insert_uni_edges",
              "incremental.insert", work=True,
              before=_n_edges_before, after=_edges_inserted),
        Probe("repro.extensions.incremental:IncrementalClusterer.__init__",
              "clusterer.init"),
        Probe("repro.extensions.incremental:IncrementalClusterer.insert",
              lambda a, k: f"clusterer.{a[0].clusterer.code}.observe"),
        Probe("repro.extensions.incremental:IncrementalClusterer.partition",
              lambda a, k: f"clusterer.{a[0].clusterer.code}.partition"),
        *KERNEL_PROBES,
        *_string_batch_probes(),
    ]


# ----------------------------------------------------------------------
# Per-layer metrics from one traced unit's spans
# ----------------------------------------------------------------------
def _calls(summary, name) -> int:
    return summary.get(name, (0, 0.0, 0.0))[0]


def _self_s(summary, *names) -> float:
    return sum(summary.get(name, (0, 0.0, 0.0))[2] for name in names)


def _mean_ms(summary, name) -> float:
    calls, total, _ = summary.get(name, (0, 0.0, 0.0))
    return 1000.0 * total / calls if calls else 0.0


def _mean_self_ms(summary, name) -> float:
    calls, _, own = summary.get(name, (0, 0.0, 0.0))
    return 1000.0 * own / calls if calls else 0.0


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; 0 for no values."""
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _dir_bytes(path: Path) -> int:
    return sum(
        entry.stat().st_size for entry in path.rglob("*") if entry.is_file()
    )


def coverage(summary, entry: str) -> float:
    """Share of the timed section that the layers below ``entry`` cover.

    The root span's own time and the entry point's own time (its
    orchestration between layer calls) count as unattributed.
    """
    _, total, own = summary.get("unit", (0, 0.0, 0.0))
    if not total:
        return 0.0
    return 1.0 - (own + _self_s(summary, entry)) / total


def corpus_layers(summary, tracer, records, cache: Path) -> dict:
    ratios = [
        record.dedup_ratio
        for record in records
        if record.family == "schema_based_syntactic"
        and hasattr(record, "dedup_ratio")
    ]
    layers = {
        "datasets.generate_s": _self_s(summary, "datasets.generate"),
        "engine.artifact_s": _self_s(summary, "engine.artifact"),
        "engine.artifact_builds": tracer.counters["engine.artifact_builds"],
        "kernels.dedup_ratio": statistics.fmean(ratios) if ratios else 0.0,
        "graph_builder.build_s": _self_s(summary, "graph_builder.build"),
        "graph_builder.edges": tracer.counters["graph_builder.edges"],
        "workbench.write_s": _self_s(summary, "workbench.write"),
        "workbench.bytes_written": float(_dir_bytes(cache)),
        "workbench.generate_self_s": _self_s(
            summary, "workbench.generate_corpus"
        ),
    }
    for family in FAMILIES:
        layers[f"engine.{family}.score_s"] = _self_s(
            summary, f"engine.{family}.score"
        )
    return layers


def sweep_layers(summary, tracer) -> dict:
    from repro.matching.registry import PAPER_ALGORITHM_CODES

    layers = {
        "workbench.load_s": _self_s(
            summary, "workbench.load", "workbench.generate_corpus"
        ),
        "compiled.build_s": _self_s(summary, "compiled.build"),
        "compiled.graphs": _calls(summary, "compiled.build"),
        "evaluation.score_s": _self_s(
            summary, "evaluation.score", "evaluation.index"
        ),
        "evaluation.sweep_s": _self_s(summary, "evaluation.sweep"),
        "evaluation.filter_s": _self_s(summary, "evaluation.filter"),
        "runner.write_s": _self_s(summary, "runner.write"),
        "runner.self_s": _self_s(summary, "runner.run_experiments"),
        "resilience.journal_s": _self_s(summary, "resilience.journal"),
        "resilience.retries": _calls(summary, "resilience.retry"),
    }
    match_calls = 0
    for code in PAPER_ALGORITHM_CODES:
        layers[f"matching.{code}.busy_s"] = _self_s(summary, f"matching.{code}")
        layers[f"matching.{code}.calls"] = _calls(summary, f"matching.{code}")
        match_calls += layers[f"matching.{code}.calls"]
    points = tracer.counters["sweep.points"]
    sweeps = _calls(summary, "evaluation.sweep")
    # Each sweep runs one untimed warm call; the rest are grid points
    # that could not reuse the previous point's result.
    layers["matching.reuse_ratio"] = (
        1.0 - (match_calls - sweeps) / points if points else 0.0
    )
    return layers


def serve_layers(summary, tracer, loadgen: dict) -> dict:
    spans = tracer.closed()
    submits = [s for s in spans if s[0] == "scheduler.submit"]
    passes = sorted(
        (s for s in spans if s[0] == "resolver.pass"), key=lambda s: s[3]
    )
    ends = [s[3] for s in passes]
    waits = []
    for submit in submits:
        # The pass that answered a request is the last one to end
        # before the request's submit returned.
        at = int(np.searchsorted(ends, submit[3], side="right")) - 1
        if at >= 0:
            waits.append(1000.0 * (passes[at][2] - submit[2]))
    child = {id(s[1]): s for s in submits}
    overhead = [
        1000.0 * ((s[3] - s[2]) - (child[id(s)][3] - child[id(s)][2]))
        for s in spans
        if s[0] == "asgi.http" and id(s) in child
    ]
    pass_ms = [1000.0 * (s[3] - s[2]) for s in passes]
    n_passes = len(passes)
    batches = tracer.samples["scheduler.batch"]
    candidates = tracer.samples["blocking.candidates"]
    return {
        "asgi.overhead_ms": statistics.fmean(overhead) if overhead else 0.0,
        "scheduler.queue_wait_p50_ms": percentile(waits, 50),
        "scheduler.queue_wait_p99_ms": percentile(waits, 99),
        "scheduler.batch_size": statistics.fmean(batches) if batches else 0.0,
        "scheduler.passes": n_passes,
        "resolver.pass_p50_ms": percentile(pass_ms, 50),
        "resolver.pass_p99_ms": percentile(pass_ms, 99),
        "resolver.string_batch_ms": (
            1000.0 * _self_s(summary, "strings.batch") / n_passes
            if n_passes else 0.0
        ),
        "resolver.rank_ms": (
            1000.0 * _self_s(summary, "resolver.pass") / n_passes
            if n_passes else 0.0
        ),
        "resolver.ingest_ms": _mean_ms(summary, "resolver.ingest"),
        "blocking.probe_ms": _mean_ms(summary, "blocking.probe"),
        "blocking.candidates_per_query": (
            statistics.fmean(candidates) if candidates else 0.0
        ),
        "blocking.ingest_ms": _mean_ms(summary, "blocking.ingest"),
        "kernels.sparse_plan_ms": _mean_self_ms(
            summary, "kernels.sparse_plan"
        ),
        "kernels.pairs_ms": _mean_self_ms(summary, "kernels.pairs"),
        "kernels.pairs_scored": tracer.counters["kernels.pairs_scored"],
        "serve.ingest_p50_ms": percentile(loadgen["ingest_ms"], 50),
        "loadgen.lag_p50_ms": percentile(loadgen["lag_ms"], 50),
        "loadgen.lag_p99_ms": percentile(loadgen["lag_ms"], 99),
    }


def stream_layers(summary, tracer) -> dict:
    from repro.extensions.dirty_er import DIRTY_ALGORITHM_CODES

    layers = {
        "stream.replay_self_s": _self_s(summary, "streaming.replay"),
        "blocking.index_build_s": _self_s(summary, "blocking.index_build"),
        "blocking.probe_s": _self_s(summary, "blocking.probe"),
        "blocking.probes": _calls(summary, "blocking.probe"),
        "kernels.string_batch_s": _self_s(summary, "strings.batch"),
        "kernels.sparse_plan_ms": _mean_self_ms(
            summary, "kernels.sparse_plan"
        ),
        "kernels.pairs_ms": _mean_self_ms(summary, "kernels.pairs"),
        "kernels.pairs_scored": tracer.counters["kernels.pairs_scored"],
        "stream.edges_kept": tracer.counters["stream.edges_kept"],
        "incremental.insert_s": _self_s(summary, "incremental.insert"),
        "incremental.edges_inserted": tracer.counters[
            "incremental.edges_inserted"
        ],
    }
    for code in DIRTY_ALGORITHM_CODES:
        layers[f"clusterer.{code}.observe_s"] = _self_s(
            summary, f"clusterer.{code}.observe"
        )
        layers[f"clusterer.{code}.partition_s"] = _self_s(
            summary, f"clusterer.{code}.partition"
        )
    return layers


# ----------------------------------------------------------------------
# One unit in this interpreter
# ----------------------------------------------------------------------
class Unit:
    """Clocks, tracer and result line of one unit.

    ``spec`` comes from ``run.py``: workload, seed, variant, index,
    trace, mode (``measure``, ``record`` or ``prebuild``), the wall
    clock at spawn, the run's ``seconds`` and the unit's work directory.
    """

    def __init__(self, spec: dict) -> None:
        self.spec = spec
        self.mode = spec.get("mode", "measure")
        self.traced = bool(spec.get("trace"))
        self.variant = int(spec["variant"])
        self.workdir = Path(spec["workdir"])
        self.tracer = Tracer()
        self.setup_summary: dict = {}
        self.summary: dict = {}
        self.out: dict = {"unmeasured": []}
        self.entry = ""
        self.work_measured = False

    def install(self, probes: list[Probe], entry: str = "") -> None:
        """Wrap the layers' entry points (only the work probe when
        untraced); ``entry`` names the workload's top-level span."""
        self.entry = entry
        if not self.traced:
            probes = [probe for probe in probes if probe.work]
        self.out["unmeasured"] = install(self.tracer, probes)
        self.work_measured = not any(
            probe.work and probe.target in self.out["unmeasured"]
            for probe in probes
        )

    def ready(self) -> None:
        """Set-up ends: interpreter start, imports, inputs, warmup."""
        self.out["ready_wall"] = time.time()
        self.out["setup_s"] = self.out["ready_wall"] - self.spec["spawn_wall"]
        self.setup_summary = self.tracer.summary()
        self.tracer.spans.clear()
        self.tracer.counters.clear()
        self.tracer.samples.clear()

    @contextlib.contextmanager
    def timed(self):
        span, token = self.tracer.open("unit")
        self.out["start_wall"] = time.time()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.out["measured_s"] = time.perf_counter() - start
            self.out["end_wall"] = time.time()
            self.tracer.close(span, token)
            self.summary = self.tracer.summary()
            # None: the work entry point was renamed, so no proof either way.
            self.out["did_work"] = (
                self.tracer.counters["work.calls"] > 0
                if self.work_measured else None
            )
            if self.traced and self.entry:
                self.out["coverage"] = coverage(self.summary, self.entry)

    def settle(self, digests, check) -> None:
        """Record the digests, or check them against the reference."""
        if self.mode == "record":
            self.out["digests"] = digests
            return
        reference = json.loads(REFERENCE_PATH.read_text())
        expected = reference[self.spec["workload"]][str(self.variant)]
        self.out["attempted"], self.out["failed"] = check(expected)


def corpus_unit(unit: Unit) -> None:
    import repro.pipeline.workbench as workbench

    unit.install(corpus_probes(), "workbench.generate_corpus")
    config = experiment_config(unit.variant).corpus
    cache = unit.workdir / "corpus"
    unit.ready()
    with unit.timed():
        records = workbench.generate_corpus(config, cache_dir=cache)
    unit.out["items"] = len(records)
    if unit.traced:
        unit.out["layers"] = corpus_layers(
            unit.summary, unit.tracer, records, cache
        )
    digests = corpus_digests(records)
    unit.settle(digests, lambda ref: (
        max(len(ref), len(digests)), check_listed(digests, ref)
    ))


def sweep_unit(unit: Unit) -> None:
    import repro.experiments.runner as runner
    import repro.pipeline.workbench as workbench
    from repro.matching.registry import PAPER_ALGORITHM_CODES

    unit.install(sweep_probes(), "runner.run_experiments")
    config = experiment_config(unit.variant, sweep=True)
    if unit.mode == "prebuild":
        unit.ready()
        with unit.timed():
            records = workbench.generate_corpus(
                config.corpus, cache_dir=unit.workdir / "corpus"
            )
        unit.out["n_graphs"] = len(records)
        return
    if unit.mode == "measure":
        shutil.copytree(
            Path(unit.spec["shared"]) / "corpus", unit.workdir / "corpus"
        )
    unit.ready()
    with unit.timed():
        results = runner.run_experiments(config, cache_dir=unit.workdir)
    codes = len(PAPER_ALGORITHM_CODES)
    unit.out["items"] = unit.spec.get("n_graphs", 0) * codes
    if unit.traced:
        unit.out["layers"] = sweep_layers(unit.summary, unit.tracer)
    digests = sweep_digests(results)
    unit.settle(digests, lambda ref: (
        unit.out["items"],
        min(unit.out["items"], check_listed(digests, ref, weight=codes)),
    ))


async def _burst(client, ops) -> list:
    """Reference replay: each block's resolves at once, then its ingest."""
    responses: list = []
    pending: list = []
    for kind, body in ops + [("ingest", None)]:
        if kind == "resolve":
            pending.append(client.post("/resolve", body))
            continue
        for response in await asyncio.gather(*pending):
            responses.append((response.status, response.body))
        pending = []
        if body is not None:
            response = await client.post("/ingest", body)
            responses.append((response.status, response.body))
    return responses


async def _open_loop(client, ops, offsets) -> tuple[list, dict]:
    """Send ``ops`` on their Poisson schedule, whatever the backlog.

    Each ``/ingest`` is a barrier: it is sent once no ``/resolve`` is in
    flight, and later resolves are held until it returns, so every
    response has one defined index state.  Latency runs from the due
    time, so held and queued requests pay for the wait; generator lag
    is how late a resolve left after it was due (or released).
    """
    loop = asyncio.get_running_loop()
    start = loop.time() + 0.02
    responses: list = [None] * len(ops)
    latency: list = [None] * len(ops)
    lag_ms: list[float] = []
    in_flight: set = set()
    tasks = []
    released = start

    async def resolve(index: int, due: float, body: dict) -> None:
        response = await client.post("/resolve", body)
        latency[index] = loop.time() - due
        responses[index] = (response.status, response.body)

    for index, ((kind, body), offset) in enumerate(zip(ops, offsets)):
        due = start + float(offset)
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        if kind == "ingest":
            if in_flight:
                await asyncio.wait(set(in_flight))
            response = await client.post("/ingest", body)
            latency[index] = loop.time() - due
            responses[index] = (response.status, response.body)
            released = loop.time()
            continue
        lag_ms.append(1000.0 * (loop.time() - max(due, released)))
        task = asyncio.ensure_future(resolve(index, due, body))
        tasks.append(task)
        in_flight.add(task)
        task.add_done_callback(in_flight.discard)
    if tasks:
        await asyncio.wait(tasks)
    for task in tasks:
        if task.exception() is not None:
            print(f"resolve failed: {task.exception()!r}", file=sys.stderr)
    return responses, {"latency": latency, "lag_ms": lag_ms}


def serve_unit(unit: Unit) -> None:
    from repro.datasets import dataset_spec, generate_dataset
    from repro.service.app import ServiceConfig, create_app
    from repro.service.testclient import AsgiClient

    unit.install(serve_probes())
    seed = data_seed(unit.variant)
    segment = int(unit.spec["index"])
    dataset = generate_dataset(
        dataset_spec(
            SERVE_DATASET, scale=SERVE_SCALE, max_pairs=SERVE_MAX_PAIRS
        ),
        seed=seed,
    )
    record = unit.mode == "record"
    arrivals = serve_arrivals(
        MAX_SECONDS if record else float(unit.spec["seconds"])
    )
    ops = serve_ops(dataset.left.texts(), unit.variant)[:arrivals]
    offsets = serve_offsets(int(unit.spec["seed"]), segment, arrivals)
    app = create_app(ServiceConfig(
        datasets=(SERVE_DATASET,),
        blocking="tokens",
        measure="jaccard",
        scale=SERVE_SCALE,
        max_pairs=SERVE_MAX_PAIRS,
        seed=seed,
    ))

    async def scenario():
        async with AsgiClient(app) as client:
            unit.ready()
            with unit.timed():
                if record:
                    return await _burst(client, ops), {}
                return await _open_loop(client, ops, offsets)

    responses, load = asyncio.run(scenario())
    if record:
        unit.out["digests"] = response_blocks(responses)
        return
    reference = json.loads(REFERENCE_PATH.read_text())
    bad = check_serve(responses, reference["serve"][str(unit.variant)])
    resolve_ms, ingest_ms = [], []
    good = 0
    for index, (kind, _) in enumerate(ops):
        seconds = load["latency"][index]
        if seconds is None:
            continue
        if kind == "ingest":
            ingest_ms.append(1000.0 * seconds)
            continue
        resolve_ms.append(1000.0 * seconds)
        if index not in bad and 1000.0 * seconds <= LATENCY_LIMIT_MS:
            good += 1
    load.update(ingest_ms=ingest_ms)
    unit.out.update(
        items=good,
        attempted=len(ops),
        failed=len(bad),
        resolve_ms=resolve_ms,
        ingest_ms=ingest_ms,
    )
    if unit.traced:
        layers = serve_layers(unit.summary, unit.tracer, load)
        layers["service.warmup_s"] = unit.setup_summary.get(
            "service.warmup", (0, 0.0, 0.0)
        )[1]
        unit.out["layers"] = layers


def stream_unit(unit: Unit) -> None:
    import repro.pipeline.streaming as streaming
    from repro.datasets import dataset_spec, generate_dataset
    from repro.extensions.dirty_er import DIRTY_ALGORITHM_CODES

    unit.install(stream_probes(), "streaming.replay")
    seed = data_seed(unit.variant)
    dataset = generate_dataset(
        dataset_spec(
            STREAM_DATASET, scale=STREAM_SCALE, max_pairs=STREAM_MAX_PAIRS
        ),
        seed=seed,
    )
    texts = dataset.left.texts() + dataset.right.texts()
    unit.ready()
    with unit.timed():
        result = streaming.replay_stream(
            texts,
            measure=STREAM_MEASURE,
            blocking=STREAM_BLOCKING,
            threshold=STREAM_THRESHOLD,
            algorithms=DIRTY_ALGORITHM_CODES,
            seed=seed,
            batch_size=STREAM_BATCH,
        )
        partitions = result.partitions()
    unit.out["items"] = len(texts)
    if unit.traced:
        unit.out["layers"] = stream_layers(unit.summary, unit.tracer)
    # stream_report re-derives the batch reference and every partition,
    # so it runs once per run; every unit checks its partition digests.
    if unit.spec.get("report", True):
        report = streaming.stream_report(result, texts)
    else:
        report = {"graph_identical": True,
                  "partitions_identical": {code: True for code in partitions}}
    digests = stream_digests(report, partitions)
    unit.settle(digests, lambda ref: (
        len(ref["partitions"]), check_stream(digests, ref)
    ))


WORKLOADS = {
    "corpus": corpus_unit,
    "sweep": sweep_unit,
    "serve": serve_unit,
    "stream": stream_unit,
}


def versions() -> dict:
    import scipy

    found = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    try:
        import networkx
    except ImportError:
        return found
    found["networkx"] = networkx.__version__
    return found


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    unit = Unit(spec)
    WORKLOADS[spec["workload"]](unit)
    unit.out["rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    unit.out["versions"] = versions()
    unit.out["variant"] = unit.variant
    unit.out["pid"] = os.getpid()
    print(json.dumps(unit.out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
