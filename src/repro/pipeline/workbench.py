"""Graph-corpus generation workbench.

Regenerates the paper's experimental input: for every dataset profile
and every similarity function of the taxonomy, the all-pairs
similarity graph.  The corpus is persisted under a cache directory
(one ``.npz`` per graph plus a JSON manifest) so the benchmark
harnesses can re-use it across runs; the cache key includes the scale,
seed and configuration, so changing any knob regenerates.

Generation runs through the shared-artifact engine of
:mod:`repro.pipeline.engine`: specs are partitioned into
artifact-sharing groups and each group scores its edges against a
per-dataset :class:`~repro.pipeline.engine.ArtifactCache`, which
eliminates the redundant model/embedding rebuilds of the naive
per-function loop.  With an ``artifact_store`` configured
(``GraphCorpusConfig.artifact_store``, ``generate_corpus(...,
artifact_store=PATH)``, ``repro corpus --artifact-store PATH``) the
cache extends across runs: embeddings, token matrices and entity
graphs land in a persistent content-addressed
:class:`~repro.pipeline.store.ArtifactStore` keyed by the generated
dataset's identity, so corpus configs that share a dataset reuse each
other's intermediates — warm or cold, the corpus stays bit-identical.
With ``workers > 1`` the groups are distributed
over a process pool; when the corpus has too few groups to occupy a
pool, the same ``workers`` value instead sizes the thread pool of the
pairwise-kernel engine (:mod:`repro.pipeline.kernels`).  The cache
write path is sharded under the same knob: ``graph_*.npz`` files are
written by a thread pool instead of serially in the parent (file
compression releases the GIL), with the manifest written only after
every graph file landed.  In every case the result (records, order,
cache key) is identical to the serial run — parallelism only changes
wall-clock.  Every fan-out (groups and cache writes alike) runs on
the shared fault-tolerant runner of :mod:`repro.pipeline.resilience`:
failed groups retry with backoff, broken pools respawn, and with
``resume``/``journal_dir`` completed groups journal to disk so an
interrupted generation resumes bit-identically.

The paper also removes degenerate inputs ("special care was taken to
clean the experimental results from noise"); the corresponding filters
live in :mod:`repro.evaluation.filtering` and are applied at analysis
time, with the zero-evidence filter (all matching pairs at weight 0)
applied already at generation time here.

The **dirty-ER corpus mode** (:func:`generate_dirty_corpus`) runs the
same taxonomy one workload over: each dataset's union collection is
joined with itself through the ordinary engine/store stack (self-join
artifacts carry a ``+self`` dataset identity) and every matrix's
strict upper triangle becomes a
:class:`~repro.graph.unipartite.UnipartiteGraph` for the clustering
algorithms of :mod:`repro.extensions.dirty_er`.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.datasets.catalog import DATASET_CODES, dataset_spec
from repro.datasets.generator import CleanCleanDataset, generate_dataset
from repro.datasets.profile import EntityCollection
from repro.graph.bipartite import SimilarityGraph
from repro.graph.io import (
    load_graph,
    load_unipartite_graph,
    save_graph,
    save_unipartite_graph,
)
from repro.graph.unipartite import UnipartiteGraph, pairs_to_unipartite_graph
from repro.pipeline.engine import SimilarityEngine, SpecGroup, group_specs
from repro.pipeline.graph_builder import pairs_to_graph
from repro.pipeline.sharding import plan_for_dataset
from repro.pipeline.resilience import (
    JournalCodec,
    ResilientPool,
    RetryPolicy,
    RunJournal,
    Task,
    default_journal_dir,
)
from repro.pipeline.similarity_functions import (
    FAMILIES,
    enumerate_function_specs,
)
from repro.pipeline.store import ArtifactStore, dataset_store_key

__all__ = [
    "GraphCorpusConfig",
    "GraphRecord",
    "DirtyGraphRecord",
    "generate_corpus",
    "generate_dirty_corpus",
]

_MANIFEST_NAME = "manifest.json"
_MANIFEST_VERSION = 2
_DIRTY_MANIFEST_VERSION = 1


@dataclass(frozen=True)
class GraphCorpusConfig:
    """Configuration of one graph corpus.

    ``datasets`` / ``families`` restrict the corpus; ``scale`` and
    ``max_pairs`` feed the dataset catalog; ``seed`` drives all
    randomness.  ``schema_based_measures`` / ``ngram_models`` etc. can
    shrink the taxonomy for quick runs (``None`` = the full paper
    configuration).  ``blocking`` (a spec string for
    :func:`~repro.pipeline.blocking.parse_blocking_spec`) routes
    generation through the sparse candidate-pair path — it *changes
    the corpus* (edges outside the candidate set disappear) and is
    part of :meth:`cache_key`.  ``workers`` parallelizes generation
    over a process pool, ``artifact_store`` points generation at a
    persistent cross-run :class:`~repro.pipeline.store.ArtifactStore`
    and ``store_read_tier`` layers a shared read-only store directory
    under it (tier hits never write anywhere — see
    :mod:`repro.pipeline.store`); none of the three affects the
    produced corpus or the cache key — only wall-clock — and all are
    therefore excluded from :meth:`cache_key`.  ``max_memory`` (bytes)
    routes generation through the sharded execution tier
    (:mod:`repro.pipeline.sharding`): each dataset's row space splits
    into budget-sized shards that run as individual pool tasks and
    merge bit-identically to the unsharded corpus — like the
    worker/store knobs it bounds resources without changing results,
    so it too is excluded from :meth:`cache_key`.
    """

    datasets: tuple[str, ...] = DATASET_CODES
    families: tuple[str, ...] = FAMILIES
    scale: float | None = None
    max_pairs: int | None = None
    seed: int = 42
    schema_based_measures: tuple[str, ...] | None = None
    ngram_models: tuple[tuple[str, int], ...] | None = None
    vector_measures: tuple[str, ...] | None = None
    graph_measures: tuple[str, ...] | None = None
    semantic_models: tuple[str, ...] | None = None
    semantic_measures: tuple[str, ...] | None = None
    max_attributes: int | None = None
    blocking: str | None = None
    workers: int = 1
    artifact_store: str | None = None
    store_read_tier: str | None = None
    max_memory: int | None = None

    def cache_key(self) -> str:
        """A stable hash of every generation-relevant knob."""
        payload_dict = {
            "datasets": self.datasets,
            "families": self.families,
            "scale": self.scale,
            "max_pairs": self.max_pairs,
            "seed": self.seed,
            "sbm": self.schema_based_measures,
            "ngm": self.ngram_models,
            "vm": self.vector_measures,
            "gm": self.graph_measures,
            "sm": self.semantic_models,
            "sme": self.semantic_measures,
            "ma": self.max_attributes,
        }
        if self.blocking is not None:
            # Only present when set, so pre-blocking cache keys (and
            # their on-disk corpora) stay valid.  Canonicalized so
            # equivalent spellings share a corpus.
            from repro.pipeline.blocking import canonical_blocking

            payload_dict["blocking"] = canonical_blocking(self.blocking)
        payload = json.dumps(payload_dict, sort_keys=True, default=list)
        import hashlib

        return hashlib.blake2b(
            payload.encode("utf-8"), digest_size=8
        ).hexdigest()


@dataclass
class GraphRecord:
    """One corpus entry: the graph plus its provenance.

    ``ground_truth`` is shared by all graphs of the same dataset.
    ``build_seconds`` is the total wall-clock of the entry;
    ``artifact_seconds`` (shared models/embeddings built on a cache
    miss), ``matrix_seconds`` (the measure itself) and
    ``graph_seconds`` (edges-to-graph conversion) attribute it per
    stage.  A warm artifact cache shows up as ``artifact_seconds == 0``.

    ``dedup_ratio`` is the fraction of cells the unique-universe kernel
    engine actually scored (``UniquePlan``/``SparsePlan.dedup_ratio``;
    1.0 for families outside the deduplicated string path) and
    ``candidate_reduction`` the dense-cells-per-candidate-pair factor
    of the blocking scheme (1.0 without blocking) — together the
    per-stage savings the progress line and runtime report surface.
    """

    graph: SimilarityGraph
    dataset: str
    family: str
    function: str
    category: str  # BLC / OSD / SCR
    ground_truth: set[tuple[int, int]]
    build_seconds: float = 0.0
    artifact_seconds: float = 0.0
    matrix_seconds: float = 0.0
    graph_seconds: float = 0.0
    dedup_ratio: float = 1.0
    candidate_reduction: float = 1.0

    @property
    def n_edges(self) -> int:
        return self.graph.n_edges


@dataclass
class DirtyGraphRecord:
    """One dirty-ER corpus entry: a self-join graph plus provenance.

    The graph is unipartite over the *union* collection (left profiles
    first, right profiles shifted by ``n_left``); ``ground_truth``
    holds the canonical ``(u, v)`` duplicate pairs in merged ids.
    Timing fields mirror :class:`GraphRecord`.
    """

    graph: UnipartiteGraph
    dataset: str
    family: str
    function: str
    category: str  # BLC / OSD / SCR
    ground_truth: set[tuple[int, int]]
    build_seconds: float = 0.0
    artifact_seconds: float = 0.0
    matrix_seconds: float = 0.0
    graph_seconds: float = 0.0
    dedup_ratio: float = 1.0
    candidate_reduction: float = 1.0

    @property
    def n_edges(self) -> int:
        return self.graph.n_edges


def generate_corpus(
    config: GraphCorpusConfig,
    cache_dir: str | Path | None = None,
    progress: bool = False,
    workers: int | None = None,
    artifact_store: str | Path | None = None,
    store_read_tier: str | Path | None = None,
    resume: bool = False,
    journal_dir: str | Path | None = None,
    policy: RetryPolicy | None = None,
    blocking: str | None = None,
    max_memory: int | None = None,
) -> list[GraphRecord]:
    """Generate (or load from cache) the graph corpus for ``config``.

    ``workers`` overrides ``config.workers``, ``artifact_store``
    overrides ``config.artifact_store`` and ``store_read_tier``
    overrides ``config.store_read_tier``; any combination produces
    the same corpus as a serial, store-less run.  ``blocking``
    overrides ``config.blocking`` — unlike the others it changes the
    produced corpus (and its cache key): similarity is computed only
    on the scheme's candidate pairs.  ``max_memory`` overrides
    ``config.max_memory``: generation runs through the sharded
    execution tier (shard-level pool tasks, spilled edges, parent-side
    merge) and the corpus stays bit-identical.

    Generation fans out through the shared fault-tolerant runner
    (:mod:`repro.pipeline.resilience`): failed groups retry with
    backoff, a broken pool respawns and resubmits only unfinished
    groups, and repeated pool deaths degrade to inline serial
    execution.  With ``journal_dir`` set (or ``resume=True``, which
    falls back to the default journal under ``REPRO_CACHE``), every
    completed group's records are committed to a
    :class:`~repro.pipeline.resilience.RunJournal` as they land;
    ``resume=True`` then skips journaled groups after an interruption
    and the assembled corpus is bit-identical to an uninterrupted run
    (graphs round-trip exactly through the npz codec).  The journal is
    cleared on success and on any non-resume start.
    """
    if artifact_store is not None:
        config = dataclasses.replace(
            config, artifact_store=str(artifact_store)
        )
    if store_read_tier is not None:
        config = dataclasses.replace(
            config, store_read_tier=str(store_read_tier)
        )
    if blocking is not None:
        config = dataclasses.replace(config, blocking=str(blocking))
    if max_memory is not None:
        config = dataclasses.replace(config, max_memory=int(max_memory))
    if config.blocking is not None:
        # Validate (and fail fast on) a bad spec before any generation.
        from repro.pipeline.blocking import canonical_blocking

        config = dataclasses.replace(
            config, blocking=canonical_blocking(config.blocking)
        )
    if cache_dir is not None:
        cache_dir = Path(cache_dir) / config.cache_key()
        manifest_path = cache_dir / _MANIFEST_NAME
        if manifest_path.exists():
            return _load_cached(cache_dir)

    n_workers = config.workers if workers is None else workers
    if config.max_memory is not None:
        records = _sharded_corpus_records(
            config,
            n_workers,
            progress=progress,
            resume=resume,
            journal_dir=journal_dir,
            policy=policy,
        )
        if cache_dir is not None:
            _store_cache(cache_dir, records, workers=n_workers)
        return records
    tasks = _corpus_tasks(config)
    journal = _make_run_journal(
        journal_dir, resume, f"corpus-{config.cache_key()}"
    )
    use_pool = n_workers > 1 and len(tasks) > 1
    # Serial over groups hands the workers budget to the pairwise
    # kernels instead (block-level threads; results invariant).
    threads = 1 if use_pool else max(n_workers, 1)
    runner = ResilientPool(
        n_workers if use_pool else 0,
        kind="process",
        policy=policy,
        journal=journal,
        codec=_CORPUS_JOURNAL_CODEC,
        label="corpus",
    )
    on_result = None
    if progress:
        # Stream each group as it finishes (possibly out of submission
        # order) so long parallel runs stay visible.
        def on_result(key, chunk):
            for record in chunk:
                _print_progress(record)

    chunks = runner.run(
        [
            Task(
                key=f"{index:03d}:{code}",
                fn=_group_worker,
                args=((config, code, group, threads),),
            )
            for index, (code, group) in enumerate(tasks)
        ],
        on_result=on_result,
    )
    records = [record for chunk in chunks.values() for record in chunk]

    if cache_dir is not None:
        _store_cache(cache_dir, records, workers=n_workers)
    if journal is not None:
        # The run landed (and, with a cache_dir, persisted): the
        # journal served its purpose.
        journal.clear()
    return records


def _generate(config: GraphCorpusConfig, code: str) -> CleanCleanDataset:
    return generate_dataset(
        dataset_spec(code, scale=config.scale, max_pairs=config.max_pairs),
        seed=config.seed,
    )


def _make_engine(
    config: GraphCorpusConfig, code: str, threads: int = 1
) -> SimilarityEngine:
    """An engine for one dataset, store-backed when configured."""
    store = None
    if config.artifact_store is not None:
        store = ArtifactStore(
            config.artifact_store, read_tier=config.store_read_tier
        )
    return SimilarityEngine(
        _generate(config, code),
        threads=threads,
        store=store,
        dataset_key=dataset_store_key(
            code, config.scale, config.max_pairs, config.seed
        ),
        blocking=config.blocking,
    )


def _corpus_tasks(
    config: GraphCorpusConfig,
) -> list[tuple[str, SpecGroup]]:
    """All ``(dataset code, spec group)`` units of work, in order."""
    tasks: list[tuple[str, SpecGroup]] = []
    for code in config.datasets:
        spec = dataset_spec(
            code, scale=config.scale, max_pairs=config.max_pairs
        )
        specs = enumerate_function_specs(spec, **_enumerate_kwargs(config))
        tasks.extend((code, group) for group in group_specs(specs))
    return tasks


def _enumerate_kwargs(config: GraphCorpusConfig) -> dict:
    kwargs: dict = {"families": config.families}
    if config.schema_based_measures is not None:
        kwargs["schema_based_measures"] = config.schema_based_measures
    if config.ngram_models is not None:
        kwargs["ngram_models"] = tuple(
            (unit, int(n)) for unit, n in config.ngram_models
        )
    if config.vector_measures is not None:
        kwargs["vector_measures"] = config.vector_measures
    if config.graph_measures is not None:
        kwargs["graph_measures"] = config.graph_measures
    if config.semantic_models is not None:
        kwargs["semantic_models"] = config.semantic_models
    if config.semantic_measures is not None:
        kwargs["semantic_measures"] = config.semantic_measures
    if config.max_attributes is not None:
        kwargs["max_attributes"] = config.max_attributes
    return kwargs


# Per-process memo of the last dataset/engine pair, so a pool worker
# handling consecutive groups of the same dataset regenerates nothing.
# Single-slot on purpose: it bounds worker memory to one dataset's
# artifacts regardless of how many datasets the corpus spans.
_WORKER_STATE: dict[tuple, SimilarityEngine] = {}


def _engine_memo_key(config: GraphCorpusConfig, code: str, threads: int):
    # cache_key() deliberately excludes the store/threads knobs (they
    # never change results), but the *engine object* differs with
    # them — the memo key must not conflate a store-backed engine with
    # a store-less one.
    return (
        config.cache_key(),
        code,
        threads,
        config.artifact_store,
        config.store_read_tier,
    )


def _group_worker(
    task: tuple[GraphCorpusConfig, str, SpecGroup, int],
) -> list[GraphRecord]:
    config, code, group, threads = task
    key = _engine_memo_key(config, code, threads)
    engine = _WORKER_STATE.get(key)
    if engine is None:
        # Workers share the persistent store directory (not the store
        # object): every write is atomic and write-once, so racing
        # workers building the same artifact are safe — the first
        # commit wins and the others discard (see repro.pipeline.store).
        engine = _make_engine(config, code, threads=threads)
        _WORKER_STATE.clear()
        _WORKER_STATE[key] = engine
    return _group_records(engine, group)


def _make_run_journal(
    journal_dir: str | Path | None, resume: bool, run_key: str
) -> RunJournal | None:
    """The corpus run journal, or ``None`` when journaling is off.

    Journaling activates when the caller names a directory or asks to
    resume (``resume`` without a directory uses the default journal
    under ``REPRO_CACHE``); a plain library call stays journal-free so
    tests and benches leave nothing behind.  A non-resume start clears
    any stale journal of the same run key first.
    """
    if journal_dir is None and not resume:
        return None
    root = (
        Path(journal_dir) if journal_dir is not None
        else default_journal_dir()
    )
    journal = RunJournal(root, run_key)
    if not resume:
        journal.clear()
    return journal


def _group_records(
    engine: SimilarityEngine, group: SpecGroup
) -> list[GraphRecord]:
    from repro.datasets.catalog import CATEGORY_BY_DATASET

    dataset = engine.dataset
    n_left, n_right = engine.shape()
    records: list[GraphRecord] = []
    results = engine.score(group.specs)
    for index, spec in enumerate(group.specs):
        scores, results[index] = results[index], None  # free as we go
        graph_start = time.perf_counter()
        graph = pairs_to_graph(
            n_left,
            n_right,
            *scores.edges,
            name=f"{dataset.code}:{spec.name}",
            metadata=_graph_metadata(dataset, spec, engine.blocking),
        )
        graph_seconds = time.perf_counter() - graph_start
        if _all_matches_zero(graph, dataset.ground_truth):
            # The paper removes graphs "where all matching entities had
            # a zero edge weight" — they carry no signal at all.
            continue
        records.append(
            GraphRecord(
                graph=graph,
                dataset=dataset.code,
                family=spec.family,
                function=spec.name,
                category=CATEGORY_BY_DATASET[dataset.code],
                ground_truth=dataset.ground_truth,
                build_seconds=(
                    scores.artifact_seconds + scores.score_seconds
                    + graph_seconds
                ),
                artifact_seconds=scores.artifact_seconds,
                matrix_seconds=scores.score_seconds,
                graph_seconds=graph_seconds,
                dedup_ratio=scores.dedup_ratio,
                candidate_reduction=scores.candidate_reduction,
            )
        )
    return records


def _graph_metadata(dataset, spec, blocking: str | None) -> dict:
    """Provenance metadata every corpus graph carries."""
    metadata = {
        "dataset": dataset.code,
        "family": spec.family,
        "function": spec.name,
    }
    if blocking is not None:
        metadata["blocking"] = blocking
    return metadata


def _print_progress(record: GraphRecord) -> None:
    # Dirty records share this printer but carry no savings fields.
    extras = ""
    dedup = getattr(record, "dedup_ratio", 1.0)
    reduction = getattr(record, "candidate_reduction", 1.0)
    if dedup != 1.0:
        extras += f" dedup={dedup:.2f}"
    if reduction != 1.0:
        extras += f" reduction={reduction:.1f}x"
    print(
        f"[workbench] {record.dataset} {record.function}: "
        f"m={record.n_edges} ({record.build_seconds:.2f}s = "
        f"{record.artifact_seconds:.2f}s artifacts + "
        f"{record.matrix_seconds:.2f}s matrix + "
        f"{record.graph_seconds:.2f}s graph)" + extras
    )


def _all_matches_zero(
    graph: SimilarityGraph, ground_truth: set[tuple[int, int]]
) -> bool:
    """True when no ground-truth pair appears among the graph's edges.

    Vectorized: edges and truth pairs are folded into scalar keys
    (``left * n_right + right``) and membership is one ``np.isin`` —
    no per-graph Python set over all ``m`` edges.
    """
    if not ground_truth or graph.n_edges == 0:
        return True
    truth = np.array(sorted(ground_truth), dtype=np.int64)
    stride = np.int64(graph.n_right)
    edge_keys = graph.left * stride + graph.right
    truth_keys = truth[:, 0] * stride + truth[:, 1]
    return not bool(np.isin(truth_keys, edge_keys).any())


# ----------------------------------------------------------------------
# Sharded generation: bounded-memory corpus runs (max_memory)
# ----------------------------------------------------------------------
def _sharded_corpus_records(
    config: GraphCorpusConfig,
    n_workers: int,
    progress: bool = False,
    resume: bool = False,
    journal_dir: str | Path | None = None,
    policy: RetryPolicy | None = None,
) -> list[GraphRecord]:
    """The corpus via the sharded execution tier.

    Every ``(dataset, spec group)`` unit expands into one pool task
    per shard of the dataset's :func:`~repro.pipeline.sharding.plan_for_dataset`
    plan, so the resilient runner's retry/resume machinery applies at
    shard granularity: a killed worker repeats one shard, not a whole
    group, and with a journal each finished shard's edges persist as
    an npz spill.  The parent concatenates shard edges in range order
    and builds every graph through
    :func:`~repro.pipeline.graph_builder.pairs_to_graph` — by the
    merge-determinism rules of :mod:`repro.pipeline.sharding` the
    result is bit-identical to the unsharded corpus, whatever the
    budget, shard count or worker count.
    """
    tasks = _corpus_tasks(config)
    datasets: dict[str, CleanCleanDataset] = {}
    plans: dict = {}
    for code, _ in tasks:
        if code not in plans:
            datasets[code] = _generate(config, code)
            plans[code] = plan_for_dataset(
                datasets[code],
                memory_budget=config.max_memory,
                blocking=config.blocking,
            )
    journal = _make_run_journal(
        journal_dir, resume, f"corpus-shards-{config.cache_key()}"
    )
    pool_tasks = []
    use_pool = n_workers > 1 and sum(
        plans[code].n_shards for code, _ in tasks
    ) > 1
    threads = 1 if use_pool else max(n_workers, 1)
    for index, (code, group) in enumerate(tasks):
        for shard, (start, stop) in enumerate(plans[code].ranges()):
            pool_tasks.append(
                Task(
                    key=f"{index:03d}:{code}:s{shard:03d}",
                    fn=_shard_group_worker,
                    args=((config, code, group, threads, start, stop),),
                )
            )
    runner = ResilientPool(
        n_workers if use_pool else 0,
        kind="process",
        policy=policy,
        journal=journal,
        codec=_SHARD_JOURNAL_CODEC,
        label="corpus-shards",
    )
    chunks = runner.run(pool_tasks)
    records: list[GraphRecord] = []
    for index, (code, group) in enumerate(tasks):
        payloads = [
            chunks[f"{index:03d}:{code}:s{shard:03d}"]
            for shard in range(plans[code].n_shards)
        ]
        records.extend(
            _merge_shard_records(
                config, group, datasets[code], plans[code], payloads,
                progress=progress,
            )
        )
    if journal is not None:
        journal.clear()
    return records


def _shard_group_worker(
    task: tuple[GraphCorpusConfig, str, SpecGroup, int, int, int],
) -> dict:
    """One shard of one spec group: raw edges, per-spec timings and the
    whole-dataset savings statistics the merged records carry."""
    config, code, group, threads, start, stop = task
    key = _engine_memo_key(config, code, threads)
    engine = _WORKER_STATE.get(key)
    if engine is None:
        engine = _make_engine(config, code, threads=threads)
        _WORKER_STATE.clear()
        _WORKER_STATE[key] = engine
    results = engine.score(group.specs, start, stop)
    return {
        "specs": [
            {
                "left": scores.left,
                "right": scores.right,
                "values": scores.values,
                "artifact_seconds": scores.artifact_seconds,
                "matrix_seconds": scores.score_seconds,
            }
            for scores in results
        ],
        "stats": [
            {
                "dedup_ratio": scores.dedup_ratio,
                "candidate_reduction": scores.candidate_reduction,
            }
            for scores in results
        ],
    }


def _merge_shard_records(
    config: GraphCorpusConfig,
    group: SpecGroup,
    dataset: CleanCleanDataset,
    plan,
    payloads: list[dict],
    progress: bool = False,
) -> list[GraphRecord]:
    """Merge one group's shard payloads into final :class:`GraphRecord`s.

    Mirrors :func:`_group_records` field for field: same graph names
    and metadata, same zero-evidence filter, same savings statistics —
    only the timing attribution differs (per-shard sums instead of one
    in-process measurement).
    """
    from repro.datasets.catalog import CATEGORY_BY_DATASET

    records: list[GraphRecord] = []
    stats = payloads[0]["stats"]
    for spec_index, spec in enumerate(group.specs):
        parts = [payload["specs"][spec_index] for payload in payloads]
        artifact_seconds = float(
            sum(part["artifact_seconds"] for part in parts)
        )
        matrix_seconds = float(
            sum(part["matrix_seconds"] for part in parts)
        )
        graph_start = time.perf_counter()
        graph = pairs_to_graph(
            plan.n_left,
            plan.n_right,
            np.concatenate([part["left"] for part in parts]),
            np.concatenate([part["right"] for part in parts]),
            np.concatenate([part["values"] for part in parts]),
            name=f"{dataset.code}:{spec.name}",
            metadata=_graph_metadata(dataset, spec, config.blocking),
        )
        graph_seconds = time.perf_counter() - graph_start
        if _all_matches_zero(graph, dataset.ground_truth):
            continue
        record = GraphRecord(
            graph=graph,
            dataset=dataset.code,
            family=spec.family,
            function=spec.name,
            category=CATEGORY_BY_DATASET[dataset.code],
            ground_truth=dataset.ground_truth,
            build_seconds=artifact_seconds + matrix_seconds + graph_seconds,
            artifact_seconds=artifact_seconds,
            matrix_seconds=matrix_seconds,
            graph_seconds=graph_seconds,
            dedup_ratio=stats[spec_index]["dedup_ratio"],
            candidate_reduction=stats[spec_index]["candidate_reduction"],
        )
        if progress:
            _print_progress(record)
        records.append(record)
    return records


def _record_meta(record, filename: str) -> dict:
    """One record's manifest/journal entry (everything but the graph)."""
    return {
        "file": filename,
        "dataset": record.dataset,
        "family": record.family,
        "function": record.function,
        "category": record.category,
        "build_seconds": record.build_seconds,
        "artifact_seconds": record.artifact_seconds,
        "matrix_seconds": record.matrix_seconds,
        "graph_seconds": record.graph_seconds,
        "dedup_ratio": record.dedup_ratio,
        "candidate_reduction": record.candidate_reduction,
    }


def _sharded_graph_writes(
    cache_dir: Path, records, filenames, save, workers: int
) -> None:
    """Write every record's graph file, thread-sharded when asked.

    ``np.savez_compressed`` spends its time in zlib, which releases
    the GIL, so the writes thread well; the resilient runner retries a
    transiently failed write instead of crashing the whole store step.
    """
    if workers > 1 and len(records) > 1:
        writer = ResilientPool(workers, kind="thread", label="corpus-cache")
        writer.run(
            [
                Task(key=filename, fn=save, args=(record.graph,
                                                  cache_dir / filename))
                for record, filename in zip(records, filenames)
            ]
        )
    else:
        for record, filename in zip(records, filenames):
            save(record.graph, cache_dir / filename)


def _store_cache(
    cache_dir: Path, records: list[GraphRecord], workers: int = 1
) -> None:
    """Persist the corpus: sharded graph writes, then the manifest.

    Filenames follow the deterministic record order, so the graph
    files can be written in any order (and, with ``workers > 1``, by a
    thread pool).  The manifest is written only after every graph file
    landed, keeping a crashed run invisible to :func:`_load_cached`.
    """
    cache_dir.mkdir(parents=True, exist_ok=True)
    filenames = [f"graph_{index:04d}.npz" for index in range(len(records))]
    _sharded_graph_writes(cache_dir, records, filenames, save_graph, workers)
    # Ground truth is identical for every graph of a dataset; store it
    # once per dataset instead of once per graph (the v1 format's
    # per-entry copies dominated the manifest size).
    ground_truth: dict[str, list] = {}
    graphs = []
    for record, filename in zip(records, filenames):
        if record.dataset not in ground_truth:
            ground_truth[record.dataset] = sorted(record.ground_truth)
        graphs.append(_record_meta(record, filename))
    manifest = {
        "version": _MANIFEST_VERSION,
        "ground_truth": ground_truth,
        "graphs": graphs,
    }
    (cache_dir / _MANIFEST_NAME).write_text(json.dumps(manifest))


def _load_cached(cache_dir: Path) -> list[GraphRecord]:
    manifest = json.loads((cache_dir / _MANIFEST_NAME).read_text())
    if isinstance(manifest, list):
        # v1 manifests carried a full ground-truth copy per entry.
        entries = manifest
        shared_truth: dict[str, set[tuple[int, int]]] = {}
        for entry in entries:
            if entry["dataset"] not in shared_truth:
                shared_truth[entry["dataset"]] = {
                    tuple(pair) for pair in entry["ground_truth"]
                }
    else:
        entries = manifest["graphs"]
        shared_truth = {
            code: {tuple(pair) for pair in pairs}
            for code, pairs in manifest["ground_truth"].items()
        }
    records = []
    for entry in entries:
        graph = load_graph(cache_dir / entry["file"])
        records.append(
            GraphRecord(
                graph=graph,
                dataset=entry["dataset"],
                family=entry["family"],
                function=entry["function"],
                category=entry["category"],
                ground_truth=shared_truth[entry["dataset"]],
                build_seconds=entry["build_seconds"],
                artifact_seconds=entry.get("artifact_seconds", 0.0),
                matrix_seconds=entry.get("matrix_seconds", 0.0),
                graph_seconds=entry.get("graph_seconds", 0.0),
                dedup_ratio=entry.get("dedup_ratio", 1.0),
                candidate_reduction=entry.get("candidate_reduction", 1.0),
            )
        )
    return records


# ----------------------------------------------------------------------
# Run-journal codecs: one generation group's records as one entry
# ----------------------------------------------------------------------
def _write_record_chunk(chunk, path: Path, save) -> None:
    """Journal one group's records: per-record graph files plus a
    ``records.json`` (same meta/ground-truth layout as the corpus
    manifest, so the round-trip shares the manifest's bit-identity
    guarantees)."""
    ground_truth: dict[str, list] = {}
    graphs = []
    for index, record in enumerate(chunk):
        filename = f"graph_{index:03d}.npz"
        save(record.graph, path / filename)
        if record.dataset not in ground_truth:
            ground_truth[record.dataset] = sorted(record.ground_truth)
        graphs.append(_record_meta(record, filename))
    (path / "records.json").write_text(
        json.dumps({"ground_truth": ground_truth, "graphs": graphs})
    )


def _read_record_chunk(path: Path, load, cls) -> list:
    payload = json.loads((path / "records.json").read_text())
    shared_truth = {
        code: {tuple(pair) for pair in pairs}
        for code, pairs in payload["ground_truth"].items()
    }
    return [
        cls(
            graph=load(path / entry["file"]),
            dataset=entry["dataset"],
            family=entry["family"],
            function=entry["function"],
            category=entry["category"],
            ground_truth=shared_truth[entry["dataset"]],
            build_seconds=entry["build_seconds"],
            artifact_seconds=entry["artifact_seconds"],
            matrix_seconds=entry["matrix_seconds"],
            graph_seconds=entry["graph_seconds"],
            dedup_ratio=entry.get("dedup_ratio", 1.0),
            candidate_reduction=entry.get("candidate_reduction", 1.0),
        )
        for entry in payload["graphs"]
    ]


def _write_corpus_entry(chunk, path: Path) -> None:
    _write_record_chunk(chunk, path, save_graph)


def _read_corpus_entry(path: Path) -> list[GraphRecord]:
    return _read_record_chunk(path, load_graph, GraphRecord)


def _write_dirty_entry(chunk, path: Path) -> None:
    _write_record_chunk(chunk, path, save_unipartite_graph)


def _read_dirty_entry(path: Path) -> list[DirtyGraphRecord]:
    return _read_record_chunk(path, load_unipartite_graph, DirtyGraphRecord)


def _write_shard_entry(payload: dict, path: Path) -> None:
    """Journal one shard task: an npz edge spill plus a ``shard.json``
    with the timings and (on the stats shard) savings statistics.  The
    arrays round-trip bit-exactly through the uncompressed npz, so a
    resumed run merges the same corpus as an uninterrupted one."""
    arrays = {}
    meta = {"specs": [], "stats": payload["stats"]}
    for index, spec in enumerate(payload["specs"]):
        arrays[f"left_{index}"] = np.asarray(spec["left"], dtype=np.int64)
        arrays[f"right_{index}"] = np.asarray(spec["right"], dtype=np.int64)
        arrays[f"values_{index}"] = np.asarray(
            spec["values"], dtype=np.float64
        )
        meta["specs"].append(
            {
                "artifact_seconds": spec["artifact_seconds"],
                "matrix_seconds": spec["matrix_seconds"],
            }
        )
    np.savez(path / "edges.npz", **arrays)
    (path / "shard.json").write_text(json.dumps(meta))


def _read_shard_entry(path: Path) -> dict:
    meta = json.loads((path / "shard.json").read_text())
    with np.load(path / "edges.npz") as arrays:
        specs = [
            {
                "left": arrays[f"left_{index}"],
                "right": arrays[f"right_{index}"],
                "values": arrays[f"values_{index}"],
                **entry,
            }
            for index, entry in enumerate(meta["specs"])
        ]
    return {"specs": specs, "stats": meta["stats"]}


_CORPUS_JOURNAL_CODEC = JournalCodec(
    write=_write_corpus_entry, read=_read_corpus_entry
)
_DIRTY_JOURNAL_CODEC = JournalCodec(
    write=_write_dirty_entry, read=_read_dirty_entry
)
_SHARD_JOURNAL_CODEC = JournalCodec(
    write=_write_shard_entry, read=_read_shard_entry
)


# ======================================================================
# Dirty-ER corpus mode: self-join similarity graphs
# ======================================================================
def _self_join_dataset(dataset: CleanCleanDataset) -> CleanCleanDataset:
    """The dirty-ER view of a Clean-Clean dataset: the union collection
    joined with itself.

    Both "sides" are the same union collection (left profiles first,
    right profiles shifted by ``n_left``), so the similarity engine —
    artifact cache, kernel engine, persistent store and all — computes
    the full self-join matrix without knowing it is a self join.  The
    merged ground truth is the original cross-collection duplicate set
    in merged ids (always canonical: ``i < n_left <= n_left + j``).
    """
    import dataclasses as _dataclasses

    n_left = len(dataset.left)
    union = EntityCollection(
        f"{dataset.code}-union",
        list(dataset.left.profiles) + list(dataset.right.profiles),
    )
    truth = {(i, n_left + j) for i, j in dataset.ground_truth}
    spec = _dataclasses.replace(
        dataset.spec,
        code=_self_join_code(dataset.code),
        n_left=len(union),
        n_right=len(union),
        n_duplicates=len(truth),
    )
    return CleanCleanDataset(
        spec=spec, left=union, right=union, ground_truth=truth
    )


def _self_join_code(code: str) -> str:
    """Store/dataset identity of the self-join view — distinct from the
    bipartite dataset, so their artifacts never share a store key."""
    return f"{code}+self"


def _make_dirty_engine(
    config: GraphCorpusConfig, code: str, threads: int = 1
) -> SimilarityEngine:
    """An engine over the self-join dataset, store-backed when configured."""
    store = None
    if config.artifact_store is not None:
        store = ArtifactStore(
            config.artifact_store, read_tier=config.store_read_tier
        )
    return SimilarityEngine(
        _self_join_dataset(_generate(config, code)),
        threads=threads,
        store=store,
        dataset_key=dataset_store_key(
            _self_join_code(code), config.scale, config.max_pairs, config.seed
        ),
        blocking=config.blocking,
    )


def generate_dirty_corpus(
    config: GraphCorpusConfig,
    cache_dir: str | Path | None = None,
    progress: bool = False,
    workers: int | None = None,
    artifact_store: str | Path | None = None,
    store_read_tier: str | Path | None = None,
    resume: bool = False,
    journal_dir: str | Path | None = None,
    policy: RetryPolicy | None = None,
    blocking: str | None = None,
) -> list[DirtyGraphRecord]:
    """Generate (or load from cache) the dirty-ER self-join corpus.

    Mirrors :func:`generate_corpus` one workload over: the same spec
    taxonomy is evaluated on the *union* collection joined with
    itself, and each matrix's strict upper triangle becomes a
    :class:`~repro.graph.unipartite.UnipartiteGraph` for the
    clustering algorithms of :mod:`repro.extensions.dirty_er`.
    ``workers`` and ``artifact_store`` behave exactly as in
    :func:`generate_corpus`: wall-clock only, never results.
    ``resume`` / ``journal_dir`` / ``policy`` are the resilience knobs
    of :func:`generate_corpus`, under the ``dirty-`` run key.
    ``blocking`` mirrors the clean-clean semantics over the self join:
    candidates are generated union-against-union and only upper-triangle
    (``u < v``) candidate pairs become edges, so the scheme changes the
    corpus (and its cache key) exactly as in :func:`generate_corpus`.
    The ``max_memory`` shard tier is a bipartite-corpus feature; a
    config carrying one is rejected here.
    """
    if config.max_memory is not None:
        raise ValueError(
            "max_memory sharding is not supported for the dirty-ER "
            "self-join corpus yet; drop the budget or run the "
            "bipartite corpus"
        )
    if artifact_store is not None:
        config = dataclasses.replace(
            config, artifact_store=str(artifact_store)
        )
    if store_read_tier is not None:
        config = dataclasses.replace(
            config, store_read_tier=str(store_read_tier)
        )
    if blocking is not None:
        config = dataclasses.replace(config, blocking=str(blocking))
    if config.blocking is not None:
        from repro.pipeline.blocking import canonical_blocking

        config = dataclasses.replace(
            config, blocking=canonical_blocking(config.blocking)
        )
    if cache_dir is not None:
        cache_dir = Path(cache_dir) / f"dirty_{config.cache_key()}"
        manifest_path = cache_dir / _MANIFEST_NAME
        if manifest_path.exists():
            return _load_dirty_cached(cache_dir)

    n_workers = config.workers if workers is None else workers
    tasks = _corpus_tasks(config)
    journal = _make_run_journal(
        journal_dir, resume, f"dirty-{config.cache_key()}"
    )
    use_pool = n_workers > 1 and len(tasks) > 1
    threads = 1 if use_pool else max(n_workers, 1)
    runner = ResilientPool(
        n_workers if use_pool else 0,
        kind="process",
        policy=policy,
        journal=journal,
        codec=_DIRTY_JOURNAL_CODEC,
        label="dirty-corpus",
    )
    on_result = None
    if progress:

        def on_result(key, chunk):
            for record in chunk:
                _print_progress(record)

    chunks = runner.run(
        [
            Task(
                key=f"{index:03d}:{code}",
                fn=_dirty_group_worker,
                args=((config, code, group, threads),),
            )
            for index, (code, group) in enumerate(tasks)
        ],
        on_result=on_result,
    )
    records = [record for chunk in chunks.values() for record in chunk]

    if cache_dir is not None:
        _store_dirty_cache(cache_dir, records, workers=n_workers)
    if journal is not None:
        journal.clear()
    return records


def _dirty_group_worker(
    task: tuple[GraphCorpusConfig, str, SpecGroup, int],
) -> list[DirtyGraphRecord]:
    config, code, group, threads = task
    key = _engine_memo_key(config, _self_join_code(code), threads)
    engine = _WORKER_STATE.get(key)
    if engine is None:
        engine = _make_dirty_engine(config, code, threads=threads)
        _WORKER_STATE.clear()
        _WORKER_STATE[key] = engine
    return _dirty_group_records(engine, group, code)


def _dirty_group_records(
    engine: SimilarityEngine,
    group: SpecGroup,
    base_code: str,
) -> list[DirtyGraphRecord]:
    from repro.datasets.catalog import CATEGORY_BY_DATASET

    dataset = engine.dataset
    records: list[DirtyGraphRecord] = []
    results = engine.score(group.specs)
    for index, spec in enumerate(group.specs):
        scores, results[index] = results[index], None  # free as we go
        graph_start = time.perf_counter()
        # The clean-clean semantics over the self join: only the strict
        # upper triangle survives (the diagonal and mirrored duplicates
        # drop in pairs_to_unipartite_graph), dense or blocked alike.
        graph = pairs_to_unipartite_graph(
            len(dataset.left),
            *scores.edges,
            name=f"{dataset.code}:{spec.name}",
            metadata=_graph_metadata(dataset, spec, engine.blocking),
        )
        graph_seconds = time.perf_counter() - graph_start
        if _all_dirty_matches_zero(graph, dataset.ground_truth):
            continue
        records.append(
            DirtyGraphRecord(
                graph=graph,
                dataset=dataset.code,
                family=spec.family,
                function=spec.name,
                category=CATEGORY_BY_DATASET[base_code],
                ground_truth=dataset.ground_truth,
                build_seconds=(
                    scores.artifact_seconds + scores.score_seconds
                    + graph_seconds
                ),
                artifact_seconds=scores.artifact_seconds,
                matrix_seconds=scores.score_seconds,
                graph_seconds=graph_seconds,
                dedup_ratio=scores.dedup_ratio,
                candidate_reduction=scores.candidate_reduction,
            )
        )
    return records


def _all_dirty_matches_zero(
    graph: UnipartiteGraph, ground_truth: set[tuple[int, int]]
) -> bool:
    """Dirty counterpart of :func:`_all_matches_zero` (merged-id pairs)."""
    if not ground_truth or graph.n_edges == 0:
        return True
    truth = np.array(sorted(ground_truth), dtype=np.int64)
    stride = np.int64(graph.n_nodes)
    edge_keys = graph.u * stride + graph.v
    truth_keys = truth[:, 0] * stride + truth[:, 1]
    return not bool(np.isin(truth_keys, edge_keys).any())


def _store_dirty_cache(
    cache_dir: Path, records: list[DirtyGraphRecord], workers: int = 1
) -> None:
    """Persist the dirty corpus; same layout discipline as
    :func:`_store_cache` (sharded graph writes, manifest last)."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    filenames = [f"graph_{index:04d}.npz" for index in range(len(records))]
    _sharded_graph_writes(
        cache_dir, records, filenames, save_unipartite_graph, workers
    )
    ground_truth: dict[str, list] = {}
    graphs = []
    for record, filename in zip(records, filenames):
        if record.dataset not in ground_truth:
            ground_truth[record.dataset] = sorted(record.ground_truth)
        graphs.append(_record_meta(record, filename))
    manifest = {
        "version": _DIRTY_MANIFEST_VERSION,
        "kind": "dirty",
        "ground_truth": ground_truth,
        "graphs": graphs,
    }
    (cache_dir / _MANIFEST_NAME).write_text(json.dumps(manifest))


def _load_dirty_cached(cache_dir: Path) -> list[DirtyGraphRecord]:
    manifest = json.loads((cache_dir / _MANIFEST_NAME).read_text())
    shared_truth = {
        code: {tuple(pair) for pair in pairs}
        for code, pairs in manifest["ground_truth"].items()
    }
    records = []
    for entry in manifest["graphs"]:
        graph = load_unipartite_graph(cache_dir / entry["file"])
        records.append(
            DirtyGraphRecord(
                graph=graph,
                dataset=entry["dataset"],
                family=entry["family"],
                function=entry["function"],
                category=entry["category"],
                ground_truth=shared_truth[entry["dataset"]],
                build_seconds=entry["build_seconds"],
                artifact_seconds=entry.get("artifact_seconds", 0.0),
                matrix_seconds=entry.get("matrix_seconds", 0.0),
                graph_seconds=entry.get("graph_seconds", 0.0),
                dedup_ratio=entry.get("dedup_ratio", 1.0),
                candidate_reduction=entry.get("candidate_reduction", 1.0),
            )
        )
    return records
