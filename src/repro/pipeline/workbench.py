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
(``GraphCorpusConfig.artifact_store``, ``repro corpus
--artifact-store PATH``) the cache extends across runs: embeddings,
token matrices and entity graphs land in a persistent
content-addressed :class:`~repro.pipeline.store.ArtifactStore` keyed
by the generated dataset's identity, so corpus configs that share a
dataset reuse each other's intermediates — warm or cold, the corpus
stays bit-identical.

One executor runs every corpus.  Each group fans out one pool task
per row range of its dataset: the whole range, or with ``max_memory``
set the ranges of the dataset's shard plan
(:mod:`repro.pipeline.sharding`).  A task makes one
:meth:`~repro.pipeline.engine.SimilarityEngine.score` call over its
rows; the parent merges a group's shards in range order
(:func:`concat_scores`) and builds its records as soon as the last
one lands.  With ``workers > 1`` the tasks are distributed over a
process pool, unless the corpus is a single task, which runs in the
parent.  The cache write path is sharded under the same knob:
``graph_*.npz`` files are written by a thread pool instead of
serially in the parent (file compression releases the GIL), with the
manifest written only after every graph file landed.  In every case
the result (records, order, cache key) is identical to the serial
run — parallelism only changes wall-clock.  Every fan-out (shards
and cache writes alike) runs on the shared fault-tolerant runner of
:mod:`repro.pipeline.resilience`: failed shards retry with backoff,
broken pools respawn, and with ``resume``/``journal_dir`` finished
shards journal their raw edges to disk so an interrupted generation
resumes bit-identically.

The paper also removes degenerate inputs ("special care was taken to
clean the experimental results from noise"); the corresponding filters
live in :mod:`repro.evaluation.filtering` and are applied at analysis
time, with the zero-evidence filter (all matching pairs at weight 0)
applied already at generation time here.

One pipeline builds every corpus kind.  A :class:`CorpusKind` value
holds the only decisions two kinds differ on — the dataset view the
engine joins, the graph built from its scored pairs and the on-disk
names — and everything else (record, generator, executor, cache
layer, journal codec, and the graph file codec of
:mod:`repro.graph.io`, which reads either graph kind) exists once.
:data:`BIPARTITE` is the paper's Clean-Clean corpus
(:func:`generate_corpus`).  :data:`SELF_JOIN` is the dirty-ER corpus
(:func:`generate_dirty_corpus`): each dataset's union collection is
joined with itself through the ordinary engine/store stack (self-join
artifacts carry a ``+self`` dataset identity) and every strict upper
triangle becomes a :class:`~repro.graph.unipartite.UnipartiteGraph`
for the clustering algorithms of :mod:`repro.extensions.dirty_er`.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
import zipfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.datasets.catalog import DATASET_CODES, dataset_spec
from repro.datasets.generator import CleanCleanDataset, generate_dataset
from repro.datasets.profile import EntityCollection
from repro.graph.bipartite import SimilarityGraph
from repro.graph.io import load_graph, save_graph
from repro.graph.unipartite import UnipartiteGraph, pairs_to_unipartite_graph
from repro.pipeline.engine import (
    SimilarityEngine,
    SpecGroup,
    SpecScores,
    group_specs,
)
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
from repro.pipeline.store import (
    ArtifactStore,
    atomic_write,
    dataset_store_key,
    quarantine_file,
)

__all__ = [
    "BIPARTITE",
    "SELF_JOIN",
    "CorpusKind",
    "GraphCorpusConfig",
    "GraphRecord",
    "concat_scores",
    "generate_corpus",
    "generate_dirty_corpus",
]

_MANIFEST_NAME = "manifest.json"


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
    only decides the row ranges a corpus run scores as separate pool
    tasks: unset, each dataset is one whole-range shard; set, its row
    space splits into the budget-sized shards of
    :mod:`repro.pipeline.sharding`.  The shards merge bit-identically
    to the one-shard corpus — like the worker/store knobs it bounds
    resources without changing results, so it too is excluded from
    :meth:`cache_key`.
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

    ``graph`` is a :class:`~repro.graph.bipartite.SimilarityGraph` in
    a bipartite corpus and a
    :class:`~repro.graph.unipartite.UnipartiteGraph` in a self-join
    one (nodes are the union collection, left profiles first, right
    profiles shifted by ``n_left``; ``ground_truth`` then holds the
    canonical ``(u, v)`` duplicate pairs in merged ids).

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

    graph: SimilarityGraph | UnipartiteGraph
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


# ----------------------------------------------------------------------
# Corpus kinds
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CorpusKind:
    """The decisions that tell one corpus kind from another.

    ``view`` maps a generated dataset to the one the engine joins; its
    ``code`` is the artifact-store identity.  ``build_graph`` turns one
    spec's scored pairs of that view into a graph.  ``cache_prefix``
    and ``manifest_header`` fix the corpus cache directory name and
    manifest head; ``label`` prefixes journal run keys and pool
    labels.  The graphs themselves carry everything else a kind could
    differ on: their edge endpoints and node counts, and the file
    header :mod:`repro.graph.io` writes and reads back.

    Kinds travel to pool workers inside task arguments, so every field
    is a module-level function or a constant.
    """

    view: Callable[[CleanCleanDataset], CleanCleanDataset]
    build_graph: Callable[..., SimilarityGraph | UnipartiteGraph]
    cache_prefix: str
    manifest_header: tuple[tuple[str, object], ...]
    label: str


def _as_is(dataset: CleanCleanDataset) -> CleanCleanDataset:
    return dataset


def _bipartite_graph(dataset, left, right, values, **kwargs):
    return pairs_to_graph(
        len(dataset.left), len(dataset.right), left, right, values, **kwargs
    )


def _self_join_dataset(dataset: CleanCleanDataset) -> CleanCleanDataset:
    """The dirty-ER view of a Clean-Clean dataset: the union collection
    joined with itself.

    Both "sides" are the same union collection (left profiles first,
    right profiles shifted by ``n_left``), so the similarity engine —
    artifact cache, kernel engine, persistent store and all — computes
    the full self-join matrix without knowing it is a self join.  The
    merged ground truth is the original cross-collection duplicate set
    in merged ids (always canonical: ``i < n_left <= n_left + j``).
    The ``+self`` code keeps its store identity distinct from the
    bipartite dataset's.
    """
    n_left = len(dataset.left)
    union = EntityCollection(
        f"{dataset.code}-union",
        list(dataset.left.profiles) + list(dataset.right.profiles),
    )
    truth = {(i, n_left + j) for i, j in dataset.ground_truth}
    spec = dataclasses.replace(
        dataset.spec,
        code=f"{dataset.code}+self",
        n_left=len(union),
        n_right=len(union),
        n_duplicates=len(truth),
    )
    return CleanCleanDataset(
        spec=spec, left=union, right=union, ground_truth=truth
    )


def _self_join_graph(dataset, u, v, values, **kwargs):
    # The clean-clean semantics over the self join: only the strict
    # upper triangle survives (the diagonal and mirrored duplicates
    # drop in pairs_to_unipartite_graph), dense or blocked alike.
    return pairs_to_unipartite_graph(len(dataset.left), u, v, values, **kwargs)


#: The paper's Clean-Clean corpus: left collection against right.
BIPARTITE = CorpusKind(
    view=_as_is,
    build_graph=_bipartite_graph,
    cache_prefix="",
    manifest_header=(("version", 2),),
    label="corpus",
)

#: The dirty-ER corpus: each dataset's union collection against itself.
SELF_JOIN = CorpusKind(
    view=_self_join_dataset,
    build_graph=_self_join_graph,
    cache_prefix="dirty_",
    manifest_header=(("version", 1), ("kind", "dirty")),
    label="dirty",
)


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------
def generate_corpus(
    config: GraphCorpusConfig,
    cache_dir: str | Path | None = None,
    progress: bool = False,
    resume: bool = False,
    journal_dir: str | Path | None = None,
    policy: RetryPolicy | None = None,
) -> list[GraphRecord]:
    """Generate (or load from cache) the graph corpus for ``config``.

    Every run setting lives on ``config`` (pass
    ``dataclasses.replace(config, workers=4)`` to change one):
    ``workers``, ``artifact_store``, ``store_read_tier`` and
    ``max_memory`` (the sharded execution tier) only change
    wall-clock and memory, and any combination produces the same
    corpus as a serial, store-less, unsharded run.  ``blocking``
    changes the produced corpus (and its cache key): similarity is
    computed only on the scheme's candidate pairs.

    Generation fans out one task per shard (one whole-range shard per
    spec group unless ``max_memory`` is set) through the shared
    fault-tolerant runner (:mod:`repro.pipeline.resilience`): failed
    shards retry with backoff, a broken pool respawns and resubmits
    only unfinished shards, and repeated pool deaths degrade to inline
    serial execution.  With ``journal_dir`` set (or ``resume=True``,
    which falls back to the default journal under ``REPRO_CACHE``),
    every finished shard's raw edges are committed to a
    :class:`~repro.pipeline.resilience.RunJournal` under the run key
    ``corpus-<cache key>`` as they land; ``resume=True`` then skips
    journaled shards after an interruption and the assembled corpus is
    bit-identical to an uninterrupted run (edges round-trip exactly
    through the npz codec).  The journal is cleared on success and on
    any non-resume start.
    """
    return _generate_kind(
        BIPARTITE, config, cache_dir, progress, resume, journal_dir, policy
    )


def generate_dirty_corpus(
    config: GraphCorpusConfig,
    cache_dir: str | Path | None = None,
    progress: bool = False,
    resume: bool = False,
    journal_dir: str | Path | None = None,
    policy: RetryPolicy | None = None,
) -> list[GraphRecord]:
    """Generate (or load from cache) the dirty-ER self-join corpus.

    :func:`generate_corpus` over :data:`SELF_JOIN`: the same spec
    taxonomy is evaluated on the *union* collection joined with
    itself, and each spec's strict upper triangle becomes a
    :class:`~repro.graph.unipartite.UnipartiteGraph` for the
    clustering algorithms of :mod:`repro.extensions.dirty_er`.  Every
    argument behaves as in :func:`generate_corpus`, under the
    ``dirty_`` cache directory and ``dirty-`` journal run keys.
    ``config.blocking`` generates candidates union-against-union and
    only upper-triangle (``u < v``) candidate pairs become edges, so
    the scheme changes the corpus (and its cache key) exactly as in
    :func:`generate_corpus`; ``config.max_memory`` splits each
    dataset into row-range shards, bit-identical to the one-shard
    corpus.
    """
    return _generate_kind(
        SELF_JOIN, config, cache_dir, progress, resume, journal_dir, policy
    )


def _generate_kind(
    kind: CorpusKind,
    config: GraphCorpusConfig,
    cache_dir: str | Path | None,
    progress: bool,
    resume: bool,
    journal_dir: str | Path | None,
    policy: RetryPolicy | None,
) -> list[GraphRecord]:
    """The one generator body behind every corpus kind."""
    if config.blocking is not None:
        # Validate (and fail fast on) a bad spec before any generation.
        from repro.pipeline.blocking import canonical_blocking

        config = dataclasses.replace(
            config, blocking=canonical_blocking(config.blocking)
        )
    if cache_dir is not None:
        cache_dir = Path(cache_dir) / (
            kind.cache_prefix + config.cache_key()
        )
        if (cache_dir / _MANIFEST_NAME).exists():
            records = _load_cached(cache_dir)
            if records is not None:
                return records

    journal = _make_run_journal(
        journal_dir, resume, f"{kind.label}-{config.cache_key()}"
    )
    records = _corpus_records(
        kind, config, _corpus_tasks(config), journal, policy, progress
    )
    if cache_dir is not None:
        _store_cache(cache_dir, records, kind, workers=config.workers)
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


# Per-process memo of the last dataset/engine pair, so a pool worker
# handling consecutive shards of the same dataset regenerates
# nothing.  Single-slot on purpose: it bounds worker memory to one
# dataset's artifacts regardless of how many datasets the corpus
# spans.
_WORKER_STATE: dict[tuple, SimilarityEngine] = {}


def _engine(
    config: GraphCorpusConfig,
    kind: CorpusKind,
    code: str,
    dataset: CleanCleanDataset | None = None,
) -> SimilarityEngine:
    """The memoized engine over ``kind``'s view of dataset ``code``,
    store-backed when configured.  ``dataset`` is that view when the
    caller already holds it; otherwise a miss generates it."""
    # cache_key() deliberately excludes the store knobs (they never
    # change results), but the *engine object* differs with them — the
    # memo key must not conflate a store-backed engine with a
    # store-less one.
    key = (
        config.cache_key(),
        kind,
        code,
        config.artifact_store,
        config.store_read_tier,
    )
    engine = _WORKER_STATE.get(key)
    if engine is None:
        # Workers share the persistent store directory (not the store
        # object): every write is atomic and write-once, so racing
        # workers building the same artifact are safe — the first
        # commit wins and the others discard (see repro.pipeline.store).
        store = None
        if config.artifact_store is not None:
            store = ArtifactStore(
                config.artifact_store, read_tier=config.store_read_tier
            )
        if dataset is None:
            dataset = kind.view(_generate(config, code))
        engine = SimilarityEngine(
            dataset,
            store=store,
            dataset_key=dataset_store_key(
                dataset.code, config.scale, config.max_pairs, config.seed
            ),
            blocking=config.blocking,
        )
        _WORKER_STATE.clear()
        _WORKER_STATE[key] = engine
    return engine


def _records(
    kind: CorpusKind,
    dataset: CleanCleanDataset,
    code: str,
    blocking: str | None,
    specs,
    results: list[SpecScores],
) -> list[GraphRecord]:
    """One spec group's corpus records from its per-spec scores.

    The one record builder: ``results`` is the range-ordered merge of
    the group's shards (one whole-range shard when ``max_memory`` is
    unset).  ``dataset`` is ``kind``'s view of catalog dataset
    ``code``.  Consumes ``results`` as it goes.
    """
    from repro.datasets.catalog import CATEGORY_BY_DATASET

    records: list[GraphRecord] = []
    for index, spec in enumerate(specs):
        scores, results[index] = results[index], None  # free as we go
        graph_start = time.perf_counter()
        graph = kind.build_graph(
            dataset,
            *scores.edges,
            name=f"{dataset.code}:{spec.name}",
            metadata=_graph_metadata(dataset, spec, blocking),
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
                category=CATEGORY_BY_DATASET[code],
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
    extras = ""
    if record.dedup_ratio != 1.0:
        extras += f" dedup={record.dedup_ratio:.2f}"
    if record.candidate_reduction != 1.0:
        extras += f" reduction={record.candidate_reduction:.1f}x"
    print(
        f"[workbench] {record.dataset} {record.function}: "
        f"m={record.n_edges} ({record.build_seconds:.2f}s = "
        f"{record.artifact_seconds:.2f}s artifacts + "
        f"{record.matrix_seconds:.2f}s matrix + "
        f"{record.graph_seconds:.2f}s graph)" + extras
    )


def _all_matches_zero(graph, ground_truth: set[tuple[int, int]]) -> bool:
    """True when no ground-truth pair appears among the graph's edges.

    Vectorized: edges and truth pairs are folded into scalar keys
    (``a * stride + b`` over the graph's endpoint arrays, the stride
    being the node count of the second endpoint) and membership is one
    ``np.isin`` — no per-graph Python set over all ``m`` edges.
    """
    if not ground_truth or graph.n_edges == 0:
        return True
    a, b = graph.ends()
    truth = np.array(sorted(ground_truth), dtype=np.int64)
    stride = np.int64(graph.sizes[-1])
    edge_keys = a * stride + b
    truth_keys = truth[:, 0] * stride + truth[:, 1]
    return not bool(np.isin(truth_keys, edge_keys).any())


# ----------------------------------------------------------------------
# The executor: one pool task per row range of every spec group
# ----------------------------------------------------------------------
def _corpus_records(
    kind: CorpusKind,
    config: GraphCorpusConfig,
    tasks: list[tuple[str, SpecGroup]],
    journal: RunJournal | None,
    policy: RetryPolicy | None,
    progress: bool,
) -> list[GraphRecord]:
    """The corpus: one pool task per row range (:func:`_row_ranges`)
    of every ``(dataset, spec group)`` unit, retried and journaled at
    shard granularity.

    Task keys name the shard's row range: ``max_memory`` is in neither
    the cache key nor the journal run key, so a resume under another
    budget reuses only the shards whose ranges it plans again.  The
    parent builds a group's records as soon as its last shard lands
    and then lets the raw edges go; groups served from the journal are
    built after the run.  A serial run hands the parent's dataset
    views to its inline tasks, so each is generated once, and drops a
    view once its last group is built.
    """
    datasets = {
        code: kind.view(_generate(config, code))
        for code in dict.fromkeys(code for code, _ in tasks)
    }
    ranges = {
        code: _row_ranges(config, dataset)
        for code, dataset in datasets.items()
    }
    keys = [
        [
            f"{index:03d}:{code}:s{shard:03d}:r{start}-{stop}"
            for shard, (start, stop) in enumerate(ranges[code])
        ]
        for index, (code, _) in enumerate(tasks)
    ]
    n_workers = config.workers
    use_pool = n_workers > 1 and sum(map(len, keys)) > 1
    views = None if use_pool else datasets
    pool_tasks = [
        Task(
            key=key,
            fn=_shard_worker,
            args=(config, kind, code, group, start, stop, views),
        )
        for (code, group), group_keys in zip(tasks, keys)
        for key, (start, stop) in zip(group_keys, ranges[code])
    ]
    chunks: list[list[GraphRecord] | None] = [None] * len(tasks)
    unbuilt = Counter(code for code, _ in tasks)

    def build(index: int, shards: list[list[SpecScores]]) -> None:
        code, group = tasks[index]
        merged = [
            concat_scores([shard[spec_index] for shard in shards])
            for spec_index in range(len(group.specs))
        ]
        for shard in shards:
            # The pool keeps every result until run() returns; emptying
            # the lists releases the raw edges now.
            shard.clear()
        chunks[index] = _records(
            kind, datasets[code], code, config.blocking, group.specs, merged
        )
        unbuilt[code] -= 1
        if not unbuilt[code]:
            del datasets[code]  # its records keep only the ground truth
        if progress:
            for record in chunks[index]:
                _print_progress(record)

    group_of = {
        key: index for index, group_keys in enumerate(keys)
        for key in group_keys
    }
    pending = [len(group_keys) for group_keys in keys]
    landed: dict[str, list[SpecScores]] = {}

    def on_result(key: str, scores: list[SpecScores]) -> None:
        index = group_of[key]
        landed[key] = scores
        pending[index] -= 1
        if pending[index] == 0:
            build(index, [landed.pop(other) for other in keys[index]])

    runner = ResilientPool(
        n_workers if use_pool else 0,
        kind="process",
        policy=policy,
        journal=journal,
        codec=_SHARD_JOURNAL_CODEC,
        label=kind.label,
    )
    results = runner.run(pool_tasks, on_result=on_result)
    for index, group_keys in enumerate(keys):
        if chunks[index] is None:  # served, at least in part, by the journal
            build(index, [results[key] for key in group_keys])
    return [record for chunk in chunks for record in chunk]


def _row_ranges(
    config: GraphCorpusConfig, dataset: CleanCleanDataset
) -> list[tuple[int, int]]:
    """The shard row ranges of one dataset view: the whole range, with
    no plan made, unless ``max_memory`` asks for a shard plan."""
    if config.max_memory is None:
        return [(0, len(dataset.left))]
    return plan_for_dataset(
        dataset, memory_budget=config.max_memory, blocking=config.blocking
    ).ranges()


def _shard_worker(
    config: GraphCorpusConfig,
    kind: CorpusKind,
    code: str,
    group: SpecGroup,
    start: int,
    stop: int,
    views: dict[str, CleanCleanDataset] | None,
) -> list[SpecScores]:
    """One shard of one spec group: per-spec scores of its row range.

    ``views`` holds the parent's dataset views when the task runs
    inline in the parent; a pool worker generates its own."""
    dataset = None if views is None else views[code]
    return _engine(config, kind, code, dataset).score(
        group.specs, start, stop
    )


def concat_scores(parts: list[SpecScores]) -> SpecScores:
    """One spec's shard scores merged in range order: the sharded
    tier's one merge.

    ``parts`` are :meth:`~repro.pipeline.engine.SimilarityEngine.score`
    results over consecutive row ranges, in range order; their raw
    edges concatenate into the unsharded edge stream (see
    :mod:`repro.pipeline.sharding`).  Timings sum, and the
    whole-dataset savings statistics come from any shard.  A single
    part (a whole-range shard) is returned as it is.
    """
    if len(parts) == 1:
        return parts[0]
    return SpecScores(
        np.concatenate([part.left for part in parts]),
        np.concatenate([part.right for part in parts]),
        np.concatenate([part.values for part in parts]),
        artifact_seconds=float(sum(p.artifact_seconds for p in parts)),
        score_seconds=float(sum(p.score_seconds for p in parts)),
        dedup_ratio=parts[0].dedup_ratio,
        candidate_reduction=parts[0].candidate_reduction,
    )


# ----------------------------------------------------------------------
# Corpus cache and run-journal codec
# ----------------------------------------------------------------------
def _manifest_body(records: list[GraphRecord], filenames) -> dict:
    """The ``ground_truth`` + ``graphs`` body of the corpus manifest:
    every record's provenance, timings and statistics, and the file
    holding its graph.

    Ground truth is identical for every graph of a dataset, so it is
    stored once per dataset instead of once per graph (the v1 format's
    per-entry copies dominated the manifest size).
    """
    ground_truth: dict[str, list] = {}
    graphs = []
    for record, filename in zip(records, filenames):
        if record.dataset not in ground_truth:
            ground_truth[record.dataset] = sorted(record.ground_truth)
        graphs.append(
            {
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
        )
    return {"ground_truth": ground_truth, "graphs": graphs}


def _records_from_body(
    body: dict, graphs: list[SimilarityGraph | UnipartiteGraph]
) -> list[GraphRecord]:
    """Inverse of :func:`_manifest_body`, with ``graphs`` loaded from
    the entries' files in order; every dataset's records share one
    truth set."""
    shared_truth = {
        code: {tuple(pair) for pair in pairs}
        for code, pairs in body["ground_truth"].items()
    }
    return [
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
        for entry, graph in zip(body["graphs"], graphs)
    ]


def _store_cache(
    cache_dir: Path,
    records: list[GraphRecord],
    kind: CorpusKind,
    workers: int = 1,
) -> None:
    """Persist the corpus: sharded graph writes, then the manifest.

    Filenames follow the deterministic record order, so the graph
    files can be written in any order (and, with ``workers > 1``, by a
    thread pool: ``np.savez_compressed`` spends its time in zlib,
    which releases the GIL, and the resilient runner retries a
    transiently failed write).  The manifest is written only after
    every graph file landed, keeping a crashed run invisible to
    :func:`_load_cached`.  Every file goes through
    :func:`~repro.pipeline.store.atomic_write`, so a killed write
    leaves the previous file or none, never a short one.
    """
    cache_dir.mkdir(parents=True, exist_ok=True)
    filenames = [f"graph_{index:04d}.npz" for index in range(len(records))]
    if workers > 1 and len(records) > 1:
        writer = ResilientPool(workers, kind="thread", label="corpus-cache")
        writer.run(
            [
                Task(
                    key=filename,
                    fn=_save_graph_file,
                    args=(record.graph, cache_dir / filename),
                )
                for record, filename in zip(records, filenames)
            ]
        )
    else:
        for record, filename in zip(records, filenames):
            _save_graph_file(record.graph, cache_dir / filename)
    text = json.dumps(
        {**dict(kind.manifest_header), **_manifest_body(records, filenames)}
    )
    atomic_write(
        cache_dir / _MANIFEST_NAME, lambda handle: handle.write(text.encode())
    )


def _save_graph_file(
    graph: SimilarityGraph | UnipartiteGraph, path: Path
) -> None:
    atomic_write(path, lambda handle: save_graph(graph, handle))


def _load_cached(cache_dir: Path) -> list[GraphRecord] | None:
    """The cached corpus, or ``None`` when one of its files is missing
    or does not load (a torn write, say): one line on stderr names the
    file, a torn one moves to ``quarantine/`` beside it, and the
    caller regenerates the corpus."""
    path = cache_dir / _MANIFEST_NAME
    try:
        manifest = json.loads(path.read_text())
        if isinstance(manifest, list):
            # v1 manifests carried a full ground-truth copy per entry.
            truth: dict[str, list] = {}
            for entry in manifest:
                truth.setdefault(entry["dataset"], entry["ground_truth"])
            manifest = {"ground_truth": truth, "graphs": manifest}
        graphs = []
        for entry in manifest["graphs"]:
            path = cache_dir / entry["file"]
            graphs.append(load_graph(path))
    except FileNotFoundError:
        print(f"corpus cache {path} is missing; recomputing", file=sys.stderr)
        return None
    except (ValueError, zipfile.BadZipFile, EOFError) as error:
        # A short npz has no zip directory (BadZipFile); an empty file
        # has no magic (EOFError).  Neither is a ValueError.
        quarantine_file(path, "corpus cache", error)
        return None
    return _records_from_body(manifest, graphs)


def _write_shard_entry(results: list[SpecScores], path: Path) -> None:
    """Journal one shard task: an ``edges.npz`` with every spec's raw
    edges plus a ``shard.json`` with the timings and savings
    statistics.  The arrays round-trip bit-exactly through the
    uncompressed npz, so a resumed run merges the same corpus as an
    uninterrupted one."""
    arrays = {}
    for index, scores in enumerate(results):
        arrays[f"left_{index}"] = np.asarray(scores.left, dtype=np.int64)
        arrays[f"right_{index}"] = np.asarray(scores.right, dtype=np.int64)
        arrays[f"values_{index}"] = np.asarray(
            scores.values, dtype=np.float64
        )
    meta = {
        "specs": [
            {
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
    np.savez(path / "edges.npz", **arrays)
    (path / "shard.json").write_text(json.dumps(meta))


def _read_shard_entry(path: Path) -> list[SpecScores]:
    meta = json.loads((path / "shard.json").read_text())
    with np.load(path / "edges.npz") as arrays:
        return [
            SpecScores(
                arrays[f"left_{index}"],
                arrays[f"right_{index}"],
                arrays[f"values_{index}"],
                artifact_seconds=timing["artifact_seconds"],
                score_seconds=timing["matrix_seconds"],
                **stats,
            )
            for index, (timing, stats) in enumerate(
                zip(meta["specs"], meta["stats"])
            )
        ]


_SHARD_JOURNAL_CODEC = JournalCodec(
    write=_write_shard_entry, read=_read_shard_entry
)
