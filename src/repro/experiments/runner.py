"""Experiment runner: the paper's full protocol over the graph corpus.

For every graph of the corpus, every algorithm runs a full threshold
sweep; BMC runs once per basis collection and keeps the better sweep
("we examine both options and retain the best one").  The paper's
noise and duplicate filters are then applied, and the surviving
results are cached as JSON so the table/figure benches aggregate
without re-running anything.

The sweeps run on the compiled-graph matching engine
(:mod:`repro.graph.compiled` + ``Matcher.match_compiled``): each graph
is compiled once and shared by all algorithms and thresholds.  With
``workers > 1`` whole graphs are distributed over a process pool — the
same knob PR 1 introduced for corpus generation — one task (and one
graph pickle) per graph instead of one per ``(graph, algorithm)``
cell, so a corpus of large graphs crosses the process boundary once
per graph and the compiled artifacts are shared by all ten algorithms
inside the worker.  The assembled results are invariant under the
worker count: graphs are independent, every stochastic matcher is
seeded per cell, and assembly follows the deterministic
``(graph index, algorithm order)`` grid.

When the corpus itself must be (re)generated, the config's
``artifact_store`` hands
:func:`~repro.pipeline.workbench.generate_corpus` a persistent
cross-run store (:mod:`repro.pipeline.store`) so embeddings, token
matrices and entity graphs built by any earlier run over the same
datasets are loaded instead of rebuilt.  Like ``workers``, it changes
wall-clock only — results and cache keys are invariant.

The dirty-ER self-join corpus
(:func:`~repro.pipeline.workbench.generate_dirty_corpus`) runs on the
same fan-out: :func:`run_dirty_er_sweeps` sweeps every clustering
algorithm (CC, MCC, EMCC, GECG) over each unipartite graph, scored at
cluster level, where :func:`run_matching_sweeps` sweeps the paper's
matchers over each bipartite graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.evaluation.filtering import find_duplicate_inputs, is_noisy_graph
from repro.evaluation.metrics import GroundTruthIndex
from repro.evaluation.sweep import (
    DEFAULT_THRESHOLD_GRID,
    SweepResult,
    dirty_threshold_sweep,
    sweeps_from_payload,
    sweeps_to_payload,
    threshold_sweep,
    threshold_sweep_best_of,
)
from repro.experiments.config import ExperimentConfig, default_cache_dir
from repro.extensions.dirty_er import DIRTY_ALGORITHM_CODES, create_clusterer
from repro.graph.bipartite import SimilarityGraph
from repro.graph.unipartite import UnipartiteGraph
from repro.matching import (
    BestAssignmentHeuristic,
    BestMatchClustering,
    create_matcher,
)
from repro.matching.registry import PAPER_ALGORITHM_CODES
from repro.pipeline.resilience import (
    JournalCodec,
    ResilientPool,
    RetryPolicy,
    RunJournal,
    Task,
)
from repro.pipeline.store import atomic_write, quarantine_file
from repro.pipeline.workbench import GraphRecord, generate_corpus

__all__ = [
    "GraphRunResult",
    "run_dirty_er_sweeps",
    "run_experiments",
    "run_matching_sweeps",
    "sweep_algorithm",
]

_RESULTS_NAME = "results.json"


@dataclass
class GraphRunResult:
    """All algorithms' sweep results on one similarity graph.

    ``candidate_reduction`` carries the blocking layer's
    dense-cells-per-candidate-pair factor from corpus generation
    (1.0 for an unblocked corpus) so downstream reports can relate
    matching quality to pair savings.
    """

    dataset: str
    family: str
    function: str
    category: str
    n_edges: int
    normalized_size: float
    sweeps: dict[str, SweepResult] = field(default_factory=dict)
    candidate_reduction: float = 1.0

    def best_f1(self, code: str) -> float:
        return self.sweeps[code].best_scores.f_measure

    def best_threshold(self, code: str) -> float:
        return self.sweeps[code].best_threshold


def run_experiments(
    config: ExperimentConfig,
    cache_dir: str | Path | None = None,
    progress: bool = False,
    resume: bool = False,
    policy: RetryPolicy | None = None,
) -> list[GraphRunResult]:
    """Execute (or load from cache) the full experimental protocol.

    The run settings live on ``config.corpus``: ``workers``
    parallelizes both stages, corpus generation (see
    :func:`repro.pipeline.workbench.generate_corpus`) and the
    per-graph matching sweeps (see :func:`run_matching_sweeps`);
    ``artifact_store`` points corpus generation at a persistent
    cross-run artifact store (:mod:`repro.pipeline.store`) and
    ``store_read_tier`` layers a shared read-only store directory
    under it; ``max_memory`` (bytes) bounds corpus generation's peak
    memory through the sharded execution tier
    (:mod:`repro.pipeline.sharding`).  None of the four has any effect
    on the results or on any cache key.

    Both stages journal completed work under ``<cache>/journal`` as it
    lands (see :mod:`repro.pipeline.resilience`); after an interrupted
    run, ``resume=True`` skips everything already journaled and the
    assembled results are bit-identical to an uninterrupted run.  The
    journal is cleared on success (the results cache takes over) and
    on any non-resume start.  ``policy`` overrides the retry/deadline
    defaults of the resilient runner.
    """
    if cache_dir is None:
        cache_dir = default_cache_dir()
    cache_dir = Path(cache_dir)
    results_path = cache_dir / "experiments" / (
        config.cache_key() + "_" + _RESULTS_NAME
    )
    if results_path.exists():
        results = _load_results(results_path)
        if results is not None:
            return results

    journal_root = cache_dir / "journal"
    corpus = generate_corpus(
        config.corpus,
        cache_dir=cache_dir / "corpus",
        progress=progress,
        resume=resume,
        journal_dir=journal_root,
        policy=policy,
    )
    sweep_journal = RunJournal(journal_root, f"sweeps-{config.cache_key()}")
    if not resume:
        sweep_journal.clear()
    results = run_matching_sweeps(
        corpus,
        config,
        progress=progress,
        workers=config.corpus.workers,
        policy=policy,
        journal=sweep_journal,
    )
    results = _apply_filters(results, config)

    results_path.parent.mkdir(parents=True, exist_ok=True)
    _store_results(results_path, results)
    sweep_journal.clear()
    return results


def run_matching_sweeps(
    records: list[GraphRecord],
    config: ExperimentConfig,
    codes: tuple[str, ...] = PAPER_ALGORITHM_CODES,
    progress: bool = False,
    workers: int = 1,
    policy: RetryPolicy | None = None,
    journal: RunJournal | None = None,
) -> list[GraphRunResult]:
    """Threshold-sweep every algorithm over every corpus record.

    The unit of parallel work is one *graph*: with ``workers > 1``
    each record is submitted to the process pool once — one graph
    pickle carrying all algorithm sweeps — instead of once per
    ``(graph, algorithm)`` cell, so large graphs cross the process
    boundary a single time and the worker's compiled-graph artifacts
    are shared by every algorithm.  A single-record corpus falls back
    to one task per algorithm so the pool is still used.  Results are
    assembled on the deterministic ``(record index, algorithm order)``
    grid, so the output is identical to a serial run for any worker
    count.

    Execution runs on the shared :class:`ResilientPool` (retries,
    deadlines, broken-pool recovery — :mod:`repro.pipeline.resilience`);
    a permanently failed cell raises
    :class:`~repro.pipeline.resilience.ResilienceError` naming the
    ``index:dataset:function:codes`` task key of every failed graph,
    with pending work cancelled instead of silently lost.  Pass a
    ``journal`` to commit each finished graph's sweeps to disk as it
    lands and to skip already-journaled graphs on a resumed run.
    """
    return _run_sweeps(
        records, codes, sweep_algorithm, config, "runner", progress,
        workers, policy, journal,
    )


def run_dirty_er_sweeps(
    records: list[GraphRecord],
    codes: tuple[str, ...] = DIRTY_ALGORITHM_CODES,
    grid: tuple[float, ...] = DEFAULT_THRESHOLD_GRID,
    progress: bool = False,
    workers: int = 1,
    policy: RetryPolicy | None = None,
    journal: RunJournal | None = None,
) -> list[GraphRunResult]:
    """Threshold-sweep every clustering algorithm over every record of
    a self-join corpus.

    :func:`run_matching_sweeps` for the dirty-ER clustering algorithms
    of :mod:`repro.extensions.dirty_er`: each graph is compiled once
    and shared by all algorithms and thresholds, and every sweep
    scores clusters through one
    :class:`~repro.evaluation.metrics.GroundTruthIndex` per graph.
    ``normalized_size`` is the unipartite pair-space density.  Results
    are identical for any ``workers`` value, any retry interleaving
    and any resume point (``journal``).
    """
    return _run_sweeps(
        records, codes, _sweep_clusterer, grid, "dirty-er", progress,
        workers, policy, journal,
    )


def _run_sweeps(
    records: list[GraphRecord],
    codes: tuple[str, ...],
    sweep,
    context,
    label: str,
    progress: bool,
    workers: int,
    policy: RetryPolicy | None,
    journal: RunJournal | None,
) -> list[GraphRunResult]:
    """The one sweep fan-out: ``sweep(code, graph, ground_truth,
    context, truth_index)`` per algorithm code and graph, with
    ``label`` naming the pool and the progress lines."""
    code_tag = "-".join(codes)
    single = workers > 1 and len(records) == 1 and len(codes) > 1
    if single:
        # A lone graph cannot be split by record; fall back to one
        # task per algorithm so the pool still has work (the graph is
        # pickled per algorithm, but there is only one graph to ship).
        record = records[0]
        tasks = [
            Task(
                key=f"000:{record.dataset}:{record.function}:{code}",
                fn=_sweep_graph,
                args=(
                    record.graph, record.ground_truth, (code,), sweep,
                    context,
                ),
            )
            for code in codes
        ]
        record_by_key = {}
    else:
        tasks = [
            Task(
                key=f"{index:03d}:{record.dataset}"
                f":{record.function}:{code_tag}",
                fn=_sweep_graph,
                args=(
                    record.graph, record.ground_truth, codes, sweep,
                    context,
                ),
            )
            for index, record in enumerate(records)
        ]
        record_by_key = {
            task.key: record for task, record in zip(tasks, records)
        }

    on_result = None
    if progress and not single:

        def on_result(key, sweeps):
            # Stream each graph as it lands (possibly out of
            # submission order).
            _print_progress(label, record_by_key[key], sweeps)

    runner = ResilientPool(
        workers,
        kind="process",
        policy=policy,
        journal=journal,
        codec=SWEEP_JOURNAL_CODEC,
        label=label,
    )
    results_by_key = runner.run(tasks, on_result=on_result)

    if single:
        merged: dict[str, SweepResult] = {}
        for task in tasks:
            merged.update(results_by_key[task.key])
        sweeps = {code: merged[code] for code in codes}
        if progress:
            _print_progress(label, records[0], sweeps)
        all_sweeps = [sweeps]
    else:
        all_sweeps = [results_by_key[task.key] for task in tasks]

    return [
        GraphRunResult(
            dataset=record.dataset,
            family=record.family,
            function=record.function,
            category=record.category,
            n_edges=record.n_edges,
            normalized_size=record.graph.density,
            sweeps=sweeps,
            candidate_reduction=record.candidate_reduction,
        )
        for record, sweeps in zip(records, all_sweeps)
    ]


def _print_progress(
    label: str, record: GraphRecord, sweeps: dict[str, SweepResult]
) -> None:
    best = max(sweeps.values(), key=lambda s: s.best_scores.f_measure)
    print(
        f"[{label}] {record.dataset} {record.function}: top F1 "
        f"{best.best_scores.f_measure:.3f} ({best.algorithm})"
    )


def _sweep_graph(
    graph: SimilarityGraph | UnipartiteGraph,
    ground_truth: set[tuple[int, int]],
    codes: tuple[str, ...],
    sweep,
    context,
) -> dict[str, SweepResult]:
    """One process-pool work unit: all algorithm sweeps of one graph.

    The ground-truth index and the compiled-graph artifacts are built
    once in the worker and shared by every algorithm.
    """
    truth_index = GroundTruthIndex(ground_truth)
    sweeps = {
        code: sweep(code, graph, ground_truth, context, truth_index)
        for code in codes
    }
    # The compiled artifacts served their sweep; release them so
    # corpus-sized serial runs do not accumulate derived arrays (in a
    # pool worker the graph is a private pickle copy and this is moot).
    graph.release_compiled()
    return sweeps


def sweep_algorithm(
    code: str,
    graph: SimilarityGraph,
    ground_truth: set[tuple[int, int]],
    config: ExperimentConfig,
    truth_index: GroundTruthIndex,
) -> SweepResult:
    """Sweep ``code`` with the paper's per-algorithm configuration."""
    if code == "BMC":
        return threshold_sweep_best_of(
            [
                BestMatchClustering(basis="left"),
                BestMatchClustering(basis="right"),
            ],
            graph,
            ground_truth,
            config.grid,
            truth_index=truth_index,
        )
    if code == "BAH":
        matcher = BestAssignmentHeuristic(
            max_moves=config.bah_max_moves,
            time_limit=config.bah_time_limit,
            seed=config.bah_seed,
        )
    else:
        matcher = create_matcher(code)
    return threshold_sweep(
        matcher,
        graph,
        ground_truth,
        config.grid,
        truth_index=truth_index,
    )


def _sweep_clusterer(
    code: str,
    graph: UnipartiteGraph,
    ground_truth: set[tuple[int, int]],
    grid: tuple[float, ...],
    truth_index: GroundTruthIndex,
) -> SweepResult:
    """Sweep the dirty-ER clustering algorithm ``code``."""
    return dirty_threshold_sweep(
        create_clusterer(code),
        graph,
        ground_truth,
        grid,
        truth_index=truth_index,
    )


def _apply_filters(
    results: list[GraphRunResult], config: ExperimentConfig
) -> list[GraphRunResult]:
    if config.apply_noise_filter:
        results = [r for r in results if not is_noisy_graph(r.sweeps)]
    if config.apply_duplicate_filter:
        entries = [(r.dataset, r.n_edges, r.sweeps) for r in results]
        duplicates = find_duplicate_inputs(entries)
        results = [
            r for i, r in enumerate(results) if i not in duplicates
        ]
    return results


# ----------------------------------------------------------------------
# Result (de)serialization
# ----------------------------------------------------------------------
def _store_results(path: Path, results: list[GraphRunResult]) -> None:
    payload = []
    for result in results:
        payload.append(
            {
                "dataset": result.dataset,
                "family": result.family,
                "function": result.function,
                "category": result.category,
                "n_edges": result.n_edges,
                "normalized_size": result.normalized_size,
                "candidate_reduction": result.candidate_reduction,
                "sweeps": sweeps_to_payload(result.sweeps),
            }
        )
    text = json.dumps(payload)
    atomic_write(path, lambda handle: handle.write(text.encode()))


def _load_results(path: Path) -> list[GraphRunResult] | None:
    """The cached results, or ``None`` for a file that does not decode
    (a torn write): it moves aside to ``quarantine/`` beside it, one
    line on stderr says so, and the caller recomputes."""
    try:
        payload = json.loads(path.read_text())
    except ValueError as error:
        quarantine_file(path, "results cache", error)
        return None
    results = []
    for entry in payload:
        results.append(
            GraphRunResult(
                dataset=entry["dataset"],
                family=entry["family"],
                function=entry["function"],
                category=entry["category"],
                n_edges=entry["n_edges"],
                normalized_size=entry["normalized_size"],
                sweeps=sweeps_from_payload(entry["sweeps"]),
                candidate_reduction=entry.get("candidate_reduction", 1.0),
            )
        )
    return results


# ----------------------------------------------------------------------
# Journal codec: one graph's sweeps as a JSON entry
# ----------------------------------------------------------------------
def _write_sweeps_entry(sweeps: dict[str, SweepResult], path: Path) -> None:
    (path / "sweeps.json").write_text(json.dumps(sweeps_to_payload(sweeps)))


def _read_sweeps_entry(path: Path) -> dict[str, SweepResult]:
    return sweeps_from_payload(
        json.loads((path / "sweeps.json").read_text())
    )


#: How one sweep task result journals (shared with the CLI sweep
#: command — a sweeps dict is a sweeps dict).
SWEEP_JOURNAL_CODEC = JournalCodec(
    write=_write_sweeps_entry, read=_read_sweeps_entry
)
