"""Command-line interface.

Eleven subcommands cover the library's main entry points:

``repro match``
    Run one algorithm on an edge-list CSV (``left,right,weight``) and
    print the matched pairs.
``repro generate``
    Generate a synthetic dataset profile and write its two collections
    plus the ground truth as CSV files.
``repro sweep``
    Threshold-sweep one or all algorithms on an edge-list CSV with a
    ground-truth CSV and print the effectiveness table; ``--workers``
    distributes the per-algorithm sweeps over a process pool (the
    table is invariant under the worker count).
``repro experiments``
    Run the cached full protocol and print the headline tables
    (Table 4 and the Figure 2 Nemenyi diagram); ``--workers`` covers
    both corpus generation and the (graph x algorithm) sweep cells.
``repro corpus``
    Generate (or warm the cache of) the similarity-graph corpus via
    the shared-artifact engine, optionally over several worker
    processes, and print the per-stage cost breakdown.
``repro dirty-er``
    Generate the dirty-ER self-join corpus (the union collection
    joined with itself, through the same engine/store stack) and
    threshold-sweep the four clustering algorithms (CC, MCC, EMCC,
    GECG) on the compiled unipartite engine, printing the macro
    cluster-level effectiveness table.
``repro store``
    Inspect (``ls``), shrink (``gc``) or empty (``purge``) the
    persistent cross-run artifact store that ``--artifact-store``
    points corpus generation at (:mod:`repro.pipeline.store`).
``repro block``
    Build and inspect a blocking candidate set for one dataset
    profile: pair counts, reduction factor, ground-truth pair recall
    and per-scheme statistics (:mod:`repro.pipeline.blocking`).
``repro shard``
    Inspect the sharded execution tier: ``repro shard plan`` prints
    the deterministic shard plan (row ranges, estimated spill sizes,
    chunk grid) a given memory budget produces for one dataset
    profile (:mod:`repro.pipeline.sharding`).
``repro serve``
    Run the ER-as-a-service HTTP API (:mod:`repro.service`): warm the
    frozen per-dataset resolver indexes once at startup, then serve
    ``POST /resolve`` (micro-batched single-record resolution),
    ``POST /match``, ``GET /healthz`` and ``GET /datasets``.  Startup
    failures (unknown dataset, bad port, broken store) exit 1 with a
    clear message.
``repro stream``
    Replay a dataset's self-join union collection as a deterministic
    insertion stream (seeded arrival order, configurable batch size)
    through the incremental tier — frozen blocking-index probes,
    per-batch sparse kernel passes and in-place compiled-graph delta
    merges, with the clustering kernels run on the live graph — and
    verify the final graph and partitions are bit-identical to the
    batch path (:mod:`repro.pipeline.streaming`); exits 1 on any
    divergence.

``--workers`` and ``--artifact-store`` only change wall-clock, never
results; ``--max-memory`` (on ``corpus``/``experiments``) likewise
only bounds peak memory — generation runs through the sharded
execution tier and the corpus stays bit-identical.  ``--blocking``
(on ``corpus``/``experiments``/``dirty-er``) is
different: it routes generation through the sparse candidate-pair
path and *changes the corpus* — edges outside the candidate set
disappear — so it is part of the corpus cache key.  The long-running subcommands (``sweep``, ``experiments``,
``corpus``, ``dirty-er``) execute on the fault-tolerant runner of
:mod:`repro.pipeline.resilience` and journal completed work as it
lands; after a Ctrl-C or crash, ``--resume`` skips everything already
journaled and the final output is bit-identical to an uninterrupted
run.  A KeyboardInterrupt exits with code 130 (journal already on
disk); a permanent task failure prints the failed task keys and exits
with code 1.  Install exposes the ``repro`` console script; the
package also runs as ``python -m repro``.

The reference documentation in ``docs/CLI.md`` is drift-checked
against :func:`build_parser` by ``tests/test_docs.py`` — keep the two
in sync.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

from repro.evaluation.report import render_table
from repro.graph.bipartite import SimilarityGraph
from repro.matching.registry import (
    ALGORITHM_CODES,
    PAPER_ALGORITHM_CODES,
    create_matcher,
)

__all__ = ["main", "build_parser"]


def _size_budget(text: str) -> int:
    """Argparse type for ``--budget``: validate at parse time."""
    from repro.pipeline.store import parse_size_budget

    try:
        return parse_size_budget(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _positive_int(text: str) -> int:
    """Argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _float(text: str) -> float:
    """A float, or the argparse usage error for ``text``."""
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}"
        ) from None


def _scale(text: str) -> float:
    """Argparse type for ``--scale``: positive, never NaN (which would
    pass a ``<= 0`` check and fail later in the size arithmetic)."""
    value = _float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(
            f"scale must be positive, got {text!r}"
        )
    return value


def _add_dataset_flags(
    parser, seed_help: str = "dataset generation seed"
) -> None:
    """The catalog-profile flags of ``block``, ``shard plan``,
    ``serve`` and ``stream``, bounds checked at parse time."""
    parser.add_argument(
        "--scale", type=_scale, default=None,
        help="dataset scale factor (default: catalog default)",
    )
    parser.add_argument(
        "--max-pairs", type=_positive_int, default=None,
        help="cap on generated duplicate pairs (default: catalog default)",
    )
    parser.add_argument("--seed", type=int, default=42, help=seed_help)


def _threshold(text: str) -> float:
    """Argparse type for ``--threshold``: a number, never NaN (which
    would select no edge and succeed silently)."""
    value = _float(text)
    if math.isnan(value):
        raise argparse.ArgumentTypeError(
            f"threshold must be a number, got {text!r}"
        )
    return value


def _add_resume_flag(parser) -> None:
    """The ``--resume`` flag shared by the journaled subcommands."""
    parser.add_argument(
        "--resume", action="store_true",
        help=(
            "skip work already journaled by an interrupted run "
            "(results are bit-identical to an uninterrupted run)"
        ),
    )


def _add_store_flags(parser, store_help: str) -> None:
    """The persistent-store flag pair shared by the corpus-generating
    subcommands (``experiments``, ``corpus``, ``dirty-er``)."""
    parser.add_argument(
        "--artifact-store", type=Path, default=None, help=store_help
    )
    parser.add_argument(
        "--store-read-tier", type=Path, default=None,
        help=(
            "shared read-only store directory layered under "
            "--artifact-store; tier hits never write anywhere"
        ),
    )


def _blocking_spec(text: str) -> str:
    """Argparse type for ``--blocking``: canonicalize at parse time."""
    from repro.pipeline.blocking import canonical_blocking

    try:
        return canonical_blocking(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


_BLOCKING_HELP = (
    "blocking scheme SCHEME[:PARAMS][+SCHEME...] — tokens, prefix, "
    "minhash (e.g. tokens:max_df=0.2+minhash:bands=8); similarity is "
    "computed only on candidate pairs"
)

_MAX_MEMORY_HELP = (
    "peak-memory budget for corpus generation, e.g. 64M / 2G: "
    "datasets run shard-by-shard through the sharded execution tier "
    "(repro.pipeline.sharding) and the corpus stays bit-identical"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Bipartite graph matching algorithms for Clean-Clean "
            "Entity Resolution (EDBT 2022 reproduction)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    match = commands.add_parser(
        "match", help="run one algorithm on an edge-list CSV"
    )
    match.add_argument("graph", type=Path, help="CSV: left,right,weight")
    match.add_argument(
        "--algorithm", "-a", default="UMC",
        choices=sorted(ALGORITHM_CODES),
    )
    match.add_argument("--threshold", "-t", type=_threshold, default=0.5)

    generate = commands.add_parser(
        "generate", help="generate a synthetic dataset profile"
    )
    generate.add_argument("dataset", help="profile code (d1 .. d10)")
    generate.add_argument("--scale", type=_scale, default=None)
    generate.add_argument("--seed", type=int, default=42)
    generate.add_argument("--out", type=Path, default=Path("."))

    sweep = commands.add_parser(
        "sweep", help="threshold-sweep algorithms on a graph + truth"
    )
    sweep.add_argument("graph", type=Path, help="CSV: left,right,weight")
    sweep.add_argument("truth", type=Path, help="CSV: left,right")
    sweep.add_argument(
        "--algorithm", "-a", default="all",
        help="algorithm code or 'all' (paper's eight)",
    )
    sweep.add_argument(
        "--workers", "-j", type=_positive_int, default=None,
        help="worker processes for per-algorithm sweeps (default: serial)",
    )
    _add_resume_flag(sweep)

    experiments = commands.add_parser(
        "experiments", help="run the cached full protocol"
    )
    experiments.add_argument(
        "--profile", choices=("default", "smoke"), default="smoke"
    )
    experiments.add_argument("--cache", type=Path, default=None)
    experiments.add_argument(
        "--workers", "-j", type=_positive_int, default=None,
        help=(
            "worker processes for corpus generation and the matching "
            "sweep cells (default: serial)"
        ),
    )
    experiments.add_argument(
        "--blocking", type=_blocking_spec, default=None,
        help=_BLOCKING_HELP,
    )
    experiments.add_argument(
        "--max-memory", type=_size_budget, default=None,
        help=_MAX_MEMORY_HELP,
    )
    _add_store_flags(
        experiments,
        "persistent cross-run artifact store for corpus generation "
        "(default: disabled)",
    )
    _add_resume_flag(experiments)

    corpus = commands.add_parser(
        "corpus", help="generate the similarity-graph corpus"
    )
    corpus.add_argument(
        "--profile", choices=("default", "smoke"), default="smoke"
    )
    corpus.add_argument("--cache", type=Path, default=None)
    corpus.add_argument(
        "--workers", "-j", type=_positive_int, default=None,
        help="worker processes for corpus generation (default: serial)",
    )
    corpus.add_argument(
        "--progress", action="store_true",
        help="print every generated graph with its stage timings",
    )
    corpus.add_argument(
        "--blocking", type=_blocking_spec, default=None,
        help=_BLOCKING_HELP,
    )
    corpus.add_argument(
        "--max-memory", type=_size_budget, default=None,
        help=_MAX_MEMORY_HELP,
    )
    _add_store_flags(
        corpus,
        "persistent cross-run artifact store: embeddings, token "
        "matrices and entity graphs are reused by every config "
        "sharing a dataset (default: disabled)",
    )
    _add_resume_flag(corpus)

    dirty = commands.add_parser(
        "dirty-er",
        help="cluster the dirty-ER self-join corpus and print the table",
    )
    dirty.add_argument(
        "--profile", choices=("default", "smoke"), default="smoke"
    )
    dirty.add_argument("--cache", type=Path, default=None)
    dirty.add_argument(
        "--algorithm", "-a", default="all",
        help="clustering code (CC, MCC, EMCC, GECG) or 'all'",
    )
    dirty.add_argument(
        "--workers", "-j", type=_positive_int, default=None,
        help=(
            "worker processes for corpus generation and the per-graph "
            "clustering sweeps (default: serial)"
        ),
    )
    dirty.add_argument(
        "--progress", action="store_true",
        help="print every generated graph and swept graph as it lands",
    )
    dirty.add_argument(
        "--blocking", type=_blocking_spec, default=None,
        help=(
            _BLOCKING_HELP
            + " (self-join: candidates over the union collection)"
        ),
    )
    _add_store_flags(
        dirty,
        "persistent cross-run artifact store for self-join corpus "
        "generation (default: disabled)",
    )
    _add_resume_flag(dirty)

    store = commands.add_parser(
        "store", help="inspect or clean the persistent artifact store"
    )
    store_commands = store.add_subparsers(dest="store_command", required=True)
    store_ls = store_commands.add_parser(
        "ls", help="list store entries, most recently used first"
    )
    store_ls.add_argument(
        "--json", action="store_true",
        help=(
            "machine-readable listing: entries, totals and quarantine "
            "counts as one JSON object"
        ),
    )
    store_gc = store_commands.add_parser(
        "gc", help="evict stale entries, then LRU entries over the budget"
    )
    store_gc.add_argument(
        "--budget", type=_size_budget, default=None,
        help="size budget, e.g. 500K / 64M / 2G (default: stale-only gc)",
    )
    store_purge = store_commands.add_parser(
        "purge", help="delete every store entry"
    )
    for sub in (store_ls, store_gc, store_purge):
        sub.add_argument(
            "--artifact-store", type=Path, default=None,
            help=(
                "store directory (default: <cache>/artifacts under "
                "REPRO_CACHE or .repro_cache)"
            ),
        )

    block = commands.add_parser(
        "block", help="build and inspect a blocking candidate set"
    )
    block.add_argument("dataset", help="profile code (d1 .. d10)")
    block.add_argument(
        "--blocking", type=_blocking_spec, default="tokens",
        help=_BLOCKING_HELP + " (default: tokens)",
    )
    _add_dataset_flags(block)

    shard = commands.add_parser(
        "shard", help="inspect the sharded execution tier"
    )
    shard_commands = shard.add_subparsers(dest="shard_command", required=True)
    shard_plan = shard_commands.add_parser(
        "plan",
        help="print the deterministic shard plan for one dataset profile",
    )
    shard_plan.add_argument("dataset", help="profile code (d1 .. d10)")
    shard_plan.add_argument(
        "--max-memory", type=_size_budget, default=None,
        help="memory budget, e.g. 64M / 2G (default: a single shard)",
    )
    shard_plan.add_argument(
        "--blocking", type=_blocking_spec, default=None,
        help=_BLOCKING_HELP + " (shapes the candidate-density estimate)",
    )
    shard_plan.add_argument(
        "--shards", type=_positive_int, default=None,
        help="force an explicit shard count instead of deriving it "
             "from the budget",
    )
    _add_dataset_flags(shard_plan)

    serve = commands.add_parser(
        "serve", help="run the ER-as-a-service resolution HTTP API"
    )
    serve.add_argument(
        "datasets", nargs="+",
        help="dataset profile codes to index and serve (d1 .. d10)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="interface to bind"
    )
    serve.add_argument(
        "--port", type=int, default=8000, help="TCP port to bind"
    )
    serve.add_argument(
        "--blocking", type=_blocking_spec, default="tokens",
        help="blocking spec for the query-time candidate index",
    )
    serve.add_argument(
        "--measure", default="jaccard",
        help="default similarity measure for /resolve and /match",
    )
    _add_dataset_flags(serve)
    serve.add_argument(
        "--max-batch", type=_positive_int, default=64,
        help="max /resolve requests coalesced into one kernel pass "
             "(1 = serial)",
    )
    _add_store_flags(
        serve,
        "persistent artifact store the warmup loads dataset "
        "artifacts from (and commits fresh builds to)",
    )

    stream = commands.add_parser(
        "stream",
        help="replay a dataset as an insertion stream and verify "
             "batch equivalence",
    )
    stream.add_argument("dataset", help="profile code (d1 .. d10)")
    stream.add_argument(
        "--blocking", type=_blocking_spec, default="tokens",
        help=_BLOCKING_HELP + " (default: tokens)",
    )
    stream.add_argument(
        "--measure", default="jaccard",
        help="schema-based similarity measure scoring candidate pairs",
    )
    stream.add_argument(
        "--threshold", type=_threshold, default=0.5,
        help="clustering threshold (inclusive, the dirty-ER convention)",
    )
    stream.add_argument(
        "--algorithm", "-a", default="all",
        help="clustering code (CC, MCC, EMCC, GECG) or 'all'",
    )
    stream.add_argument(
        "--batch-size", type=_positive_int, default=32,
        help="records ingested per stream batch (the final state is "
             "invariant to this)",
    )
    _add_dataset_flags(
        stream, seed_help="seeds both the dataset and the arrival permutation"
    )
    stream.add_argument(
        "--json", action="store_true",
        help="machine-readable report: equivalence verdicts and the "
             "cost breakdown as one JSON object",
    )
    return parser


def _store_read_tier(args: argparse.Namespace) -> Path | None:
    """Validated ``--store-read-tier``: only meaningful with a
    writable ``--artifact-store`` above it."""
    if args.store_read_tier is not None and args.artifact_store is None:
        raise SystemExit(
            "error: --store-read-tier requires --artifact-store (the "
            "tier is read-only; a writable store must sit above it)"
        )
    return args.store_read_tier


def _generate_dataset(args: argparse.Namespace):
    """The catalog dataset that the dataset flags of ``args`` describe."""
    from repro.datasets import dataset_spec, generate_dataset

    return generate_dataset(
        dataset_spec(
            args.dataset, scale=args.scale, max_pairs=args.max_pairs
        ),
        seed=args.seed,
    )


def _read_graph(path: Path) -> SimilarityGraph:
    edges = []
    n_left = 0
    n_right = 0
    with path.open() as handle:
        for row in csv.reader(handle):
            if not row or row[0].startswith("#") or row[0] == "left":
                continue
            left, right, weight = int(row[0]), int(row[1]), float(row[2])
            edges.append((left, right, weight))
            n_left = max(n_left, left + 1)
            n_right = max(n_right, right + 1)
    return SimilarityGraph.from_edges(n_left, n_right, edges, name=str(path))


def _read_truth(path: Path) -> set[tuple[int, int]]:
    truth = set()
    with path.open() as handle:
        for row in csv.reader(handle):
            if not row or row[0].startswith("#") or row[0] == "left":
                continue
            truth.add((int(row[0]), int(row[1])))
    return truth


def _command_match(args: argparse.Namespace) -> int:
    graph = _read_graph(args.graph)
    matcher = create_matcher(args.algorithm)
    result = matcher.match(graph, args.threshold)
    print(f"# {args.algorithm} t={args.threshold} pairs={len(result)}")
    for i, j in result.pairs:
        print(f"{i},{j}")
    return 0


def _command_generate(args: argparse.Namespace) -> int:
    from repro.datasets import dataset_spec, generate_dataset

    dataset = generate_dataset(
        dataset_spec(args.dataset, scale=args.scale), seed=args.seed
    )
    args.out.mkdir(parents=True, exist_ok=True)
    for side, collection in (("left", dataset.left), ("right", dataset.right)):
        attributes = collection.attribute_names()
        path = args.out / f"{args.dataset}_{side}.csv"
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["id", *attributes])
            for profile in collection:
                writer.writerow(
                    [profile.identifier]
                    + [profile.value(a) for a in attributes]
                )
    truth_path = args.out / f"{args.dataset}_truth.csv"
    with truth_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["left", "right"])
        for i, j in sorted(dataset.ground_truth):
            writer.writerow([i, j])
    print(
        f"wrote {args.dataset}: {len(dataset.left)} x "
        f"{len(dataset.right)} profiles, {dataset.n_duplicates} matches "
        f"-> {args.out}"
    )
    return 0


def _sweep_one_cell(
    payload: tuple[SimilarityGraph, set[tuple[int, int]], str],
) -> dict:
    """One ``repro sweep`` cell (module-level so process pools can
    pickle it), swept exactly as ``repro experiments`` sweeps ``code``
    on a corpus graph; returns ``{code: sweep}`` so the result shares
    the sweep journal codec of the experiment runner."""
    from repro.evaluation.metrics import GroundTruthIndex
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import sweep_algorithm

    graph, truth, code = payload
    sweep = sweep_algorithm(
        code, graph, truth, ExperimentConfig(), GroundTruthIndex(truth)
    )
    return {code: sweep}


def _default_journal_dir():
    from repro.experiments.config import default_cache_dir

    return default_cache_dir() / "journal"


def _sweep_run_key(args: argparse.Namespace) -> str:
    """Run identity of one ``repro sweep``: inputs by content, plus
    the algorithm selection.  The ``protocol`` prefix keeps a resumed
    run off entries journaled by versions whose BMC cell swept one
    basis only."""
    import hashlib

    digest = hashlib.blake2b(digest_size=8)
    digest.update(args.graph.read_bytes())
    digest.update(b"\x00")
    digest.update(args.truth.read_bytes())
    return f"cli-sweep-protocol-{args.algorithm}-{digest.hexdigest()}"


def _command_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.runner import SWEEP_JOURNAL_CODEC
    from repro.pipeline.resilience import ResilientPool, RunJournal, Task

    graph = _read_graph(args.graph)
    truth = _read_truth(args.truth)
    if args.algorithm == "all":
        codes = PAPER_ALGORITHM_CODES
    else:
        codes = (args.algorithm.upper(),)
    journal = None
    if args.resume:
        # Content-keyed run identity: the same inputs resume, changed
        # inputs never reuse a stale journal entry.
        journal = RunJournal(
            _default_journal_dir(), _sweep_run_key(args)
        )
    # One cell per algorithm; assembling on the code order keeps the
    # table identical to a serial run for any worker count.
    runner = ResilientPool(
        args.workers if args.workers is not None else 0,
        kind="process",
        journal=journal,
        codec=SWEEP_JOURNAL_CODEC,
        label="sweep",
    )
    tasks = [
        Task(key=code, fn=_sweep_one_cell, args=((graph, truth, code),))
        for code in codes
    ]
    results = runner.run(tasks)
    sweeps = [next(iter(results[code].values())) for code in codes]
    if journal is not None:
        journal.clear()
    rows = []
    for code, sweep in zip(codes, sweeps):
        best = sweep.best_scores
        rows.append(
            [
                code,
                f"{sweep.best_threshold:.2f}",
                f"{best.precision:.3f}",
                f"{best.recall:.3f}",
                f"{best.f_measure:.3f}",
                f"{1000 * sweep.best_seconds:.1f}",
            ]
        )
    print(
        render_table(
            ["alg", "t*", "P", "R", "F1", "ms"],
            rows,
            title=f"Threshold sweep on {args.graph} (|truth|={len(truth)})",
        )
    )
    return 0


def _profile_config(args: argparse.Namespace):
    """The ``--profile`` experiment config with the corpus flags given
    (``--workers``, ``--blocking``, ``--max-memory`` and the store
    directories) folded into its corpus config, the one place those
    settings live.  Every cache key and journal run key derived from it
    therefore tells blocked runs from dense ones."""
    import dataclasses

    from repro.experiments import DEFAULT_BENCH_CONFIG, SMOKE_CONFIG

    config = (
        DEFAULT_BENCH_CONFIG if args.profile == "default" else SMOKE_CONFIG
    )
    tier = _store_read_tier(args)
    flags = {
        "workers": args.workers,
        "blocking": args.blocking,
        # dirty-er has no --max-memory flag.
        "max_memory": getattr(args, "max_memory", None),
        # The config holds store directories as strings.
        "artifact_store": args.artifact_store and str(args.artifact_store),
        "store_read_tier": tier and str(tier),
    }
    overrides = {
        name: value for name, value in flags.items() if value is not None
    }
    return dataclasses.replace(
        config, corpus=dataclasses.replace(config.corpus, **overrides)
    )


def _command_experiments(args: argparse.Namespace) -> int:
    from repro.evaluation.report import format_float
    from repro.evaluation.stats import nemenyi_diagram
    from repro.experiments import run_experiments
    from repro.experiments.effectiveness import (
        macro_effectiveness,
        score_matrix,
    )

    config = _profile_config(args)
    results = run_experiments(
        config, cache_dir=args.cache, resume=args.resume
    )
    rows = [
        [
            row.algorithm,
            format_float(row.precision_mu),
            format_float(row.recall_mu),
            format_float(row.f1_mu),
            format_float(row.f1_sigma),
        ]
        for row in macro_effectiveness(results)
    ]
    print(
        render_table(
            ["alg", "P", "R", "F1", "F1 sigma"],
            rows,
            title=(
                f"Table 4 over {len(results)} graphs "
                f"({args.profile} profile)"
            ),
        )
    )
    print()
    print(
        nemenyi_diagram(
            list(PAPER_ALGORITHM_CODES),
            score_matrix(results, "f_measure"),
        )
    )
    return 0


def _command_corpus(args: argparse.Namespace) -> int:
    from repro.experiments.config import default_cache_dir
    from repro.pipeline.workbench import generate_corpus

    config = _profile_config(args).corpus
    cache = args.cache if args.cache is not None else default_cache_dir()
    records = generate_corpus(
        config,
        cache_dir=cache / "corpus",
        progress=args.progress,
        resume=args.resume,
        journal_dir=cache / "journal",
    )
    artifact = sum(r.artifact_seconds for r in records)
    matrix = sum(r.matrix_seconds for r in records)
    graph = sum(r.graph_seconds for r in records)
    total = sum(r.build_seconds for r in records)
    print(
        f"corpus ready: {len(records)} graphs "
        f"(key {config.cache_key()}) -> {cache / 'corpus'}"
    )
    print(
        f"build cost {total:.1f}s = {artifact:.1f}s artifacts + "
        f"{matrix:.1f}s matrices + {graph:.1f}s graphs"
    )
    if config.blocking is not None and records:
        mean_reduction = sum(
            r.candidate_reduction for r in records
        ) / len(records)
        print(
            f"blocking {config.blocking}: mean candidate reduction "
            f"{mean_reduction:.1f}x"
        )
    if config.artifact_store is not None:
        from repro.pipeline.store import ArtifactStore

        store = ArtifactStore(config.artifact_store)
        entries = store.entries()
        print(
            f"artifact store: {len(entries)} entries, "
            f"{_format_bytes(sum(e.nbytes for e in entries))} "
            f"-> {store.root}"
        )
    return 0


def _command_dirty_er(args: argparse.Namespace) -> int:
    from repro.evaluation.report import format_float
    from repro.experiments.config import default_cache_dir
    from repro.experiments.runner import run_dirty_er_sweeps
    from repro.extensions.dirty_er import DIRTY_ALGORITHM_CODES
    from repro.pipeline.workbench import generate_dirty_corpus

    config = _profile_config(args)
    if args.algorithm == "all":
        codes = DIRTY_ALGORITHM_CODES
    else:
        code = args.algorithm.upper()
        if code not in DIRTY_ALGORITHM_CODES:
            print(
                f"unknown dirty-ER algorithm {args.algorithm!r}; expected "
                f"one of {' '.join(DIRTY_ALGORITHM_CODES)} or 'all'",
                file=sys.stderr,
            )
            return 2
        codes = (code,)
    cache = args.cache if args.cache is not None else default_cache_dir()
    records = generate_dirty_corpus(
        config.corpus,
        cache_dir=cache / "corpus",
        progress=args.progress,
        resume=args.resume,
        journal_dir=cache / "journal",
    )
    from repro.pipeline.resilience import RunJournal

    journal = RunJournal(
        cache / "journal", f"dirty-sweeps-{config.cache_key()}"
    )
    if not args.resume:
        journal.clear()
    results = run_dirty_er_sweeps(
        records,
        codes=codes,
        grid=config.grid,
        progress=args.progress,
        workers=config.corpus.workers,
        journal=journal,
    )
    journal.clear()
    rows = []
    for code in codes:
        sweeps = [result.sweeps[code] for result in results]
        n = max(len(sweeps), 1)
        rows.append(
            [
                code,
                format_float(
                    sum(s.best_threshold for s in sweeps) / n
                ),
                format_float(
                    sum(s.best_scores.precision for s in sweeps) / n
                ),
                format_float(
                    sum(s.best_scores.recall for s in sweeps) / n
                ),
                format_float(
                    sum(s.best_scores.f_measure for s in sweeps) / n
                ),
                f"{1000 * sum(s.best_seconds for s in sweeps) / n:.1f}",
            ]
        )
    print(
        render_table(
            ["alg", "t*", "P", "R", "F1", "ms"],
            rows,
            title=(
                f"Dirty-ER clustering over {len(results)} self-join "
                f"graphs ({args.profile} profile, macro averages)"
            ),
        )
    )
    return 0


def _format_bytes(nbytes: int) -> str:
    for unit in ("B", "K", "M", "G"):
        if nbytes < 1024 or unit == "G":
            return (
                f"{nbytes}{unit}" if unit == "B"
                else f"{nbytes:.1f}{unit}"
            )
        nbytes /= 1024
    return f"{nbytes}B"  # pragma: no cover


def _command_store(args: argparse.Namespace) -> int:
    from repro.experiments.config import default_cache_dir
    from repro.pipeline.store import ArtifactStore

    root = (
        args.artifact_store
        if args.artifact_store is not None
        else default_cache_dir() / "artifacts"
    )
    store = ArtifactStore(root)
    json_mode = args.store_command == "ls" and getattr(args, "json", False)
    if not store.root.is_dir() and not json_mode:
        # Most often a default-path mismatch (generation ran with an
        # explicit --artifact-store elsewhere); say so instead of
        # silently reporting an empty store.  JSON mode keeps stdout
        # machine-parseable and reports the root in the payload.
        print(
            f"note: {store.root} does not exist — no store there yet "
            "(pass --artifact-store to select another directory)"
        )
    if json_mode:
        import json as json_module

        entries = store.entries()
        n_quarantined, quarantine_bytes = store.quarantine_counts()
        payload = {
            "root": str(store.root),
            "n_entries": len(entries),
            "total_bytes": int(sum(e.nbytes for e in entries)),
            "quarantine": {
                "n_entries": n_quarantined,
                "total_bytes": int(quarantine_bytes),
            },
            "entries": [
                {
                    "key": entry.key,
                    "dataset": entry.dataset,
                    "kind": entry.kind,
                    "params": list(entry.params),
                    "nbytes": int(entry.nbytes),
                    "stale": entry.stale,
                    "last_used": entry.last_used,
                    "created": entry.created,
                }
                for entry in entries
            ],
        }
        print(json_module.dumps(payload, indent=2, default=list))
        return 0
    if args.store_command == "ls":
        entries = store.entries()
        rows = [
            [
                entry.key[:12],
                entry.dataset,
                entry.kind,
                ",".join(str(p) for p in entry.params),
                _format_bytes(entry.nbytes),
                "stale" if entry.stale else "ok",
            ]
            for entry in entries
        ]
        print(
            render_table(
                ["key", "dataset", "kind", "params", "size", "state"],
                rows,
                title=(
                    f"Artifact store {store.root} — {len(entries)} "
                    f"entries, "
                    f"{_format_bytes(sum(e.nbytes for e in entries))}"
                ),
            )
        )
        n_quarantined, quarantine_bytes = store.quarantine_counts()
        if n_quarantined:
            noun = "entry" if n_quarantined == 1 else "entries"
            print(
                f"quarantine: {n_quarantined} corrupt {noun} "
                f"({_format_bytes(quarantine_bytes)}) moved aside in "
                f"{store.quarantine_root} — purge clears them"
            )
    elif args.store_command == "gc":
        evicted = store.gc(args.budget)
        print(
            f"evicted {len(evicted)} entries "
            f"({_format_bytes(sum(e.nbytes for e in evicted))}); "
            f"{_format_bytes(store.total_bytes())} kept in {store.root}"
        )
    else:  # purge
        n_quarantined, _ = store.quarantine_counts()
        count = store.purge()
        message = f"purged {count} entries from {store.root}"
        if n_quarantined:
            message += f" (+ {n_quarantined} quarantined)"
        print(message)
    return 0


def _command_block(args: argparse.Namespace) -> int:
    from repro.pipeline.blocking import build_candidate_set

    dataset = _generate_dataset(args)
    candidates = build_candidate_set(
        dataset.left.texts(), dataset.right.texts(), args.blocking
    )
    total = candidates.n_left * candidates.n_right
    print(
        f"{args.dataset}: {candidates.n_left} x {candidates.n_right} "
        f"records, blocking {candidates.scheme}"
    )
    print(
        f"candidates {candidates.n_pairs} / {total} dense pairs "
        f"(reduction {candidates.reduction:.1f}x)"
    )
    print(
        f"ground-truth pair recall "
        f"{candidates.recall(dataset.ground_truth):.4f} "
        f"({len(dataset.ground_truth)} truth pairs)"
    )
    for key, count in candidates.stats:
        print(f"  {key}={count}")
    return 0


def _command_shard(args: argparse.Namespace) -> int:
    from repro.pipeline.sharding import plan_for_dataset

    dataset = _generate_dataset(args)
    plan = plan_for_dataset(
        dataset,
        memory_budget=args.max_memory,
        blocking=args.blocking,
        n_shards=args.shards,
    )
    scheme = args.blocking if args.blocking is not None else "none"
    print(f"{args.dataset}: shard plan (blocking {scheme})")
    print(plan.describe())
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.service import ServiceConfig, create_app
    from repro.service.server import ServiceStartupError, serve

    if args.measure is not None:
        from repro.pipeline.batched_strings import check_measure

        try:
            check_measure(args.measure)
        except KeyError as error:
            raise ServiceStartupError(error.args[0]) from None
    from repro.datasets.catalog import default_max_pairs, default_scale

    # The warmup runs on a worker thread: read the environment defaults
    # here, so that a bad value is a usage error, as for every command.
    config = ServiceConfig(
        datasets=tuple(args.datasets),
        blocking=args.blocking,
        measure=args.measure,
        scale=default_scale() if args.scale is None else args.scale,
        max_pairs=(
            default_max_pairs() if args.max_pairs is None else args.max_pairs
        ),
        seed=args.seed,
        artifact_store=args.artifact_store,
        store_read_tier=_store_read_tier(args),
        max_batch=args.max_batch,
    )
    serve(create_app(config), host=args.host, port=args.port)
    return 0


def _command_stream(args: argparse.Namespace) -> int:
    import json

    from repro.extensions.dirty_er import DIRTY_ALGORITHM_CODES
    from repro.pipeline.batched_strings import check_measure
    from repro.pipeline.streaming import replay_stream, stream_report

    if args.algorithm.lower() == "all":
        algorithms = DIRTY_ALGORITHM_CODES
    else:
        algorithms = (args.algorithm.upper(),)
        if algorithms[0] not in DIRTY_ALGORITHM_CODES:
            known = " ".join(DIRTY_ALGORITHM_CODES)
            raise SystemExit(
                f"unknown algorithm {args.algorithm!r}; known: {known}"
            )
    try:
        check_measure(args.measure)
    except KeyError as error:
        raise SystemExit(error.args[0]) from None
    dataset = _generate_dataset(args)
    # The dirty-ER view: the union collection streamed against itself.
    texts = dataset.left.texts() + dataset.right.texts()
    result = replay_stream(
        texts,
        measure=args.measure,
        blocking=args.blocking,
        threshold=args.threshold,
        algorithms=algorithms,
        seed=args.seed,
        batch_size=args.batch_size,
        rebuild_probe=True,
    )
    report = stream_report(result, texts)
    identical = report["graph_identical"] and all(
        report["partitions_identical"].values()
    )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0 if identical else 1
    print(
        f"{args.dataset}: streamed {report['n_records']} records in "
        f"{report['n_batches']} batches of {report['batch_size']} "
        f"(seed {report['seed']}, blocking {report['blocking']})"
    )
    print(
        f"scored {report['n_pairs_scored']} candidate pairs -> "
        f"{report['n_edges']} edges "
        f"(batch path: {report['n_edges_batch']})"
    )
    print(
        f"graph bit-identical to batch: "
        f"{'yes' if report['graph_identical'] else 'NO'}"
    )
    for code, same in report["partitions_identical"].items():
        print(f"  {code} partition identical: {'yes' if same else 'NO'}")
    print(
        f"probe {report['probe_seconds']:.3f}s  "
        f"score {report['score_seconds']:.3f}s  "
        f"update {report['update_seconds']:.3f}s  "
        f"partition {report['partition_seconds']:.3f}s"
    )
    if report["rebuild_seconds"] is not None:
        amortized = report["probe_update_seconds"] / max(
            report["probe_records"], 1
        )
        print(
            f"half-way probe ({report['probe_records']} records): "
            f"amortized update {amortized * 1e6:.1f}us/record vs full "
            f"rebuild {report['rebuild_seconds']:.3f}s"
        )
    return 0 if identical else 1


_COMMANDS = {
    "match": _command_match,
    "generate": _command_generate,
    "sweep": _command_sweep,
    "experiments": _command_experiments,
    "corpus": _command_corpus,
    "dirty-er": _command_dirty_er,
    "store": _command_store,
    "block": _command_block,
    "shard": _command_shard,
    "serve": _command_serve,
    "stream": _command_stream,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    A ``KeyboardInterrupt`` exits cleanly with the conventional code
    130: every finished task already journaled as it landed (commits
    are atomic) and the pools shut down on unwind, so ``--resume``
    picks up exactly where the run stopped.  A permanent task failure
    (:class:`~repro.pipeline.resilience.ResilienceError`) and a
    service startup failure
    (:class:`~repro.service.server.ServiceStartupError`: unknown
    dataset, bad port, broken store) both print a clear one-line error
    to stderr and exit 1 — never a traceback.  A bad ``REPRO_SCALE`` or
    ``REPRO_MAX_PAIRS`` (:class:`~repro.datasets.catalog.SettingError`)
    prints its one line and exits 2, the usage-error code.
    """
    from repro.datasets.catalog import SettingError

    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SettingError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print(
            "\ninterrupted — completed work is journaled; rerun with "
            "--resume to continue where this run stopped",
            file=sys.stderr,
        )
        return 130
    except RuntimeError as error:
        from repro.pipeline.resilience import ResilienceError
        from repro.service.server import ServiceStartupError

        if isinstance(error, (ResilienceError, ServiceStartupError)):
            print(f"error: {error}", file=sys.stderr)
            return 1
        raise


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
