"""Fault-tolerance suite: ResilientPool, RunJournal, fault injection.

Every recovery path of :mod:`repro.pipeline.resilience` is driven from
the real process topology through the deterministic injectors of
:mod:`repro.testing.faults` (armed via the ``REPRO_FAULTS`` env var,
which is the only channel that reaches pool worker processes):

* worker crash (``kill``: the worker ``os._exit``\\ s as if OOM-killed)
  → broken-pool respawn, unfinished-only resubmission;
* worker hang (``delay`` past the per-task deadline) → pool abandoned,
  task retried on a fresh pool;
* task error (``error``) → bounded retry with backoff, then a
  :class:`ResilienceError` naming the failed keys;
* repeated pool death → graceful degradation to inline serial
  execution (with a warning);
* interruption → the run journal resumes, skipping completed work,
  with results bit-identical to an uninterrupted run.

The corpus-level tests assert the acceptance bar of the resilience
PR: a run that crashes, hangs or hits store corruption ends with
exactly the same graphs as the failure-free path.
"""

from __future__ import annotations

import dataclasses
import json
import warnings

import numpy as np
import pytest

from repro.pipeline.resilience import (
    JOURNAL_VERSION,
    JournalCodec,
    ResilienceError,
    ResilientPool,
    RetryPolicy,
    RunJournal,
    Task,
)
from repro.testing import faults

# ----------------------------------------------------------------------
# Module-level task payloads (process pools pickle them by reference)
# ----------------------------------------------------------------------


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom({x})")


def _write_json(value, path):
    (path / "value.json").write_text(json.dumps(value))


def _read_json(path):
    return json.loads((path / "value.json").read_text())


JSON_CODEC = JournalCodec(write=_write_json, read=_read_json)

#: Fast-failing policy for the unit tests.
FAST = RetryPolicy(
    max_retries=2, backoff_seconds=0.01, poll_seconds=0.02
)


def _tasks(n=4):
    return [Task(key=f"t{i}", fn=_square, args=(i,)) for i in range(n)]


def _expected(n=4):
    return {f"t{i}": i * i for i in range(n)}


# ----------------------------------------------------------------------
# RunJournal
# ----------------------------------------------------------------------
class TestRunJournal:
    def test_commit_and_lookup_roundtrip(self, tmp_path):
        journal = RunJournal(tmp_path, "run-a")
        assert journal.lookup("task-1") is None
        assert journal.commit("task-1", lambda p: _write_json(41, p))
        entry = journal.lookup("task-1")
        assert entry is not None
        assert _read_json(entry) == 41

    def test_commit_is_write_once(self, tmp_path):
        journal = RunJournal(tmp_path, "run-a")
        assert journal.commit("task-1", lambda p: _write_json(1, p))
        assert not journal.commit("task-1", lambda p: _write_json(2, p))
        assert _read_json(journal.lookup("task-1")) == 1

    def test_distinct_runs_do_not_share_entries(self, tmp_path):
        first = RunJournal(tmp_path, "run-a")
        second = RunJournal(tmp_path, "run-b")
        first.commit("task-1", lambda p: _write_json(1, p))
        assert second.lookup("task-1") is None

    def test_clear_drops_the_run(self, tmp_path):
        journal = RunJournal(tmp_path, "run-a")
        journal.commit("task-1", lambda p: _write_json(1, p))
        journal.clear()
        assert journal.lookup("task-1") is None
        assert journal.completed_keys() == set()

    def test_completed_keys(self, tmp_path):
        journal = RunJournal(tmp_path, "run-a")
        for key in ("x", "y"):
            journal.commit(key, lambda p: _write_json(0, p))
        assert journal.completed_keys() == {"x", "y"}

    def test_corrupt_marker_is_a_miss_and_removed(self, tmp_path):
        journal = RunJournal(tmp_path, "run-a")
        journal.commit("task-1", lambda p: _write_json(1, p))
        entry = journal.lookup("task-1")
        faults.corrupt_json(entry / "_entry.json")
        assert journal.lookup("task-1") is None
        assert not entry.exists()

    def test_foreign_version_is_a_miss(self, tmp_path):
        journal = RunJournal(tmp_path, "run-a")
        journal.commit("task-1", lambda p: _write_json(1, p))
        entry = journal.lookup("task-1")
        marker = entry / "_entry.json"
        meta = json.loads(marker.read_text())
        meta["version"] = JOURNAL_VERSION + 1
        marker.write_text(json.dumps(meta))
        assert journal.lookup("task-1") is None

    def test_run_dir_is_deterministic(self, tmp_path):
        assert (
            RunJournal(tmp_path, "run-a").dir
            == RunJournal(tmp_path, "run-a").dir
        )
        assert (
            RunJournal(tmp_path, "run-a").dir
            != RunJournal(tmp_path, "run-b").dir
        )


# ----------------------------------------------------------------------
# ResilientPool basics
# ----------------------------------------------------------------------
class TestPoolBasics:
    def test_inline_run(self):
        pool = ResilientPool(0, policy=FAST)
        assert pool.run(_tasks()) == _expected()

    def test_pooled_equals_inline(self):
        inline = ResilientPool(0, policy=FAST).run(_tasks(6))
        pooled = ResilientPool(2, policy=FAST).run(_tasks(6))
        assert pooled == inline == _expected(6)
        assert list(pooled) == [f"t{i}" for i in range(6)]  # caller order

    def test_thread_pool(self):
        pool = ResilientPool(3, kind="thread", policy=FAST)
        assert pool.run(_tasks(6)) == _expected(6)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ResilientPool(1, kind="fiber")

    def test_journal_requires_codec(self, tmp_path):
        with pytest.raises(ValueError, match="codec"):
            ResilientPool(1, journal=RunJournal(tmp_path, "r"))

    def test_duplicate_keys_rejected(self):
        pool = ResilientPool(0, policy=FAST)
        tasks = [Task("same", _square, (1,)), Task("same", _square, (2,))]
        with pytest.raises(ValueError, match="duplicate"):
            pool.run(tasks)

    def test_on_result_fires_per_task(self):
        seen = []
        ResilientPool(0, policy=FAST).run(
            _tasks(3), on_result=lambda key, value: seen.append((key, value))
        )
        assert sorted(seen) == [("t0", 0), ("t1", 1), ("t2", 4)]


# ----------------------------------------------------------------------
# Retry / permanent failure
# ----------------------------------------------------------------------
class TestRetries:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_transient_error_retries_to_success(self, monkeypatch, workers):
        # First attempt of t1 raises; the retry (attempt 1) succeeds.
        faults.inject(
            monkeypatch, {"match": "t1", "action": "error", "attempts": [0]}
        )
        pool = ResilientPool(workers, policy=FAST)
        assert pool.run(_tasks()) == _expected()

    @pytest.mark.parametrize("workers", [0, 2])
    def test_permanent_error_names_the_key(self, monkeypatch, workers):
        faults.inject(
            monkeypatch, {"match": "t2", "action": "error", "attempts": None}
        )
        pool = ResilientPool(workers, policy=FAST)
        with pytest.raises(ResilienceError) as excinfo:
            pool.run(_tasks())
        error = excinfo.value
        assert [f.key for f in error.failures] == ["t2"]
        assert error.failures[0].attempts == FAST.max_retries + 1
        assert "t2" in str(error)

    def test_plain_exception_reports_error_kind(self):
        pool = ResilientPool(0, policy=FAST)
        tasks = [Task("ok", _square, (3,)), Task("bad", _boom, (3,))]
        with pytest.raises(ResilienceError) as excinfo:
            pool.run(tasks)
        (failure,) = excinfo.value.failures
        assert failure.key == "bad"
        assert failure.kind == "error"
        assert "boom(3)" in failure.error

    def test_serial_cancels_pending_after_permanent_failure(
        self, monkeypatch
    ):
        faults.inject(
            monkeypatch, {"match": "t0", "action": "error", "attempts": None}
        )
        with pytest.raises(ResilienceError) as excinfo:
            ResilientPool(0, policy=FAST).run(_tasks(3))
        error = excinfo.value
        assert [f.key for f in error.failures] == ["t0"]
        assert set(error.cancelled) == {"t1", "t2"}
        assert error.completed == 0


# ----------------------------------------------------------------------
# Worker crash / hang recovery
# ----------------------------------------------------------------------
class TestProcessFailures:
    def test_worker_crash_recovers_bit_identically(self, monkeypatch):
        # t2's first attempt OOM-kill-style exits the worker, breaking
        # the pool; the respawned pool resubmits only unfinished tasks
        # and the result equals the failure-free run exactly.
        clean = ResilientPool(2, policy=FAST).run(_tasks(5))
        faults.inject(
            monkeypatch, {"match": "t2", "action": "kill", "attempts": [0]}
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no degradation warning
            crashed = ResilientPool(2, policy=FAST).run(_tasks(5))
        assert crashed == clean == _expected(5)

    def test_hang_past_deadline_recovers(self, monkeypatch):
        policy = RetryPolicy(
            max_retries=2,
            backoff_seconds=0.01,
            deadline_seconds=0.3,
            poll_seconds=0.02,
        )
        faults.inject(
            monkeypatch,
            {"match": "t1", "action": "delay", "seconds": 5.0,
             "attempts": [0]},
        )
        pool = ResilientPool(2, policy=policy)
        assert pool.run(_tasks(4)) == _expected(4)

    def test_degrades_to_serial_after_repeated_pool_death(
        self, monkeypatch
    ):
        # A deterministic crasher (kill on every attempt) breaks the
        # pool max_pool_failures times; the survivors then finish
        # inline in the parent — where the parent-pid guard keeps the
        # kill rule from firing — under a RuntimeWarning.
        policy = RetryPolicy(
            max_retries=6,
            backoff_seconds=0.01,
            max_pool_failures=2,
            poll_seconds=0.02,
        )
        faults.inject(
            monkeypatch, {"match": "t3", "action": "kill", "attempts": None}
        )
        pool = ResilientPool(2, policy=policy)
        with pytest.warns(RuntimeWarning, match="inline serially"):
            assert pool.run(_tasks(5)) == _expected(5)


# ----------------------------------------------------------------------
# Journaling + resume
# ----------------------------------------------------------------------
class TestJournalResume:
    def _pool(self, tmp_path, workers=0, policy=FAST):
        journal = RunJournal(tmp_path, "resume-run")
        return (
            ResilientPool(
                workers, policy=policy, journal=journal, codec=JSON_CODEC
            ),
            journal,
        )

    def test_completed_work_journals_on_failure(self, tmp_path, monkeypatch):
        faults.inject(
            monkeypatch, {"match": "t2", "action": "error", "attempts": None}
        )
        pool, journal = self._pool(tmp_path)
        with pytest.raises(ResilienceError):
            pool.run(_tasks(4))
        # Everything that finished before the failure is on disk.
        assert journal.completed_keys() == {"t0", "t1"}

    def test_resume_skips_journaled_tasks(self, tmp_path, monkeypatch):
        faults.inject(
            monkeypatch, {"match": "t2", "action": "error", "attempts": None}
        )
        pool, journal = self._pool(tmp_path)
        with pytest.raises(ResilienceError):
            pool.run(_tasks(4))
        # Second run: the old fault is gone, and a new standing fault
        # on the journaled keys proves they are loaded, not re-run.
        faults.inject(
            monkeypatch,
            {"match": "t0", "action": "error", "attempts": None},
            {"match": "t1", "action": "error", "attempts": None},
        )
        pool, _ = self._pool(tmp_path)
        assert pool.run(_tasks(4)) == _expected(4)

    def test_resumed_results_equal_uninterrupted(self, tmp_path, monkeypatch):
        uninterrupted = ResilientPool(0, policy=FAST).run(_tasks(4))
        faults.inject(
            monkeypatch, {"match": "t3", "action": "error", "attempts": None}
        )
        pool, _ = self._pool(tmp_path)
        with pytest.raises(ResilienceError):
            pool.run(_tasks(4))
        monkeypatch.delenv(faults.ENV_VAR)
        pool, journal = self._pool(tmp_path)
        assert pool.run(_tasks(4)) == uninterrupted
        journal.clear()

    def test_journal_hits_skip_on_result(self, tmp_path):
        pool, journal = self._pool(tmp_path)
        pool.run(_tasks(3))
        seen = []
        pool, _ = self._pool(tmp_path)
        pool.run(_tasks(3), on_result=lambda k, v: seen.append(k))
        assert seen == []  # all three were preloaded from the journal
        journal.clear()

    def test_undecodable_entry_recomputes(self, tmp_path):
        pool, journal = self._pool(tmp_path)
        pool.run(_tasks(2))
        entry = journal.lookup("t1")
        (entry / "value.json").write_text("{broken")
        pool, _ = self._pool(tmp_path)
        assert pool.run(_tasks(2)) == _expected(2)


# ----------------------------------------------------------------------
# Corpus-level end-to-end recovery
# ----------------------------------------------------------------------
from repro.pipeline.workbench import (  # noqa: E402
    GraphCorpusConfig,
    generate_corpus,
)

CORPUS_CONFIG = GraphCorpusConfig(
    datasets=("d1", "d2", "d3"),
    scale=0.02,
    max_pairs=1_500,
    families=("schema_based_syntactic",),
    schema_based_measures=("levenshtein", "jaccard"),
    max_attributes=1,
)


def _assert_same_records(first, second):
    """Bit-identity of two corpora (timings are wall-clock, excluded)."""
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert (a.dataset, a.family, a.function, a.category) == (
            b.dataset, b.family, b.function, b.category
        )
        assert a.ground_truth == b.ground_truth
        assert np.array_equal(a.graph.left, b.graph.left)
        assert np.array_equal(a.graph.right, b.graph.right)
        assert np.array_equal(a.graph.weight, b.graph.weight)


def _written(cache):
    """Modification stamp of every file directly in ``cache``."""
    return {
        file.name: file.stat().st_mtime_ns
        for file in cache.iterdir()
        if file.is_file()
    }


class TestCorpusResilience:
    @pytest.fixture(scope="class")
    def clean(self):
        return generate_corpus(CORPUS_CONFIG)

    def test_worker_crash_is_invisible_in_the_corpus(
        self, clean, monkeypatch
    ):
        faults.inject(
            monkeypatch, {"match": ":d2", "action": "kill", "attempts": [0]}
        )
        crashed = generate_corpus(
            dataclasses.replace(CORPUS_CONFIG, workers=2), policy=FAST
        )
        _assert_same_records(clean, crashed)

    def test_interrupted_run_resumes_bit_identically(
        self, clean, tmp_path, monkeypatch
    ):
        # First run dies permanently on the d3 group after d1/d2
        # journaled; the resumed run recomputes only d3 and assembles
        # the exact failure-free corpus.
        faults.inject(
            monkeypatch, {"match": ":d3", "action": "error",
                          "attempts": None}
        )
        with pytest.raises(ResilienceError) as excinfo:
            generate_corpus(
                CORPUS_CONFIG, journal_dir=tmp_path, policy=FAST
            )
        assert any(":d3" in f.key for f in excinfo.value.failures)
        # Resume with the d3 fault cleared and the *journaled* groups
        # poisoned: success proves they were loaded, not re-run.
        faults.inject(
            monkeypatch,
            {"match": ":d1", "action": "error", "attempts": None},
            {"match": ":d2", "action": "error", "attempts": None},
        )
        resumed = generate_corpus(
            CORPUS_CONFIG, journal_dir=tmp_path, resume=True, policy=FAST
        )
        _assert_same_records(clean, resumed)

    def test_fresh_start_clears_a_stale_journal(self, tmp_path, monkeypatch):
        faults.inject(
            monkeypatch, {"match": ":d3", "action": "error",
                          "attempts": None}
        )
        with pytest.raises(ResilienceError):
            generate_corpus(
                CORPUS_CONFIG, journal_dir=tmp_path, policy=FAST
            )
        monkeypatch.delenv(faults.ENV_VAR)
        from repro.pipeline.resilience import RunJournal as RJ

        journal = RJ(tmp_path, f"corpus-{CORPUS_CONFIG.cache_key()}")
        assert journal.completed_keys()  # the interrupted run left work
        generate_corpus(CORPUS_CONFIG, journal_dir=tmp_path, policy=FAST)
        # Success clears the journal (the corpus cache takes over).
        assert journal.completed_keys() == set()

    def test_older_journal_layouts_are_ignored(self, clean, tmp_path):
        """Journals in the two layouts that preceded the one executor
        are never read: their groups are recomputed.

        A dense run committed each spec group's records (a
        ``records.json`` plus one graph file per record) under the task
        key ``NNN:code``; a ``max_memory`` run committed shard edges
        under the run key ``corpus-shards-<cache key>``.  Both entries
        below hold one-edge graphs, so a misread shows in the corpus.
        """
        from repro.graph.bipartite import SimilarityGraph
        from repro.graph.io import save_graph
        from repro.pipeline import workbench

        key = CORPUS_CONFIG.cache_key()
        dense = RunJournal(tmp_path, f"corpus-{key}")
        shards = RunJournal(tmp_path, f"corpus-shards-{key}")
        for index, (code, group) in enumerate(
            workbench._corpus_tasks(CORPUS_CONFIG)
        ):
            names = {spec.name for spec in group.specs}
            chunk = [
                r for r in clean if r.dataset == code and r.function in names
            ]
            assert chunk

            def write_records(path, chunk=chunk, code=code):
                graphs = []
                for position, record in enumerate(chunk):
                    filename = f"graph_{position:03d}.npz"
                    save_graph(
                        SimilarityGraph.from_edges(
                            *record.graph.sizes, [(0, 0, 1.0)]
                        ),
                        path / filename,
                    )
                    graphs.append(
                        {
                            "file": filename,
                            "dataset": record.dataset,
                            "family": record.family,
                            "function": record.function,
                            "category": record.category,
                            "build_seconds": 1.0,
                            "artifact_seconds": 0.0,
                            "matrix_seconds": 1.0,
                            "graph_seconds": 0.0,
                            "dedup_ratio": 1.0,
                            "candidate_reduction": 1.0,
                        }
                    )
                body = {
                    "ground_truth": {code: sorted(chunk[0].ground_truth)},
                    "graphs": graphs,
                }
                (path / "records.json").write_text(json.dumps(body))

            assert dense.commit(f"{index:03d}:{code}", write_records)
            n_left = len(workbench._generate(CORPUS_CONFIG, code).left)

            def write_shard(path, n_specs=len(group.specs)):
                one_edge = {}
                for spec_index in range(n_specs):
                    one_edge[f"left_{spec_index}"] = np.zeros(1, np.int64)
                    one_edge[f"right_{spec_index}"] = np.zeros(1, np.int64)
                    one_edge[f"values_{spec_index}"] = np.ones(1)
                np.savez(path / "edges.npz", **one_edge)
                meta = {
                    "specs": [
                        {"artifact_seconds": 0.0, "matrix_seconds": 1.0}
                    ] * n_specs,
                    "stats": [
                        {"dedup_ratio": 1.0, "candidate_reduction": 1.0}
                    ] * n_specs,
                }
                (path / "shard.json").write_text(json.dumps(meta))

            assert shards.commit(
                f"{index:03d}:{code}:s000:r0-{n_left}", write_shard
            )
        resumed = generate_corpus(
            CORPUS_CONFIG, journal_dir=tmp_path, resume=True, policy=FAST
        )
        _assert_same_records(clean, resumed)
        # The run's own journal is cleared on success; the old shards
        # journal lives under a run key nothing resolves to any more.
        assert dense.completed_keys() == set()
        assert len(shards.completed_keys()) == len(
            workbench._corpus_tasks(CORPUS_CONFIG)
        )

    @pytest.mark.parametrize("max_memory", [None, 1 << 20])
    def test_serial_run_generates_each_dataset_once(
        self, max_memory, monkeypatch
    ):
        from repro.pipeline import workbench

        # Three spec groups per dataset, so one task per dataset cannot
        # hide a generation per task.
        config = dataclasses.replace(
            CORPUS_CONFIG,
            families=("schema_based_syntactic", "schema_agnostic_syntactic"),
            ngram_models=(("token", 1),),
            vector_measures=("cosine_tf",),
            graph_measures=("containment",),
        )
        codes = [code for code, _ in workbench._corpus_tasks(config)]
        assert codes == [code for code in config.datasets for _ in range(3)]
        expected = generate_corpus(config)
        generated = []
        real = workbench.generate_dataset

        def counting(spec, *args, **kwargs):
            generated.append(spec.code)
            return real(spec, *args, **kwargs)

        monkeypatch.setattr(workbench, "generate_dataset", counting)
        monkeypatch.setattr(workbench, "_WORKER_STATE", {})
        generated_corpus = generate_corpus(
            dataclasses.replace(config, max_memory=max_memory)
        )
        _assert_same_records(expected, generated_corpus)
        assert generated == list(config.datasets)

    def test_store_corruption_quarantines_and_recomputes(
        self, clean, tmp_path, monkeypatch
    ):
        from repro.pipeline.store import ArtifactStore

        store_dir = tmp_path / "store"
        stored = dataclasses.replace(
            CORPUS_CONFIG, artifact_store=str(store_dir)
        )
        cold = generate_corpus(stored)
        _assert_same_records(clean, cold)
        store = ArtifactStore(store_dir)
        assert store.entries()
        faults.truncate_store_payload(store, keep_bytes=24)
        warm = generate_corpus(stored)
        _assert_same_records(clean, warm)
        assert ArtifactStore(store_dir).quarantine_counts()[0] >= 1

    @pytest.mark.parametrize("name", ["manifest.json", "graph_0001.npz"])
    def test_torn_corpus_cache_file_regenerates(
        self, clean, name, tmp_path, capsys
    ):
        """A torn corpus cache file is a miss: moved aside, said in one
        stderr line, and the corpus regenerated into a whole cache."""
        generate_corpus(CORPUS_CONFIG, cache_dir=tmp_path)
        (manifest,) = tmp_path.glob("*/manifest.json")
        cache = manifest.parent
        path = cache / name
        torn = path.stat().st_size // 2
        faults.truncate_file(path, keep_bytes=torn)
        capsys.readouterr()
        recovered = generate_corpus(CORPUS_CONFIG, cache_dir=tmp_path)
        _assert_same_records(clean, recovered)
        (line,) = capsys.readouterr().err.splitlines()
        assert str(path) in line
        assert (cache / "quarantine" / name).stat().st_size == torn

        # The rewritten cache is whole: the next run loads it as is.
        before = _written(cache)
        assert path.name in before
        loaded = generate_corpus(CORPUS_CONFIG, cache_dir=tmp_path)
        _assert_same_records(clean, loaded)
        assert _written(cache) == before
        assert capsys.readouterr().err == ""

    def test_missing_corpus_cache_file_regenerates(
        self, clean, tmp_path, capsys
    ):
        """A graph file the manifest names but the cache lacks is a
        miss too: said in one stderr line, nothing quarantined, and the
        corpus regenerated into a whole cache."""
        generate_corpus(CORPUS_CONFIG, cache_dir=tmp_path)
        (manifest,) = tmp_path.glob("*/manifest.json")
        cache = manifest.parent
        path = cache / "graph_0001.npz"
        path.unlink()
        capsys.readouterr()
        recovered = generate_corpus(CORPUS_CONFIG, cache_dir=tmp_path)
        _assert_same_records(clean, recovered)
        (line,) = capsys.readouterr().err.splitlines()
        assert str(path) in line
        assert not (cache / "quarantine").exists()

        before = _written(cache)
        assert path.name in before
        loaded = generate_corpus(CORPUS_CONFIG, cache_dir=tmp_path)
        _assert_same_records(clean, loaded)
        assert _written(cache) == before
        assert capsys.readouterr().err == ""

    def test_missing_dirty_corpus_cache_file_regenerates(
        self, tmp_path, capsys
    ):
        """The self-join corpus reads its cache through the same
        loader: its last graph file missing is a miss as well."""
        from repro.pipeline.workbench import generate_dirty_corpus

        first = generate_dirty_corpus(CORPUS_CONFIG, cache_dir=tmp_path)
        (manifest,) = tmp_path.glob("*/manifest.json")
        path = manifest.parent / f"graph_{len(first) - 1:04d}.npz"
        path.unlink()
        capsys.readouterr()
        recovered = generate_dirty_corpus(CORPUS_CONFIG, cache_dir=tmp_path)
        (line,) = capsys.readouterr().err.splitlines()
        assert str(path) in line
        assert path.exists()
        assert not (manifest.parent / "quarantine").exists()
        assert len(recovered) == len(first)
        for a, b in zip(first, recovered):
            assert a.ground_truth == b.ground_truth
            assert np.array_equal(a.graph.u, b.graph.u)
            assert np.array_equal(a.graph.v, b.graph.v)
            assert np.array_equal(a.graph.weight, b.graph.weight)


# ----------------------------------------------------------------------
# Sweep-level failure reporting and resume
# ----------------------------------------------------------------------
class TestResultsCache:
    """A torn results cache is a miss: moved aside, recomputed, said."""

    def test_torn_results_cache_recomputes(self, tmp_path, capsys):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import run_experiments

        config = ExperimentConfig(
            corpus=CORPUS_CONFIG, bah_max_moves=100, bah_time_limit=30.0
        )

        def outcomes(results):
            # Every field but the per-threshold wall-clock seconds.
            rows = [dataclasses.asdict(result) for result in results]
            for row in rows:
                for sweep in row["sweeps"].values():
                    for point in sweep["points"]:
                        del point["seconds"]
            return rows

        cold = outcomes(run_experiments(config, cache_dir=tmp_path / "a"))
        cache = tmp_path / "b"
        run_experiments(config, cache_dir=cache)
        (path,) = (cache / "experiments").glob("*_results.json")
        torn = path.stat().st_size // 2
        faults.truncate_file(path, keep_bytes=torn)
        capsys.readouterr()
        assert outcomes(run_experiments(config, cache_dir=cache)) == cold
        (line,) = capsys.readouterr().err.splitlines()
        assert str(path) in line
        aside = cache / "experiments" / "quarantine" / path.name
        assert aside.stat().st_size == torn
        # The rewritten cache is whole and serves the next run.
        assert path.stat().st_size > torn
        assert outcomes(run_experiments(config, cache_dir=cache)) == cold
        assert capsys.readouterr().err == ""


class TestSweepResilience:
    @pytest.fixture(scope="class")
    def records(self):
        from tests.experiments.test_parallel_sweep import synthetic_records

        return synthetic_records(3)

    @pytest.fixture(scope="class")
    def config(self):
        from repro.experiments.config import ExperimentConfig

        return ExperimentConfig(bah_max_moves=100, bah_time_limit=30.0)

    def test_failed_cell_names_graph_and_codes(
        self, records, config, monkeypatch
    ):
        from repro.experiments.runner import run_matching_sweeps

        faults.inject(
            monkeypatch,
            {"match": ":fn1:", "action": "error", "attempts": None},
        )
        with pytest.raises(ResilienceError) as excinfo:
            run_matching_sweeps(records, config, policy=FAST)
        (failure,) = excinfo.value.failures
        assert "d1" in failure.key and "fn1" in failure.key

    def test_sweeps_resume_bit_identically(
        self, records, config, tmp_path, monkeypatch
    ):
        from repro.experiments.runner import run_matching_sweeps
        from repro.pipeline.resilience import RunJournal as RJ

        def flat(results):
            return [
                (r.dataset, code, [
                    (p.threshold, p.scores) for p in sweep.points
                ])
                for r in results
                for code, sweep in r.sweeps.items()
            ]

        baseline = run_matching_sweeps(records, config)
        journal = RJ(tmp_path, "sweep-resume")
        faults.inject(
            monkeypatch,
            {"match": ":fn2:", "action": "error", "attempts": None},
        )
        with pytest.raises(ResilienceError):
            run_matching_sweeps(
                records, config, policy=FAST, journal=journal
            )
        # Resume: fn2's fault gone, journaled graphs poisoned.
        faults.inject(
            monkeypatch,
            {"match": ":fn0:", "action": "error", "attempts": None},
            {"match": ":fn1:", "action": "error", "attempts": None},
        )
        resumed = run_matching_sweeps(
            records, config, policy=FAST, journal=journal
        )
        assert flat(resumed) == flat(baseline)

    def test_dirty_sweeps_report_failures(self, monkeypatch):
        from repro.experiments.runner import run_dirty_er_sweeps
        from repro.graph.unipartite import UnipartiteGraph
        from repro.pipeline.workbench import GraphRecord

        rng = np.random.default_rng(3)
        m = 60
        records = [
            GraphRecord(
                graph=UnipartiteGraph.from_edges(
                    12,
                    [
                        (int(u), int(v), float(w))
                        for u, v, w in zip(
                            rng.integers(0, 12, m),
                            rng.integers(0, 12, m),
                            np.maximum(np.round(rng.random(m), 2), 0.01),
                        )
                        if u != v
                    ],
                ),
                dataset=f"d{index}",
                family="synthetic",
                function=f"fn{index}",
                category="BLC",
                ground_truth={(0, 1), (2, 3)},
            )
            for index in range(2)
        ]
        faults.inject(
            monkeypatch,
            {"match": ":fn1:", "action": "error", "attempts": None},
        )
        with pytest.raises(ResilienceError) as excinfo:
            run_dirty_er_sweeps(
                records, grid=(0.3, 0.6), policy=FAST
            )
        (failure,) = excinfo.value.failures
        assert "fn1" in failure.key


# ----------------------------------------------------------------------
# CLI behaviour: clean interrupt, failure reporting, sweep --resume
# ----------------------------------------------------------------------
class TestCliResilience:
    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys):
        from repro import cli

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._COMMANDS, "store", interrupted)
        assert cli.main(["store", "ls"]) == 130
        err = capsys.readouterr().err
        assert "--resume" in err

    def test_resilience_error_exits_1(self, monkeypatch, capsys):
        from repro import cli
        from repro.pipeline.resilience import TaskFailure

        def failed(args):
            raise ResilienceError(
                [TaskFailure("002:d7:jaccard:UMC", 3, "boom", "error")],
                ["003:d8:cosine:UMC"],
                2,
            )

        monkeypatch.setitem(cli._COMMANDS, "store", failed)
        assert cli.main(["store", "ls"]) == 1
        err = capsys.readouterr().err
        assert "002:d7:jaccard:UMC" in err

    def test_other_runtime_errors_propagate(self, monkeypatch):
        from repro import cli

        def broken(args):
            raise RuntimeError("unrelated")

        monkeypatch.setitem(cli._COMMANDS, "store", broken)
        with pytest.raises(RuntimeError, match="unrelated"):
            cli.main(["store", "ls"])

    @pytest.fixture
    def sweep_inputs(self, tmp_path):
        rng = np.random.default_rng(17)
        graph_path = tmp_path / "graph.csv"
        truth_path = tmp_path / "truth.csv"
        lines = ["left,right,weight"]
        for _ in range(80):
            lines.append(
                f"{rng.integers(0, 10)},{rng.integers(0, 10)},"
                f"{round(float(rng.random()), 2)}"
            )
        graph_path.write_text("\n".join(lines))
        truth_path.write_text(
            "\n".join(["left,right"] + [f"{i},{i}" for i in range(8)])
        )
        return graph_path, truth_path

    def test_sweep_resume_skips_finished_codes(
        self, sweep_inputs, tmp_path, monkeypatch, capsys
    ):
        from repro import cli

        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "cache"))
        graph_path, truth_path = sweep_inputs
        argv = [
            "sweep", str(graph_path), str(truth_path), "--resume",
            "--algorithm", "all",
        ]
        clean_code = cli.main(argv)
        assert clean_code == 0
        clean_table = capsys.readouterr().out
        # Interrupt-equivalent: BMC (fifth in paper order) fails
        # permanently mid-run, after CNC/RSR/RCA/BAH journaled.
        faults.inject(
            monkeypatch, {"match": "BMC", "action": "error",
                          "attempts": None}
        )
        assert cli.main(argv) == 1
        capsys.readouterr()
        # Resume: BMC healed, every already-finished code poisoned on
        # all attempts — the table only completes via the journal.
        faults.inject(
            monkeypatch,
            *[
                {"match": code, "action": "error", "attempts": None}
                for code in ("CNC", "RSR", "RCA", "BAH")
            ],
        )
        assert cli.main(argv) == 0
        resumed_table = capsys.readouterr().out

        def scores_only(table):
            return [
                row.split()[:5]
                for row in table.splitlines()
                if row and not row.startswith(("Threshold", "-"))
            ]

        assert scores_only(resumed_table) == scores_only(clean_table)
