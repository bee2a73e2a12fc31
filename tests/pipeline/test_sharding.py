"""Sharded execution tier: planner determinism, merge bit-identity.

Property guarantees (hypothesis):

* the merged shard graph equals the unsharded graph bit-for-bit on
  random corpora, for any shard count, dense and blocked alike,
* shard plans partition the row space exactly — disjoint, consecutive,
  complete — for any planner inputs.

Plus deterministic coverage of the budget heuristics, the
``max_memory`` corpus path for bipartite and self-join corpora
(shard-count and worker-count invariance) and resume-after-kill
mid-shard through the :mod:`repro.testing.faults` harness.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.generator import CleanCleanDataset, DatasetSpec
from repro.datasets.profile import EntityCollection, EntityProfile
from repro.pipeline.engine import SimilarityEngine
from repro.pipeline.graph_builder import pairs_to_graph
from repro.pipeline.resilience import ResilienceError, RetryPolicy
from repro.pipeline.sharding import ShardPlanner, plan_for_dataset
from repro.pipeline.similarity_functions import SimilarityFunctionSpec
from repro.pipeline.workbench import (
    GraphCorpusConfig,
    concat_scores,
    generate_corpus,
    generate_dirty_corpus,
)
from repro.testing import faults
from tests.oracles.similarity import compute_similarity_matrix, matrix_to_graph

strings = st.lists(
    st.text(alphabet="abcde _", min_size=1, max_size=12).filter(str.strip),
    min_size=1,
    max_size=8,
)

FAST = RetryPolicy(max_retries=2, backoff_seconds=0.01)


def _dataset(lefts, rights) -> CleanCleanDataset:
    """Minimal clean-clean dataset over explicit attribute values."""
    spec = DatasetSpec(
        code="t0",
        domain="synthetic",
        n_left=len(lefts),
        n_right=len(rights),
        n_duplicates=0,
        schema_attributes=("name",),
    )
    return CleanCleanDataset(
        spec=spec,
        left=EntityCollection(
            name="left",
            profiles=[
                EntityProfile(f"L{i}", {"name": v} if v else {})
                for i, v in enumerate(lefts)
            ],
        ),
        right=EntityCollection(
            name="right",
            profiles=[
                EntityProfile(f"R{j}", {"name": v} if v else {})
                for j, v in enumerate(rights)
            ],
        ),
        ground_truth=set(),
    )


def _measure_spec(measure: str) -> SimilarityFunctionSpec:
    return SimilarityFunctionSpec(
        family="schema_based_syntactic",
        details={"attribute": "name", "measure": measure},
        name=measure,
    )


def _merged_graph(engine, spec, plan):
    """``spec``'s graph scored shard by shard over ``plan``'s ranges
    and merged in range order."""
    n_left, n_right = engine.shape()
    merged = concat_scores(
        [
            engine.score([spec], start, stop)[0]
            for start, stop in plan.ranges()
        ]
    )
    return pairs_to_graph(n_left, n_right, *merged.edges)


def _graphs_equal(a, b) -> bool:
    return (
        np.array_equal(a.left, b.left)
        and np.array_equal(a.right, b.right)
        and np.array_equal(a.weight, b.weight)
    )


_CORPUS_CONFIG = GraphCorpusConfig(
    datasets=("d1",),
    families=("schema_based_syntactic",),
    seed=7,
    schema_based_measures=("levenshtein", "jaro"),
    max_attributes=1,
)

_BUDGETED = dataclasses.replace(_CORPUS_CONFIG, max_memory=1 << 20)


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------
class TestShardPlanner:
    @given(
        n_left=st.integers(0, 5000),
        n_right=st.integers(0, 5000),
        n_shards=st.integers(1, 9),
    )
    @settings(max_examples=50, deadline=None)
    def test_ranges_partition_rows(self, n_left, n_right, n_shards):
        plan = ShardPlanner.plan(n_left, n_right, n_shards=n_shards)
        ranges = plan.ranges()
        assert ranges[0][0] == 0
        assert ranges[-1][1] == plan.n_left
        for (_, stop), (start, _) in zip(ranges, ranges[1:]):
            assert stop == start
        assert all(start < stop for start, stop in ranges[:-1])

    def test_plan_is_deterministic(self):
        kwargs = dict(
            candidates_per_row=12.5, unique_fraction=0.4
        )
        first = ShardPlanner.plan(10_000, 2_000, 64 << 20, **kwargs)
        second = ShardPlanner.plan(10_000, 2_000, 64 << 20, **kwargs)
        assert first == second

    def test_no_budget_means_one_shard(self):
        plan = ShardPlanner.plan(10_000, 2_000)
        assert plan.n_shards == 1
        assert plan.ranges() == [(0, 10_000)]

    def test_smaller_budget_never_fewer_shards(self):
        small = ShardPlanner.plan(50_000, 4_000, 48 << 20)
        large = ShardPlanner.plan(50_000, 4_000, 256 << 20)
        assert small.n_shards >= large.n_shards
        assert large.n_shards >= 1

    def test_candidate_density_allows_larger_shards(self):
        dense = ShardPlanner.plan(50_000, 4_000, 64 << 20)
        blocked = ShardPlanner.plan(
            50_000, 4_000, 64 << 20, candidates_per_row=8.0
        )
        assert blocked.n_shards <= dense.n_shards

    def test_plan_for_dataset_uses_blocking_density(self):
        dataset = _dataset(
            ["alpha beta", "beta gamma", "delta"] * 5,
            ["alpha gamma", "beta", "epsilon delta"] * 5,
        )
        dense = plan_for_dataset(dataset)
        blocked = plan_for_dataset(dataset, blocking="tokens")
        assert dense.n_shards == blocked.n_shards == 1
        assert blocked.bytes_per_row <= dense.bytes_per_row

    def test_describe_mentions_every_shard(self):
        plan = ShardPlanner.plan(100, 50, n_shards=3)
        text = plan.describe()
        assert "3 shard(s)" in text
        for start, stop in plan.ranges():
            assert f"[{start}, {stop})" in text


# ----------------------------------------------------------------------
# Merge bit-identity (engine level)
# ----------------------------------------------------------------------
class TestMergedEqualsUnsharded:
    MEASURES = ("levenshtein", "jaro", "cosine_tokens")

    @given(lefts=strings, rights=strings, n_shards=st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_dense_merge_bitwise_equal(self, lefts, rights, n_shards):
        dataset = _dataset(lefts, rights)
        plan = ShardPlanner.plan(
            len(lefts), len(rights), n_shards=n_shards
        )
        engine = SimilarityEngine(dataset)
        for measure in self.MEASURES:
            spec = _measure_spec(measure)
            expected = matrix_to_graph(
                compute_similarity_matrix(dataset, spec)
            )
            merged = _merged_graph(engine, spec, plan)
            assert _graphs_equal(expected, merged), measure

    @given(lefts=strings, rights=strings, n_shards=st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_blocked_merge_bitwise_equal(self, lefts, rights, n_shards):
        dataset = _dataset(lefts, rights)
        plan = ShardPlanner.plan(
            len(lefts), len(rights), n_shards=n_shards
        )
        engine = SimilarityEngine(dataset, blocking="tokens:max_df=1")
        for measure in self.MEASURES:
            spec = _measure_spec(measure)
            [scores] = engine.score([spec])
            expected = pairs_to_graph(
                len(lefts), len(rights), *scores.edges
            )
            merged = _merged_graph(engine, spec, plan)
            assert _graphs_equal(expected, merged), measure

    def test_shard_count_invariance(self):
        dataset = _dataset(
            ["alpha beta", "beta gamma", "delta", "", "epsilon"],
            ["alpha gamma", "beta", "epsilon delta", "zeta eta"],
        )
        engine = SimilarityEngine(dataset)
        spec = _measure_spec("levenshtein")
        graphs = [
            _merged_graph(engine, spec, ShardPlanner.plan(5, 4, n_shards=n))
            for n in (1, 2, 5)
        ]
        assert _graphs_equal(graphs[0], graphs[1])
        assert _graphs_equal(graphs[0], graphs[2])

    def test_string_shards_score_only_their_rows(self, monkeypatch):
        # Inside one row-chunk grid cell, a string-measure shard must
        # not rescore the whole cell: the kernels see only its rows.
        import repro.pipeline.batched_strings as batched_strings

        dataset = _dataset(
            [f"value {i}" for i in range(12)], ["value 3", "other"]
        )
        engine = SimilarityEngine(dataset)
        spec = _measure_spec("levenshtein")
        scored = []
        real = batched_strings.schema_based_cells

        def counting(batch, measure, cell_left, cell_right=None):
            scored.append(len(cell_left))
            return real(batch, measure, cell_left, cell_right)

        monkeypatch.setattr(batched_strings, "schema_based_cells", counting)
        _merged_graph(engine, spec, ShardPlanner.plan(12, 2, n_shards=4))
        assert scored == [3, 3, 3, 3]


# ----------------------------------------------------------------------
# max_memory corpus path
# ----------------------------------------------------------------------
class TestShardedCorpus:
    def test_budget_and_workers_invariant(self, tmp_path):
        baseline = generate_corpus(_CORPUS_CONFIG)
        # 1 MB is far below the fixed per-chunk overhead, so the
        # planner degrades to one-row shards — the most adversarial
        # split the merge can face.
        sharded = generate_corpus(_BUDGETED)
        pooled = generate_corpus(dataclasses.replace(_BUDGETED, workers=2))
        assert len(baseline) == len(sharded) == len(pooled)
        for base, shard, pool in zip(baseline, sharded, pooled):
            assert base.function == shard.function == pool.function
            assert _graphs_equal(base.graph, shard.graph)
            assert _graphs_equal(base.graph, pool.graph)
            assert base.graph.metadata == shard.graph.metadata
            assert base.dedup_ratio == shard.dedup_ratio == pool.dedup_ratio

    def test_blocked_budget_invariant(self):
        blocked = generate_corpus(
            dataclasses.replace(_CORPUS_CONFIG, blocking="tokens")
        )
        sharded = generate_corpus(
            dataclasses.replace(_BUDGETED, blocking="tokens")
        )
        assert len(blocked) == len(sharded)
        for base, shard in zip(blocked, sharded):
            assert _graphs_equal(base.graph, shard.graph)
            assert base.graph.metadata == shard.graph.metadata
            assert base.candidate_reduction == shard.candidate_reduction

    def test_warm_store_shards_reuse_stored_encodings(
        self, tmp_path, monkeypatch
    ):
        import repro.pipeline.batched_strings as batched_strings
        import repro.pipeline.workbench as workbench

        baseline = generate_corpus(
            dataclasses.replace(_CORPUS_CONFIG, artifact_store=str(tmp_path))
        )
        workbench._WORKER_STATE.clear()  # no engine memo: load from disk
        encodes = []
        real = batched_strings.encode_strings

        def counting(strings):
            encodes.append(len(strings))
            return real(strings)

        monkeypatch.setattr(batched_strings, "encode_strings", counting)
        sharded = generate_corpus(
            dataclasses.replace(_BUDGETED, artifact_store=str(tmp_path))
        )
        assert encodes == []
        assert len(baseline) == len(sharded)
        for base, shard in zip(baseline, sharded):
            assert _graphs_equal(base.graph, shard.graph)

    def test_max_memory_excluded_from_cache_key(self):
        assert _BUDGETED.cache_key() == _CORPUS_CONFIG.cache_key()

    def test_cache_round_trip(self, tmp_path):
        sharded = generate_corpus(_BUDGETED, cache_dir=tmp_path)
        reloaded = generate_corpus(
            _CORPUS_CONFIG, cache_dir=tmp_path
        )
        assert len(sharded) == len(reloaded)
        for built, loaded in zip(sharded, reloaded):
            assert _graphs_equal(built.graph, loaded.graph)

    @pytest.mark.parametrize("blocking", [None, "tokens"])
    def test_self_join_budget_and_workers_invariant(self, blocking):
        from repro.pipeline import workbench

        baseline = generate_dirty_corpus(
            dataclasses.replace(_CORPUS_CONFIG, blocking=blocking)
        )
        assert baseline
        union = workbench.SELF_JOIN.view(
            workbench._generate(_CORPUS_CONFIG, "d1")
        )
        plan = plan_for_dataset(union, 1 << 20, blocking)
        assert plan.n_shards >= 2
        for workers in (1, 2):
            sharded = generate_dirty_corpus(
                dataclasses.replace(
                    _BUDGETED, blocking=blocking, workers=workers
                )
            )
            assert len(baseline) == len(sharded)
            for base, shard in zip(baseline, sharded):
                assert base.function == shard.function
                assert base.graph.n_nodes == shard.graph.n_nodes
                assert np.array_equal(base.graph.u, shard.graph.u)
                assert np.array_equal(base.graph.v, shard.graph.v)
                assert np.array_equal(base.graph.weight, shard.graph.weight)
                assert base.graph.metadata == shard.graph.metadata
                assert base.dedup_ratio == shard.dedup_ratio
                assert base.candidate_reduction == shard.candidate_reduction


# ----------------------------------------------------------------------
# Fault tolerance: retry and resume at shard granularity
# ----------------------------------------------------------------------
class TestShardFaults:
    def test_kill_mid_shard_recovers_bit_identically(
        self, monkeypatch, tmp_path
    ):
        baseline = generate_corpus(_CORPUS_CONFIG)
        # The first attempt of shard 1 OOM-kill-style exits its pool
        # worker; the respawned pool resubmits only that shard.
        faults.inject(
            monkeypatch, {"match": ":s001", "action": "kill", "attempts": [0]}
        )
        crashed = generate_corpus(
            dataclasses.replace(_BUDGETED, workers=2),
            policy=FAST,
            journal_dir=tmp_path / "journal",
        )
        assert len(crashed) == len(baseline)
        for base, record in zip(baseline, crashed):
            assert _graphs_equal(base.graph, record.graph)

    def test_self_join_resume_ignores_bipartite_shards(
        self, monkeypatch, tmp_path
    ):
        # Both corpora number their shard tasks alike and share the
        # config's cache key; the self-join run must not resume from
        # the bipartite shards journaled in the same directory.
        journal_dir = tmp_path / "journal"
        faults.inject(
            monkeypatch,
            {"match": ":s002", "action": "error", "attempts": None},
        )
        with pytest.raises(ResilienceError):
            generate_corpus(_BUDGETED, policy=FAST, journal_dir=journal_dir)
        monkeypatch.delenv(faults.ENV_VAR)
        resumed = generate_dirty_corpus(
            _BUDGETED,
            policy=FAST,
            journal_dir=journal_dir,
            resume=True,
        )
        dense = generate_dirty_corpus(_CORPUS_CONFIG)
        assert len(resumed) == len(dense)
        for base, record in zip(dense, resumed):
            assert np.array_equal(base.graph.u, record.graph.u)
            assert np.array_equal(base.graph.v, record.graph.v)
            assert np.array_equal(base.graph.weight, record.graph.weight)

    def test_resume_after_permanent_shard_failure(
        self, monkeypatch, tmp_path
    ):
        baseline = generate_corpus(_CORPUS_CONFIG)
        journal_dir = tmp_path / "journal"
        faults.inject(
            monkeypatch,
            {"match": ":s002", "action": "error", "attempts": None},
        )
        with pytest.raises(ResilienceError):
            generate_corpus(_BUDGETED, policy=FAST, journal_dir=journal_dir)
        # Completed shards journaled before the failure; the resumed
        # run recomputes only the missing ones and merges identically.
        monkeypatch.delenv(faults.ENV_VAR)
        resumed = generate_corpus(
            _BUDGETED, policy=FAST, journal_dir=journal_dir, resume=True
        )
        assert len(resumed) == len(baseline)
        for base, record in zip(baseline, resumed):
            assert _graphs_equal(base.graph, record.graph)
            assert base.graph.metadata == record.graph.metadata

    def test_resume_under_another_budget_rescores_other_ranges(
        self, monkeypatch, tmp_path
    ):
        # max_memory is in neither the cache key nor the journal run
        # key, so a resume under another budget finds the first run's
        # one-row shards under its own run key: only a shard whose row
        # range the new plan repeats may be reused.
        from repro.pipeline import workbench

        dataset = workbench._generate(_CORPUS_CONFIG, "d1")
        wider = dataclasses.replace(_CORPUS_CONFIG, max_memory=9_905_440)
        one_row = plan_for_dataset(dataset, _BUDGETED.max_memory)
        assert one_row.n_shards == len(dataset.left)
        assert 2 < plan_for_dataset(dataset, wider.max_memory).n_shards < 9
        baseline = generate_corpus(_CORPUS_CONFIG)
        journal_dir = tmp_path / "journal"
        faults.inject(
            monkeypatch,
            {"match": ":s002", "action": "error", "attempts": None},
        )
        with pytest.raises(ResilienceError):
            generate_corpus(_BUDGETED, policy=FAST, journal_dir=journal_dir)
        monkeypatch.delenv(faults.ENV_VAR)
        resumed = generate_corpus(
            wider, policy=FAST, journal_dir=journal_dir, resume=True
        )
        assert len(resumed) == len(baseline)
        for base, record in zip(baseline, resumed):
            assert _graphs_equal(base.graph, record.graph)
