"""Dirty-ER corpus + sweep pipeline tests.

Covers :func:`generate_dirty_corpus` (self-join graphs, caching,
workers/store invariance) and :func:`run_dirty_er_sweeps`
(sweep-native clustering, worker-count invariance, score equality with
the scalar per-call path).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.evaluation.metrics import evaluate_clusters
from repro.evaluation.sweep import dirty_threshold_sweep
from repro.experiments.runner import run_dirty_er_sweeps
from repro.extensions.dirty_er import DIRTY_ALGORITHM_CODES, create_clusterer
from repro.pipeline.workbench import (
    GraphCorpusConfig,
    generate_dirty_corpus,
)

CONFIG = GraphCorpusConfig(
    datasets=("d1", "d2"),
    scale=0.03,
    max_pairs=2_000,
    schema_based_measures=("levenshtein", "jaccard"),
    ngram_models=(("token", 1),),
    vector_measures=("cosine_tfidf",),
    graph_measures=("containment",),
    semantic_models=("fasttext_like",),
    semantic_measures=("cosine",),
    max_attributes=1,
)

GRID = tuple(round(0.2 * k, 2) for k in range(1, 6))


@pytest.fixture(scope="module")
def corpus():
    return generate_dirty_corpus(CONFIG)


def _assert_same_dirty_corpus(first, second):
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert (a.dataset, a.family, a.function, a.category) == (
            b.dataset, b.family, b.function, b.category
        )
        assert a.ground_truth == b.ground_truth
        assert a.graph.n_nodes == b.graph.n_nodes
        assert np.array_equal(a.graph.u, b.graph.u)
        assert np.array_equal(a.graph.v, b.graph.v)
        assert np.array_equal(a.graph.weight, b.graph.weight)


class TestDirtyCorpus:
    def test_self_join_shape(self, corpus):
        assert corpus, "smoke config must produce dirty graphs"
        for record in corpus:
            graph = record.graph
            assert (graph.u < graph.v).all()
            assert record.dataset.endswith("+self")
            # Merged truth pairs always cross the left/right boundary.
            assert all(u < v for u, v in record.ground_truth)

    def test_truth_is_reachable(self, corpus):
        # The zero-evidence filter guarantees every kept graph has at
        # least one ground-truth pair among its edges.
        for record in corpus:
            keys = set(
                zip(record.graph.u.tolist(), record.graph.v.tolist())
            )
            assert keys & record.ground_truth

    def test_cache_roundtrip(self, corpus, tmp_path):
        first = generate_dirty_corpus(CONFIG, cache_dir=tmp_path)
        reloaded = generate_dirty_corpus(CONFIG, cache_dir=tmp_path)
        _assert_same_dirty_corpus(first, reloaded)
        _assert_same_dirty_corpus(corpus, reloaded)

    def test_workers_do_not_change_corpus(self, corpus):
        parallel = generate_dirty_corpus(
            dataclasses.replace(CONFIG, workers=2)
        )
        _assert_same_dirty_corpus(corpus, parallel)

    def test_store_does_not_change_corpus(self, corpus, tmp_path):
        stored = dataclasses.replace(CONFIG, artifact_store=str(tmp_path))
        cold = generate_dirty_corpus(stored)
        warm = generate_dirty_corpus(stored)
        _assert_same_dirty_corpus(corpus, cold)
        _assert_same_dirty_corpus(corpus, warm)

    def test_dirty_and_bipartite_store_keys_disjoint(self, tmp_path):
        from repro.pipeline.store import ArtifactStore

        generate_dirty_corpus(
            dataclasses.replace(CONFIG, artifact_store=str(tmp_path))
        )
        dirty_datasets = {
            entry.dataset for entry in ArtifactStore(tmp_path).entries()
        }
        assert dirty_datasets and all(
            code.endswith("+self") for code in dirty_datasets
        )


class TestDirtySweeps:
    def test_sweep_matches_per_call_path(self, corpus):
        record = corpus[0]
        clusterer = create_clusterer("CC")
        sweep = dirty_threshold_sweep(
            clusterer, record.graph, record.ground_truth, GRID
        )
        assert [point.threshold for point in sweep.points] == list(GRID)
        for point in sweep.points:
            clusters = clusterer.cluster(record.graph, point.threshold)
            assert point.scores == evaluate_clusters(
                clusters, record.ground_truth
            )

    def test_all_codes_present(self, corpus):
        results = run_dirty_er_sweeps(corpus[:2], grid=GRID)
        for result in results:
            assert set(result.sweeps) == set(DIRTY_ALGORITHM_CODES)
            for sweep in result.sweeps.values():
                assert len(sweep.points) == len(GRID)

    def test_workers_do_not_change_results(self, corpus):
        serial = run_dirty_er_sweeps(corpus[:3], grid=GRID)
        parallel = run_dirty_er_sweeps(corpus[:3], grid=GRID, workers=2)
        assert len(serial) == len(parallel)
        for a, b in zip(serial, parallel):
            assert set(a.sweeps) == set(b.sweeps)
            for code in a.sweeps:
                pa = [(p.threshold, p.scores) for p in a.sweeps[code].points]
                pb = [(p.threshold, p.scores) for p in b.sweeps[code].points]
                assert pa == pb

    def test_results_carry_candidate_reduction(self):
        blocked = generate_dirty_corpus(
            dataclasses.replace(CONFIG, blocking="tokens")
        )
        assert blocked
        results = run_dirty_er_sweeps(blocked[:2], grid=GRID)
        for record, result in zip(blocked, results):
            assert record.candidate_reduction > 1.0
            assert result.candidate_reduction == record.candidate_reduction

    def test_single_record_pool_fallback(self, corpus):
        serial = run_dirty_er_sweeps(corpus[:1], grid=GRID)
        parallel = run_dirty_er_sweeps(corpus[:1], grid=GRID, workers=2)
        for code in DIRTY_ALGORITHM_CODES:
            pa = [
                (p.threshold, p.scores)
                for p in serial[0].sweeps[code].points
            ]
            pb = [
                (p.threshold, p.scores)
                for p in parallel[0].sweeps[code].points
            ]
            assert pa == pb

    def test_skip_equivalent_grid_points_share_scores(self, corpus):
        # A grid far denser than the weight resolution: consecutive
        # equal-selection points must reuse the previous result.
        record = corpus[0]
        dense_grid = tuple(round(0.001 * k, 3) for k in range(990, 1001))
        sweep = dirty_threshold_sweep(
            create_clusterer("CC"),
            record.graph,
            record.ground_truth,
            dense_grid,
        )
        clusterer = create_clusterer("CC")
        for point in sweep.points:
            clusters = clusterer.cluster(record.graph, point.threshold)
            assert point.scores == evaluate_clusters(
                clusters, record.ground_truth
            )
