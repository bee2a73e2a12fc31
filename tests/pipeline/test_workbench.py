"""Workbench tests: corpus generation, caching and parallelism.

Covers the engine-driven ``generate_corpus`` path: the vectorized
zero-evidence filter (bipartite and self-join), the per-stage
timings, the deduplicated v2 cache manifest (plus backward-compat
reading of v1 manifests and of self-join manifests) and the
``workers`` knob's result-invariance.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.graph.bipartite import SimilarityGraph
from repro.graph.io import save_graph
from repro.graph.unipartite import UnipartiteGraph
from repro.pipeline import workbench
from repro.pipeline.workbench import (
    SELF_JOIN,
    GraphCorpusConfig,
    _all_matches_zero,
    generate_corpus,
    generate_dirty_corpus,
)

#: Tiny two-dataset corpus exercising every family.
CONFIG = GraphCorpusConfig(
    datasets=("d1", "d2"),
    scale=0.03,
    max_pairs=2_000,
    schema_based_measures=("levenshtein", "jaccard"),
    ngram_models=(("token", 1),),
    vector_measures=("cosine_tf", "jaccard"),
    graph_measures=("containment", "overall"),
    semantic_models=("fasttext_like",),
    semantic_measures=("cosine",),
    max_attributes=1,
)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(CONFIG)


def _assert_same_corpus(first, second):
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert (a.dataset, a.family, a.function, a.category) == (
            b.dataset, b.family, b.function, b.category
        )
        assert a.ground_truth == b.ground_truth
        assert np.array_equal(a.graph.left, b.graph.left)
        assert np.array_equal(a.graph.right, b.graph.right)
        assert np.array_equal(a.graph.weight, b.graph.weight)


class TestZeroEvidenceFilter:
    def _reference(self, graph, ground_truth):
        if isinstance(graph, UnipartiteGraph):
            edges = set(zip(graph.u.tolist(), graph.v.tolist()))
        else:
            edges = set(zip(graph.left.tolist(), graph.right.tolist()))
        return all(pair not in edges for pair in ground_truth)

    def _graph(self, edges, n_left=6, n_right=7):
        return SimilarityGraph.from_edges(n_left, n_right, edges)

    @pytest.mark.parametrize(
        "edges,truth",
        [
            ([], set()),
            ([], {(0, 0)}),
            ([(0, 0, 0.5)], set()),
            ([(0, 0, 0.5)], {(0, 0)}),
            ([(0, 1, 0.5), (2, 3, 0.1)], {(0, 0), (2, 3)}),
            ([(0, 1, 0.5)], {(0, 0), (1, 1)}),
            ([(5, 6, 0.9)], {(5, 6)}),
        ],
    )
    def test_matches_set_reference(self, edges, truth):
        graph = self._graph(edges)
        assert _all_matches_zero(graph, truth) == (
            self._reference(graph, truth)
        )

    def test_random_graphs_match_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n_left, n_right = rng.integers(1, 30, size=2)
            n_edges = int(rng.integers(0, 40))
            edges = [
                (int(rng.integers(n_left)), int(rng.integers(n_right)), 0.5)
                for _ in range(n_edges)
            ]
            truth = {
                (int(rng.integers(n_left)), int(rng.integers(n_right)))
                for _ in range(int(rng.integers(0, 10)))
            }
            graph = self._graph(edges, int(n_left), int(n_right))
            assert _all_matches_zero(graph, truth) == (
                self._reference(graph, truth)
            )
        # Self-join graphs over one node set: canonical u < v pairs.
        for _ in range(25):
            n_nodes = int(rng.integers(2, 30))
            pairs = {
                tuple(sorted(pair))
                for pair in rng.integers(n_nodes, size=(40, 2)).tolist()
                if pair[0] != pair[1]
            }
            edges = [(u, v, 0.5) for u, v in sorted(pairs)]
            edges = edges[: int(rng.integers(0, len(edges) + 1))]
            truth = {
                tuple(sorted(pair))
                for pair in rng.integers(n_nodes, size=(5, 2)).tolist()
                if pair[0] != pair[1]
            }
            graph = UnipartiteGraph.from_edges(n_nodes, edges)
            assert _all_matches_zero(graph, truth) == (
                self._reference(graph, truth)
            )


class TestStageTimings:
    def test_stages_partition_build_seconds(self, corpus):
        assert corpus
        for record in corpus:
            assert record.build_seconds > 0.0
            assert record.artifact_seconds >= 0.0
            assert record.matrix_seconds >= 0.0
            assert record.graph_seconds >= 0.0
            staged = (
                record.artifact_seconds
                + record.matrix_seconds
                + record.graph_seconds
            )
            assert staged <= record.build_seconds + 1e-6

    def test_artifacts_amortized_within_groups(self, corpus):
        # The first tf vector measure pays for the profile space and
        # the tf model; the second tf measure of the same (unit, n)
        # group hits the cache and builds nothing at all.
        by_function = {
            (r.dataset, r.function): r for r in corpus
        }
        first = by_function[("d1", "sa-syn:vec:token1:cosine_tf")]
        later = by_function[("d1", "sa-syn:vec:token1:jaccard")]
        assert first.artifact_seconds > 0.0
        assert later.artifact_seconds == 0.0


class TestWorkers:
    def test_parallel_equals_serial(self, corpus):
        import dataclasses

        parallel = generate_corpus(dataclasses.replace(CONFIG, workers=2))
        _assert_same_corpus(corpus, parallel)

    def test_workers_do_not_change_cache_key(self):
        import dataclasses

        config = dataclasses.replace(CONFIG, workers=8)
        assert config.cache_key() == CONFIG.cache_key()


class TestCacheManifest:
    def test_manifest_v2_dedupes_ground_truth(self, corpus, tmp_path):
        records = generate_corpus(CONFIG, cache_dir=tmp_path)
        manifest = json.loads(
            (tmp_path / CONFIG.cache_key() / "manifest.json").read_text()
        )
        assert manifest["version"] == 2
        # Ground truth once per dataset, not once per graph.
        assert set(manifest["ground_truth"]) == {"d1", "d2"}
        assert all("ground_truth" not in g for g in manifest["graphs"])
        assert len(manifest["graphs"]) == len(records)
        _assert_same_corpus(corpus, records)

    def test_cache_roundtrip(self, corpus, tmp_path):
        stored = generate_corpus(CONFIG, cache_dir=tmp_path)
        reloaded = generate_corpus(CONFIG, cache_dir=tmp_path)
        _assert_same_corpus(corpus, reloaded)
        for a, b in zip(stored, reloaded):
            assert b.build_seconds == a.build_seconds
            assert b.artifact_seconds == a.artifact_seconds

    def test_ground_truth_shared_object_on_load(self, tmp_path):
        generate_corpus(CONFIG, cache_dir=tmp_path)
        reloaded = generate_corpus(CONFIG, cache_dir=tmp_path)
        by_dataset: dict[str, list] = {}
        for record in reloaded:
            by_dataset.setdefault(record.dataset, []).append(record)
        for records in by_dataset.values():
            first = records[0].ground_truth
            assert all(r.ground_truth is first for r in records)

    def test_reads_legacy_v1_manifest(self, corpus, tmp_path, monkeypatch):
        # Write the corpus in the pre-v2 layout: a JSON list with a
        # full ground-truth copy in every entry and no stage timings.
        cache_dir = tmp_path / CONFIG.cache_key()
        cache_dir.mkdir(parents=True)
        manifest = []
        for index, record in enumerate(corpus):
            filename = f"graph_{index:04d}.npz"
            save_graph(record.graph, cache_dir / filename)
            manifest.append(
                {
                    "file": filename,
                    "dataset": record.dataset,
                    "family": record.family,
                    "function": record.function,
                    "category": record.category,
                    "ground_truth": sorted(record.ground_truth),
                    "build_seconds": record.build_seconds,
                }
            )
        (cache_dir / "manifest.json").write_text(json.dumps(manifest))

        reloaded = generate_corpus(CONFIG, cache_dir=tmp_path)
        _assert_same_corpus(corpus, reloaded)
        for record in reloaded:
            assert record.artifact_seconds == 0.0
            assert record.matrix_seconds == 0.0
            assert record.graph_seconds == 0.0

        # A self-join corpus in the layout of its own (version 1,
        # "kind": "dirty") manifest under dirty_<key> loads as is.
        dirty_config = GraphCorpusConfig(
            datasets=("d1",),
            families=("schema_based_syntactic",),
            scale=0.03,
            max_pairs=2_000,
            schema_based_measures=("levenshtein", "jaccard"),
            max_attributes=1,
        )
        dirty = generate_dirty_corpus(dirty_config)
        assert dirty
        dirty_dir = tmp_path / f"dirty_{dirty_config.cache_key()}"
        dirty_dir.mkdir()
        graphs = []
        for index, record in enumerate(dirty):
            filename = f"graph_{index:04d}.npz"
            save_graph(record.graph, dirty_dir / filename)
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
        manifest_text = json.dumps(
            {
                "version": 1,
                "kind": "dirty",
                "ground_truth": {"d1+self": sorted(dirty[0].ground_truth)},
                "graphs": graphs,
            }
        )
        (dirty_dir / "manifest.json").write_text(manifest_text)

        def regenerated(*args, **kwargs):
            raise AssertionError("cached self-join corpus regenerated")

        monkeypatch.setattr(workbench, "generate_dataset", regenerated)
        loaded = generate_dirty_corpus(dirty_config, cache_dir=tmp_path)
        assert len(loaded) == len(dirty)
        for a, b in zip(dirty, loaded):
            assert (a.dataset, a.function, a.category) == (
                b.dataset, b.function, b.category
            )
            assert a.ground_truth == b.ground_truth
            assert np.array_equal(a.graph.u, b.graph.u)
            assert np.array_equal(a.graph.v, b.graph.v)
            assert np.array_equal(a.graph.weight, b.graph.weight)
        # Writing the loaded corpus back reproduces the manifest bytes.
        rewritten = tmp_path / "rewritten"
        workbench._store_cache(rewritten, loaded, SELF_JOIN)
        assert (rewritten / "manifest.json").read_text() == manifest_text
