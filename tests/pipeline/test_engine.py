"""Differential and cache-behaviour tests of the similarity engine.

The engine must be *bit-identical* to the direct
``compute_similarity_matrix`` path (the oracle in
``tests/oracles/similarity.py``) for every family of the taxonomy,
and every shared artifact must be built exactly once per distinct key
regardless of how many specs consume it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.catalog import dataset_spec
from repro.datasets.generator import generate_dataset
from repro.pipeline import (
    ArtifactCache,
    SimilarityEngine,
    enumerate_function_specs,
    group_specs,
)
from repro.pipeline.batched_strings import StringBatch, schema_based_matrix
from tests.oracles.similarity import compute_similarity_matrix

# Small but full-coverage slice of the taxonomy: every schema-based
# measure, both n-gram units, every vector/graph/semantic measure and
# both semantic models.
_DATASET_SPEC = dataset_spec("d1", scale=0.05, max_pairs=2_000)
_ENUMERATE_KWARGS = dict(
    ngram_models=(("char", 2), ("token", 1)),
    max_attributes=1,
)
_SPECS = enumerate_function_specs(_DATASET_SPEC, **_ENUMERATE_KWARGS)


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(_DATASET_SPEC, seed=7)


@pytest.fixture(scope="module")
def engine(dataset):
    return SimilarityEngine(dataset)


def _scored_matrix(engine, spec) -> np.ndarray:
    """Dense matrix of ``spec``'s positive engine scores, zero elsewhere."""
    [scores] = engine.score([spec])
    matrix = np.zeros(engine.shape())
    matrix[scores.left, scores.right] = scores.values
    return matrix


class TestDifferential:
    @pytest.mark.parametrize(
        "spec", _SPECS, ids=[spec.name for spec in _SPECS]
    )
    def test_engine_matches_direct_path(self, dataset, engine, spec):
        direct = compute_similarity_matrix(dataset, spec)
        via_engine = _scored_matrix(engine, spec)
        assert via_engine.shape == direct.shape
        # Bit-identical, not approximately equal: the engine reuses
        # artifacts but must run the exact same kernels on them.  Only
        # positive scores become edges, so only they are returned.
        assert np.array_equal(np.where(direct > 0.0, direct, 0.0), via_engine)

    @pytest.mark.parametrize(
        "spec", _SPECS[::5], ids=[spec.name for spec in _SPECS[::5]]
    )
    def test_row_ranges_concatenate_to_the_whole(self, engine, spec):
        [whole] = engine.score([spec])
        n_left = engine.shape()[0]
        bounds = [0, 1, n_left // 3, n_left]
        parts = [
            engine.score([spec], start, stop)[0]
            for start, stop in zip(bounds, bounds[1:])
        ]
        for field in ("left", "right", "values"):
            assert np.array_equal(
                getattr(whole, field),
                np.concatenate([getattr(part, field) for part in parts]),
            ), field

    def test_families_covered(self):
        assert {spec.family for spec in _SPECS} == {
            "schema_based_syntactic",
            "schema_agnostic_syntactic",
            "schema_based_semantic",
            "schema_agnostic_semantic",
        }


class TestArtifactCache:
    def test_every_artifact_built_once(self, dataset):
        engine = SimilarityEngine(dataset)
        for _ in range(2):  # second sweep must be all cache hits
            for spec in _SPECS:
                engine.score([spec])
        rebuilt = {
            key: count
            for key, count in engine.cache.build_counts.items()
            if count != 1
        }
        assert rebuilt == {}

    def test_expected_keys_present(self, dataset):
        engine = SimilarityEngine(dataset)
        for group in group_specs(_SPECS):
            engine.score(group.specs)
        keys = set(engine.cache.build_counts)
        # One vector model per (unit, n, weighting) — not per measure.
        assert ("vector_model", "char", 2, "tf") in keys
        assert ("vector_model", "char", 2, "tfidf") in keys
        # One sparse entity-graph pair per (unit, n) — not per measure.
        assert ("entity_graphs", "token", 1) in keys
        # One semantic model instance per name — not per measure/source.
        assert ("semantic_model", "fasttext_like") in keys
        assert ("semantic_model", "albert_like") in keys
        # Token embeddings: one per (model, source).
        attribute = _DATASET_SPEC.schema_attributes[0]
        assert ("token_embeddings", "fasttext_like", None) in keys
        assert ("token_embeddings", "fasttext_like", attribute) in keys

    def test_counting_wrapper_counts_misses(self, dataset):
        cache = ArtifactCache(dataset)
        calls = []
        for _ in range(3):
            cache.get(("probe",), lambda: calls.append(1) or "value")
        assert calls == [1]
        assert cache.build_counts[("probe",)] == 1

    def test_miss_seconds_monotonic(self, dataset):
        engine = SimilarityEngine(dataset)
        spec = _SPECS[0]
        [cold] = engine.score([spec])
        cold_artifact = cold.artifact_seconds
        before = engine.cache.miss_seconds
        [warm] = engine.score([spec])
        warm_artifact = warm.artifact_seconds
        assert cold_artifact >= 0.0
        assert warm_artifact == 0.0
        assert engine.cache.miss_seconds == before


class TestStringBatch:
    def test_shared_batch_matches_fresh_computation(self, dataset):
        lefts = dataset.left.attribute_values("name")
        rights = dataset.right.attribute_values("name")
        batch = StringBatch(lefts, rights)
        for measure in ("levenshtein", "jaccard", "qgrams", "monge_elkan"):
            fresh = schema_based_matrix(lefts, rights, measure)
            shared = schema_based_matrix(lefts, rights, measure, batch)
            assert np.array_equal(fresh, shared), measure

    def test_artifacts_are_cached_properties(self, dataset):
        lefts = dataset.left.attribute_values("name")
        rights = dataset.right.attribute_values("name")
        batch = StringBatch(lefts, rights)
        assert batch.unique_token_sparse is batch.unique_token_sparse
        assert batch.unique_right_encoding is batch.unique_right_encoding


class TestGrouping:
    def test_concatenated_groups_preserve_spec_order(self):
        groups = group_specs(_SPECS)
        flattened = [spec for group in groups for spec in group.specs]
        assert flattened == _SPECS

    def test_groups_are_contiguous_runs(self):
        groups = group_specs(_SPECS)
        seen = set()
        for group in groups:
            assert group.key not in seen  # each key appears once
            seen.add(group.key)
            assert group.specs  # no empty groups

    def test_vector_and_graph_models_group_separately(self):
        keys = {group.key for group in group_specs(_SPECS)}
        assert ("vector", "char", 2) in keys
        assert ("graph", "char", 2) in keys


class TestConstruction:
    def test_no_thread_count(self, dataset):
        # Kernels run their row blocks in a plain loop; process workers
        # (``GraphCorpusConfig.workers``) are the only parallelism.
        with pytest.raises(TypeError):
            SimilarityEngine(dataset, threads=2)
