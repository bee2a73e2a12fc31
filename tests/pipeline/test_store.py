"""Persistent artifact-store tests.

Covers the tentpole guarantees of :mod:`repro.pipeline.store`:

* every codec round-trips **bit-identically**;
* a corpus generated against a cold or warm store equals the
  store-less corpus bit for bit, and a warm store serves loads
  instead of builds;
* writes are atomic and write-once (concurrent workers race
  harmlessly);
* corrupted payloads and obsolete version stamps invalidate the entry
  instead of poisoning the run;
* ``gc`` honors the LRU size budget and ``purge`` empties the store.
"""

from __future__ import annotations

import dataclasses
import json
import os
import warnings

import numpy as np
import pytest

from repro.datasets.catalog import dataset_spec
from repro.datasets.generator import generate_dataset
from repro.pipeline.engine import ArtifactCache, SimilarityEngine
from repro.pipeline.similarity_functions import enumerate_function_specs
from repro.pipeline.store import (
    SCHEMA_VERSION,
    STORE_KINDS,
    ArtifactStore,
    dataset_store_key,
    parse_size_budget,
)
from repro.pipeline.workbench import GraphCorpusConfig, generate_corpus

#: Identity of the generated dataset used throughout this module.
_CODE, _SCALE, _MAX_PAIRS, _SEED = "d1", 0.03, 2_000, 7
DATASET_KEY = dataset_store_key(_CODE, _SCALE, _MAX_PAIRS, _SEED)

#: Tiny corpus crossing every family and every persisted string kind.
CONFIG = GraphCorpusConfig(
    datasets=("d1",),
    scale=_SCALE,
    max_pairs=_MAX_PAIRS,
    seed=_SEED,
    schema_based_measures=("levenshtein", "jaro", "jaccard", "monge_elkan"),
    ngram_models=(("token", 1),),
    vector_measures=("cosine_tf", "cosine_tfidf"),
    graph_measures=("containment", "overall"),
    semantic_models=("fasttext_like",),
    max_attributes=1,
)


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(
        dataset_spec(_CODE, scale=_SCALE, max_pairs=_MAX_PAIRS), seed=_SEED
    )


@pytest.fixture(scope="module")
def specs(dataset):
    return enumerate_function_specs(
        dataset.spec,
        schema_based_measures=CONFIG.schema_based_measures,
        ngram_models=CONFIG.ngram_models,
        vector_measures=CONFIG.vector_measures,
        graph_measures=CONFIG.graph_measures,
        semantic_models=CONFIG.semantic_models,
        max_attributes=1,
    )


def _assert_csr_equal(a, b):
    assert np.array_equal(a.data, b.data)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.indptr, b.indptr)
    assert a.shape == b.shape


def _assert_same_corpus(first, second):
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert (a.dataset, a.family, a.function) == (
            b.dataset, b.family, b.function
        )
        assert np.array_equal(a.graph.left, b.graph.left)
        assert np.array_equal(a.graph.right, b.graph.right)
        assert np.array_equal(a.graph.weight, b.graph.weight)


class TestCodecRoundtrip:
    """Every persisted kind must round-trip bit for bit."""

    @pytest.fixture(scope="class")
    def cache(self, dataset):
        cache = ArtifactCache(dataset)
        attribute = dataset.spec.schema_attributes[0]
        cache.string_batch(attribute).plan  # materialize the unique universe
        return cache

    def _roundtrip(self, tmp_path, cache_key, value):
        store = ArtifactStore(tmp_path)
        assert store.save(DATASET_KEY, cache_key, value) is True
        loaded = store.load(DATASET_KEY, cache_key)
        assert loaded is not None
        return loaded

    def test_entity_graphs(self, cache, tmp_path):
        value = cache.entity_graphs("token", 1)
        loaded = self._roundtrip(tmp_path, ("entity_graphs", "token", 1), value)
        _assert_csr_equal(loaded[0], value[0])
        _assert_csr_equal(loaded[1], value[1])

    def test_graph_intermediates(self, cache, tmp_path):
        ratio = cache.graph_ratio_sums("token", 1)
        common = cache.graph_common_edges("token", 1)
        loaded_ratio = self._roundtrip(tmp_path, ("graph_ratio", "token", 1), ratio)
        loaded_common = self._roundtrip(tmp_path, ("graph_common", "token", 1), common)
        assert np.array_equal(loaded_ratio, ratio)
        assert loaded_ratio.dtype == ratio.dtype
        assert np.array_equal(loaded_common, common)

    def test_vector_model_pair(self, cache, tmp_path):
        value = cache.vector_models("token", 1, "tfidf")
        loaded = self._roundtrip(
            tmp_path, ("vector_model", "token", 1, "tfidf"), value
        )
        for built, restored in zip(value, loaded):
            _assert_csr_equal(restored.matrix, built.matrix)
            _assert_csr_equal(restored.binary, built.binary)
            assert np.array_equal(
                restored.document_frequency, built.document_frequency
            )
            assert restored.vocabulary == built.vocabulary
        assert loaded[0].vocabulary is loaded[1].vocabulary  # shared dict

    def test_token_embeddings(self, cache, tmp_path):
        value = cache.token_embeddings("fasttext_like", None)
        loaded = self._roundtrip(
            tmp_path, ("token_embeddings", "fasttext_like", None), value
        )
        for built_side, restored_side in zip(value, loaded):
            assert len(built_side) == len(restored_side)
            for built, restored in zip(built_side, restored_side):
                assert np.array_equal(restored, built)
                assert restored.dtype == built.dtype
                assert restored.shape == built.shape

    def test_text_embeddings(self, cache, tmp_path):
        value = cache.text_embeddings("fasttext_like", None)
        loaded = self._roundtrip(
            tmp_path, ("text_embeddings", "fasttext_like", None), value
        )
        assert np.array_equal(loaded[0], value[0])
        assert np.array_equal(loaded[1], value[1])

    def test_string_unique_encoded(self, cache, dataset, tmp_path):
        attribute = dataset.spec.schema_attributes[0]
        batch = cache.string_batch(attribute)
        value = (batch.unique_left_encoding, batch.unique_right_encoding)
        loaded = self._roundtrip(
            tmp_path, ("string_unique_encoded", attribute), value
        )
        for built_pair, restored_pair in zip(value, loaded):
            assert np.array_equal(restored_pair[0], built_pair[0])
            assert restored_pair[0].dtype == built_pair[0].dtype
            assert np.array_equal(restored_pair[1], built_pair[1])

    def test_string_unique_tokens(self, cache, dataset, tmp_path):
        attribute = dataset.spec.schema_attributes[0]
        value = cache.string_batch(attribute).unique_token_sparse
        loaded = self._roundtrip(
            tmp_path, ("string_unique_tokens", attribute), value
        )
        _assert_csr_equal(loaded[0], value[0])
        _assert_csr_equal(loaded[1], value[1])

    def test_monge_elkan_grid(self, cache, dataset, tmp_path):
        attribute = dataset.spec.schema_attributes[0]
        value = cache.string_batch(attribute).monge_elkan_grid
        loaded = self._roundtrip(
            tmp_path, ("string_token_grid", attribute), value
        )
        for built_ids, restored_ids in zip(value[0], loaded[0]):
            assert np.array_equal(restored_ids, built_ids)
            assert restored_ids.dtype == built_ids.dtype
        for built_ids, restored_ids in zip(value[1], loaded[1]):
            assert np.array_equal(restored_ids, built_ids)
        assert np.array_equal(loaded[2], value[2])

    def test_unregistered_kind_is_not_persisted(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.save(DATASET_KEY, ("string_plan", "name"), object()) is False
        assert store.load(DATASET_KEY, ("string_plan", "name")) is None
        assert store.entries() == []

    def test_retired_kind_entries_list_and_purge(
        self, tmp_path, monkeypatch
    ):
        # A store an older version wrote may hold kinds that no longer
        # have a codec: they never load, but other kinds keep working
        # and ``store ls``/``purge`` still see them.
        store = ArtifactStore(tmp_path)
        retired = ("retired_kind", 0, 7)
        with monkeypatch.context() as patch:
            codec = STORE_KINDS["graph_ratio"]
            patch.setitem(STORE_KINDS, "retired_kind", codec)
            assert store.save(DATASET_KEY, retired, np.zeros(3))
        live = ("graph_ratio", "token", 1)
        assert store.save(DATASET_KEY, live, np.arange(3.0))
        assert np.array_equal(store.load(DATASET_KEY, live), np.arange(3.0))
        assert store.load(DATASET_KEY, retired) is None
        kinds = {entry.kind for entry in store.entries()}
        assert kinds == {"retired_kind", "graph_ratio"}
        assert store.purge() == 2
        assert store.entries() == []

    def test_seed_artifact_rejects_unknown_slots(self, dataset):
        # The engine seeds StringBatch slots by name; a renamed
        # cached_property must fail loudly, not silently turn store
        # hits into rebuilds.
        from repro.pipeline.batched_strings import StringBatch

        batch = StringBatch(["a"], ["b"])
        with pytest.raises(AttributeError):
            batch.seed_artifact("unique_token_matrices", object())
        batch.seed_artifact("unique_token_sparse", "seeded")
        assert batch.__dict__["unique_token_sparse"] == "seeded"


class TestColdWarmEquivalence:
    def test_cold_and_warm_match_storeless(self, tmp_path):
        baseline = generate_corpus(CONFIG)
        stored = dataclasses.replace(CONFIG, artifact_store=str(tmp_path))
        cold = generate_corpus(stored)
        warm = generate_corpus(stored)
        _assert_same_corpus(baseline, cold)
        _assert_same_corpus(baseline, warm)
        assert ArtifactStore(tmp_path).entries()  # the store was used

    def test_warm_engine_loads_instead_of_building(self, dataset, specs, tmp_path):
        store = ArtifactStore(tmp_path)
        cold = SimilarityEngine(dataset, store=store, dataset_key=DATASET_KEY)
        cold_scores = cold.score(specs)
        assert not cold.cache.load_counts  # nothing to load yet
        persisted = {
            key for key in cold.cache.build_counts if key[0] in STORE_KINDS
        }
        assert persisted  # the spec slice exercises persistable kinds

        warm = SimilarityEngine(dataset, store=store, dataset_key=DATASET_KEY)
        warm_scores = warm.score(specs)
        rebuilt = {
            key for key in warm.cache.build_counts if key[0] in STORE_KINDS
        }
        assert rebuilt == set()  # every persistable artifact was loaded
        assert set(warm.cache.load_counts) == persisted
        for built, loaded in zip(cold_scores, warm_scores):
            for a, b in zip(built.edges, loaded.edges):
                assert np.array_equal(a, b)

    def test_warm_loads_count_as_artifact_seconds(self, dataset, specs, tmp_path):
        store = ArtifactStore(tmp_path)
        warm = SimilarityEngine(dataset, store=store, dataset_key=DATASET_KEY)
        semantic = [s for s in specs if s.family == "schema_agnostic_semantic"]
        [scores] = warm.score(semantic[:1])
        assert scores.artifact_seconds > 0.0  # loading is charged to the stage

    def test_different_dataset_keys_do_not_collide(self, dataset, tmp_path):
        store = ArtifactStore(tmp_path)
        other_key = dataset_store_key(_CODE, _SCALE, _MAX_PAIRS, _SEED + 1)
        cache_key = ("graph_ratio", "token", 1)
        store.save(DATASET_KEY, cache_key, np.ones((2, 2)))
        assert store.load(other_key, cache_key) is None

    def test_store_requires_dataset_key(self, dataset, tmp_path):
        with pytest.raises(ValueError):
            ArtifactCache(dataset, store=ArtifactStore(tmp_path))

    def test_engine_rejects_store_alongside_explicit_cache(
        self, dataset, tmp_path
    ):
        # A store passed next to an explicit cache would be silently
        # ignored — surface the conflict instead.
        with pytest.raises(ValueError):
            SimilarityEngine(
                dataset,
                cache=ArtifactCache(dataset),
                store=ArtifactStore(tmp_path),
                dataset_key=DATASET_KEY,
            )

    def test_default_scale_resolves_from_environment(self, monkeypatch):
        # scale=None means "the REPRO_SCALE default", which differs
        # between environments — the key must capture the resolved
        # value, never the None.
        monkeypatch.setenv("REPRO_SCALE", "0.02")
        small = dataset_store_key("d1", None, None, 42)
        monkeypatch.setenv("REPRO_SCALE", "0.08")
        large = dataset_store_key("d1", None, None, 42)
        assert small != large
        assert None not in small and None not in large

    def test_dataset_code_case_variants_share_a_key(self):
        # dataset_spec lowercases codes, so "D1" and "d1" generate the
        # bit-identical dataset — their artifacts must share entries.
        assert dataset_store_key("D1", 0.05, 1_000, 42) == dataset_store_key(
            "d1", 0.05, 1_000, 42
        )


class TestWriteOnce:
    def test_second_writer_discards(self, tmp_path):
        store = ArtifactStore(tmp_path)
        cache_key = ("graph_ratio", "token", 1)
        assert store.save(DATASET_KEY, cache_key, np.zeros(3)) is True
        committed = store.entries()[0]
        assert store.save(DATASET_KEY, cache_key, np.ones(3)) is False
        assert np.array_equal(
            store.load(DATASET_KEY, cache_key), np.zeros(3)
        )
        assert store.entries()[0].created == committed.created

    def test_no_temp_files_survive_a_write(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save(DATASET_KEY, ("graph_ratio", "token", 1), np.zeros(3))
        assert list(tmp_path.glob("*.tmp-*")) == []

    def test_parallel_workers_share_a_cold_store(self, tmp_path):
        config = dataclasses.replace(CONFIG, datasets=("d1", "d2"))
        serial = generate_corpus(config)
        pooled = dataclasses.replace(
            config, artifact_store=str(tmp_path), workers=2
        )
        parallel = generate_corpus(pooled)
        _assert_same_corpus(serial, parallel)
        rewarmed = generate_corpus(pooled)
        _assert_same_corpus(serial, rewarmed)

    def test_workers_and_store_do_not_change_cache_key(self):
        config = dataclasses.replace(
            CONFIG, workers=8, artifact_store="/tmp/somewhere"
        )
        assert config.cache_key() == CONFIG.cache_key()


class TestInvalidation:
    def _committed(self, tmp_path):
        store = ArtifactStore(tmp_path)
        cache_key = ("graph_ratio", "token", 1)
        store.save(DATASET_KEY, cache_key, np.arange(4.0))
        key = store.entry_key(DATASET_KEY, cache_key)
        return store, cache_key, key

    def test_corrupted_payload_is_quarantined(self, tmp_path):
        store, cache_key, key = self._committed(tmp_path)
        (tmp_path / f"{key}.npz").write_bytes(b"not an npz")
        assert store.load(DATASET_KEY, cache_key) is None
        # Moved aside — gone from the root, preserved in quarantine.
        assert not (tmp_path / f"{key}.npz").exists()
        assert not (tmp_path / f"{key}.json").exists()
        assert (store.quarantine_root / f"{key}.npz").exists()
        n_entries, nbytes = store.quarantine_counts()
        assert n_entries == 1 and nbytes > 0
        # The rebuild recommits over the quarantined entry.
        assert store.save(DATASET_KEY, cache_key, np.arange(4.0)) is True
        value = store.load(DATASET_KEY, cache_key)
        np.testing.assert_array_equal(value, np.arange(4.0))

    def test_truncated_npz_is_quarantined_and_recomputed(self, tmp_path):
        # A torn write / dying disk: the payload keeps its npz magic
        # but loses its tail.  The read must quarantine and report a
        # miss — never crash, never retry-loop on the bad bytes.
        from repro.testing.faults import truncate_store_payload

        store, cache_key, key = self._committed(tmp_path)
        truncate_store_payload(store, keep_bytes=24)
        assert store.load(DATASET_KEY, cache_key) is None
        assert store.quarantine_counts()[0] == 1
        assert store.load(DATASET_KEY, cache_key) is None  # still a miss
        assert store.save(DATASET_KEY, cache_key, np.arange(4.0)) is True
        np.testing.assert_array_equal(
            store.load(DATASET_KEY, cache_key), np.arange(4.0)
        )

    def test_manifest_without_payload_is_quarantined(self, tmp_path):
        # A committed manifest whose payload vanished (partial copy of
        # the store directory, disk reclaim): without quarantining the
        # manifest, save() would refuse the key forever.
        store, cache_key, key = self._committed(tmp_path)
        (tmp_path / f"{key}.npz").unlink()
        assert store.load(DATASET_KEY, cache_key) is None
        assert not (tmp_path / f"{key}.json").exists()
        assert (store.quarantine_root / f"{key}.json").exists()
        assert store.save(DATASET_KEY, cache_key, np.arange(4.0)) is True
        np.testing.assert_array_equal(
            store.load(DATASET_KEY, cache_key), np.arange(4.0)
        )

    def test_corrupt_manifest_is_quarantined_not_wedged(self, tmp_path):
        # Manifest writes are atomic, so unparseable JSON means a
        # corrupted committed entry: it must be moved aside and
        # rebuilt, not treated as in-flight (which would wedge the key
        # forever — save() refuses while the manifest exists).
        store, cache_key, key = self._committed(tmp_path)
        (tmp_path / f"{key}.json").write_text("{not json")
        assert store.load(DATASET_KEY, cache_key) is None
        assert not (tmp_path / f"{key}.json").exists()
        assert not (tmp_path / f"{key}.npz").exists()
        assert store.quarantine_counts()[0] == 1
        assert store.save(DATASET_KEY, cache_key, np.arange(4.0)) is True

    def test_purge_clears_quarantine(self, tmp_path):
        store, cache_key, key = self._committed(tmp_path)
        (tmp_path / f"{key}.npz").write_bytes(b"junk")
        assert store.load(DATASET_KEY, cache_key) is None
        assert store.quarantine_counts()[0] == 1
        store.purge()
        assert store.quarantine_counts() == (0, 0)

    def test_gc_sweeps_old_quarantined_files(self, tmp_path):
        store, cache_key, key = self._committed(tmp_path)
        (tmp_path / f"{key}.npz").write_bytes(b"junk")
        assert store.load(DATASET_KEY, cache_key) is None
        for corpse in store.quarantined():
            os.utime(corpse, (1_000_000, 1_000_000))
        store.gc()
        assert store.quarantine_counts() == (0, 0)

    def test_gc_reclaims_old_corrupt_manifests(self, tmp_path):
        store, cache_key, key = self._committed(tmp_path)
        (tmp_path / f"{key}.json").write_text("{not json")
        long_ago = (1_000_000, 1_000_000)
        os.utime(tmp_path / f"{key}.json", long_ago)
        os.utime(tmp_path / f"{key}.npz", long_ago)
        store.gc()
        assert not (tmp_path / f"{key}.json").exists()
        assert not (tmp_path / f"{key}.npz").exists()

    def test_obsolete_schema_version_is_deleted(self, tmp_path):
        store, cache_key, key = self._committed(tmp_path)
        manifest_path = tmp_path / f"{key}.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["schema_version"] = SCHEMA_VERSION - 1
        manifest_path.write_text(json.dumps(manifest))
        assert store.load(DATASET_KEY, cache_key) is None
        assert not manifest_path.exists()

    def test_foreign_repro_version_is_deleted(self, tmp_path):
        store, cache_key, key = self._committed(tmp_path)
        manifest_path = tmp_path / f"{key}.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["repro_version"] = "0.0.0"
        manifest_path.write_text(json.dumps(manifest))
        assert store.load(DATASET_KEY, cache_key) is None
        assert not manifest_path.exists()

    def test_uncommitted_payload_is_a_miss_but_not_deleted(self, tmp_path):
        # A payload without its manifest is an in-flight write of a
        # concurrent worker: readers must not delete it.
        store, cache_key, key = self._committed(tmp_path)
        (tmp_path / f"{key}.json").unlink()
        assert store.load(DATASET_KEY, cache_key) is None
        assert (tmp_path / f"{key}.npz").exists()

    @pytest.mark.parametrize(
        "error", [OSError("disk full"), ValueError("codec edge case")]
    )
    def test_failed_save_does_not_kill_the_run(self, dataset, tmp_path, error):
        # The store is an optimization: a full disk, a racing cleanup
        # or a codec edge case during commit must not abort a run that
        # already holds the built artifact.
        class ExplodingStore(ArtifactStore):
            def save(self, dataset_key, cache_key, value):
                raise error

        cache = ArtifactCache(
            dataset, store=ExplodingStore(tmp_path), dataset_key=DATASET_KEY
        )
        with pytest.warns(RuntimeWarning, match="was not persisted"):
            ratio = cache.graph_ratio_sums("token", 1)
        assert ratio is not None
        assert cache.build_counts[("graph_ratio", "token", 1)] == 1


class TestGcAndBudget:
    def _filled(self, tmp_path, count=4):
        store = ArtifactStore(tmp_path)
        keys = []
        for index in range(count):
            cache_key = ("graph_ratio", "token", index)
            store.save(DATASET_KEY, cache_key, np.full(64, float(index)))
            keys.append(cache_key)
        # Deterministic LRU order: age the manifests oldest-first.
        for age, cache_key in enumerate(keys):
            manifest = tmp_path / (
                store.entry_key(DATASET_KEY, cache_key) + ".json"
            )
            stamp = 1_000_000 + age
            os.utime(manifest, (stamp, stamp))
        return store, keys

    def test_gc_honors_size_budget_lru(self, tmp_path):
        store, keys = self._filled(tmp_path)
        per_entry = store.entries()[0].nbytes
        evicted = store.gc(per_entry * 2 + per_entry // 2)  # room for 2
        assert {entry.params[-1] for entry in evicted} == {0, 1}  # oldest
        assert store.load(DATASET_KEY, keys[0]) is None
        assert store.load(DATASET_KEY, keys[3]) is not None
        assert store.total_bytes() <= per_entry * 2 + per_entry // 2

    def test_gc_is_strict_lru_across_entry_sizes(self, tmp_path):
        # Once a hot entry overflows the budget, every colder entry
        # must go too — a small cold entry must never outlive a hot
        # one that was evicted for size.
        store = ArtifactStore(tmp_path)
        sizes = {0: 4096, 1: 3072, 2: 512}  # params -> rough payload
        for index, floats in sizes.items():
            store.save(
                DATASET_KEY,
                ("text_embeddings", "m", index),
                (
                    np.random.default_rng(index).random(floats // 16),
                    np.zeros(1),
                ),
            )
        entries = {e.params[-1]: e for e in store.entries()}
        # Recency (hot to cold): 0, 1, 2.
        for age, index in enumerate((2, 1, 0)):
            manifest = tmp_path / f"{entries[index].key}.json"
            os.utime(manifest, (1_000_000 + age, 1_000_000 + age))
        budget = entries[0].nbytes + entries[2].nbytes  # 1 won't fit
        evicted = {e.params[-1] for e in store.gc(budget)}
        # Knapsack-style gc would keep the small cold 2; strict LRU
        # evicts it along with 1.
        assert evicted == {1, 2}

    def test_undeletable_stale_entry_degrades_to_a_miss(
        self, tmp_path, monkeypatch
    ):
        # Invalidation on a store the process cannot delete from
        # (shared read-only tier) must report a miss, not crash.
        store = ArtifactStore(tmp_path)
        cache_key = ("graph_ratio", "token", 1)
        store.save(DATASET_KEY, cache_key, np.arange(4.0))
        key = store.entry_key(DATASET_KEY, cache_key)
        manifest_path = tmp_path / f"{key}.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["repro_version"] = "0.0.0"
        manifest_path.write_text(json.dumps(manifest))

        from pathlib import Path

        real_unlink = Path.unlink

        def deny(self, missing_ok=False):
            if self.parent == tmp_path:
                raise PermissionError(f"read-only store: {self}")
            return real_unlink(self, missing_ok=missing_ok)

        monkeypatch.setattr(Path, "unlink", deny)
        assert store.load(DATASET_KEY, cache_key) is None  # no crash
        assert manifest_path.exists()  # deletion failed, entry stays
        assert store.purge() == 0  # best-effort, honestly counted

    def test_load_refreshes_lru_recency(self, tmp_path):
        store, keys = self._filled(tmp_path)
        per_entry = store.entries()[0].nbytes
        assert store.load(DATASET_KEY, keys[0]) is not None  # touch oldest
        evicted = store.gc(per_entry * 2 + per_entry // 2)
        evicted_params = {entry.params[-1] for entry in evicted}
        assert 0 not in evicted_params  # survived: recently used
        assert evicted_params == {1, 2}

    def test_budget_on_store_enforced_after_writes(self, tmp_path):
        store = ArtifactStore(tmp_path, size_budget="2K")
        for index in range(8):
            store.save(
                DATASET_KEY,
                ("graph_ratio", "token", index),
                np.full(64, float(index)),
            )
        assert store.total_bytes() <= 2048
        assert store.entries()  # but not emptied

    def test_budget_enforcement_is_amortized(self, tmp_path):
        # The full gc scan must only run when the tracked byte total
        # crosses the budget, not after every committed write.
        scans = []

        class CountingStore(ArtifactStore):
            def gc(self, size_budget=None):
                scans.append(size_budget)
                return super().gc(size_budget)

        store = CountingStore(tmp_path, size_budget="1G")
        for index in range(8):
            store.save(
                DATASET_KEY,
                ("graph_ratio", "token", index),
                np.full(64, float(index)),
            )
        assert scans == []  # far under budget: no scan at all

    def test_gc_sweeps_stale_entries_without_budget(self, tmp_path):
        store, keys = self._filled(tmp_path, count=2)
        manifest = tmp_path / (store.entry_key(DATASET_KEY, keys[0]) + ".json")
        payload = json.loads(manifest.read_text())
        payload["schema_version"] = SCHEMA_VERSION + 1
        manifest.write_text(json.dumps(payload))
        evicted = store.gc()
        assert len(evicted) == 1 and evicted[0].stale
        assert len(store.entries()) == 1

    def test_purge_empties_the_store(self, tmp_path):
        store, _ = self._filled(tmp_path)
        assert store.purge() == 4
        assert store.entries() == []
        assert store.total_bytes() == 0

    def test_cleanup_spares_young_uncommitted_files(self, tmp_path):
        # Fresh strays may be a live writer's in-flight commit: gc and
        # purge must not touch them (deleting a temp file mid-commit
        # would crash the writer's os.replace).
        store, _ = self._filled(tmp_path, count=1)
        inflight_tmp = tmp_path / "deadbeef.npz.tmp-123-abc"
        inflight_tmp.write_bytes(b"partial")
        inflight_payload = tmp_path / "deadbeef.npz"
        inflight_payload.write_bytes(b"committed, manifest pending")
        store.gc()
        store.purge()
        assert inflight_tmp.exists()
        assert inflight_payload.exists()

    def test_cleanup_sweeps_abandoned_uncommitted_files(self, tmp_path):
        store, _ = self._filled(tmp_path, count=1)
        stray_tmp = tmp_path / "deadbeef.npz.tmp-123-abc"
        stray_tmp.write_bytes(b"partial")
        orphan_payload = tmp_path / "deadbeef.npz"
        orphan_payload.write_bytes(b"writer died before the manifest")
        long_ago = (1_000_000, 1_000_000)
        os.utime(stray_tmp, long_ago)
        os.utime(orphan_payload, long_ago)
        store.gc()
        assert not stray_tmp.exists()
        assert not orphan_payload.exists()
        assert len(store.entries()) == 1  # committed entry untouched

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("512", 512),
            ("2K", 2048),
            ("1.5M", int(1.5 * 1024**2)),
            ("2G", 2 * 1024**3),
            ("100B", 100),
            (1024, 1024),
            (None, None),
        ],
    )
    def test_parse_size_budget(self, text, expected):
        assert parse_size_budget(text) == expected

    def test_parse_size_budget_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_size_budget("lots")

    @pytest.mark.parametrize("budget", ["inf", "-inf", "1e400", "2e308K"])
    def test_parse_size_budget_rejects_infinite(self, budget):
        # float() accepts these, but int() of an infinite product
        # raised OverflowError, which argparse does not turn into a
        # usage error.
        with pytest.raises(ValueError, match="unparseable size budget"):
            parse_size_budget(budget)

    @pytest.mark.parametrize("budget", ["-500M", -1])
    def test_parse_size_budget_rejects_negative(self, budget):
        # A negative budget would silently evict everything — reject
        # it on the string path and the int path alike.
        with pytest.raises(ValueError):
            parse_size_budget(budget)

    def test_first_failed_save_warns_once(self, dataset, tmp_path):
        class ExplodingStore(ArtifactStore):
            def save(self, dataset_key, cache_key, value):
                raise OSError("disk full")

        cache = ArtifactCache(
            dataset, store=ExplodingStore(tmp_path), dataset_key=DATASET_KEY
        )
        with pytest.warns(RuntimeWarning, match="was not persisted"):
            cache.graph_ratio_sums("token", 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # second failure: silent
            cache.graph_common_edges("token", 1)


class TestConcurrentReaders:
    """Readers hammering ``load`` during concurrent ``gc`` cycles.

    The serving layer reads the store from request threads while a gc
    may run in another process.  The store's "uncommit first"
    discipline (``_remove`` unlinks the manifest before the payload)
    means a racing reader sees a clean miss, never a torn entry — so
    no amount of load/gc interleaving may ever create a quarantine
    entry, and every load that *does* succeed must return the exact
    committed payload.
    """

    N_ENTRIES = 6
    N_READERS = 4
    GC_CYCLES = 40

    def _payload(self, index: int) -> np.ndarray:
        rng = np.random.default_rng(1000 + index)
        return rng.standard_normal(256)

    def test_loads_during_gc_never_quarantine(self, tmp_path):
        import threading

        store = ArtifactStore(tmp_path)
        keys = []
        expected = {}
        for index in range(self.N_ENTRIES):
            cache_key = ("graph_ratio", "token", index)
            payload = self._payload(index)
            store.save(DATASET_KEY, cache_key, payload)
            keys.append(cache_key)
            expected[cache_key] = payload
        per_entry = store.entries()[0].nbytes

        stop = threading.Event()
        errors: list[str] = []
        hits = [0] * self.N_READERS
        misses = [0] * self.N_READERS

        def reader(slot: int) -> None:
            # Each reader gets its own store handle on the same root,
            # like concurrent worker processes would.
            local = ArtifactStore(tmp_path)
            while not stop.is_set():
                for cache_key in keys:
                    value = local.load(DATASET_KEY, cache_key)
                    if value is None:
                        misses[slot] += 1
                    elif np.array_equal(value, expected[cache_key]):
                        hits[slot] += 1
                    else:
                        errors.append(f"torn payload for {cache_key}")
                        return

        threads = [
            threading.Thread(target=reader, args=(slot,))
            for slot in range(self.N_READERS)
        ]
        for thread in threads:
            thread.start()
        try:
            # Churn: evict down to half the entries, then restore the
            # victims, so readers keep racing removals and rewrites.
            for _ in range(self.GC_CYCLES):
                store.gc(per_entry * (self.N_ENTRIES // 2))
                for cache_key in keys:
                    store.save(
                        DATASET_KEY, cache_key, expected[cache_key]
                    )
        finally:
            stop.set()
            for thread in threads:
                thread.join()

        assert not errors, errors
        # Misses are expected (reader raced an eviction); corruption
        # and quarantines are not.
        assert store.quarantined() == []
        assert store.quarantine_counts() == (0, 0)
        assert sum(hits) > 0
        for cache_key in keys:
            final = store.load(DATASET_KEY, cache_key)
            assert final is not None
            assert np.array_equal(final, expected[cache_key])

    def test_recommit_after_eviction_is_a_miss(self, tmp_path, monkeypatch):
        # The race above, forced deterministically: the reader has
        # read the manifest, a gc evicts the entry, the payload load
        # fails, and a writer recommits the key before the reader
        # reacts.  The reader must report a miss and leave the
        # writer's healthy entry live, not quarantine it.
        store = ArtifactStore(tmp_path)
        writer = ArtifactStore(tmp_path)
        cache_key = ("graph_ratio", "token", 1)
        payload = self._payload(0)
        store.save(DATASET_KEY, cache_key, payload)
        key = store.entry_key(DATASET_KEY, cache_key)
        real_load = np.load
        raced = []

        def racing_load(path, *args, **kwargs):
            if raced:
                return real_load(path, *args, **kwargs)
            raced.append(path)
            store._remove(key)  # gc evicts after the manifest read
            try:
                return real_load(path, *args, **kwargs)
            finally:
                assert writer.save(DATASET_KEY, cache_key, payload)

        monkeypatch.setattr(np, "load", racing_load)
        assert store.load(DATASET_KEY, cache_key) is None
        assert raced
        assert store.quarantined() == []
        assert np.array_equal(store.load(DATASET_KEY, cache_key), payload)


def _tier_snapshot(root):
    """Full content+mtime fingerprint of a store directory."""
    return {
        path.name: (path.stat().st_mtime_ns, path.read_bytes())
        for path in sorted(root.iterdir())
    }


class TestReadOnlyTier:
    """The shared read-only tier: hits never write upward (or anywhere)."""

    CACHE_KEY = ("graph_ratio", "token", 1)

    def _seeded_tier(self, tmp_path):
        tier_root = tmp_path / "tier"
        ArtifactStore(tier_root).save(
            DATASET_KEY, self.CACHE_KEY, np.arange(5.0)
        )
        return tier_root

    def test_tier_hit_serves_local_miss(self, tmp_path):
        tier_root = self._seeded_tier(tmp_path)
        local = ArtifactStore(tmp_path / "local", read_tier=tier_root)
        value = local.load(DATASET_KEY, self.CACHE_KEY)
        assert np.array_equal(value, np.arange(5.0))

    def test_tier_hit_never_writes_upward(self, tmp_path):
        tier_root = self._seeded_tier(tmp_path)
        before = _tier_snapshot(tier_root)
        local_root = tmp_path / "local"
        local = ArtifactStore(local_root, read_tier=tier_root)
        for _ in range(3):
            assert local.load(DATASET_KEY, self.CACHE_KEY) is not None
        # No recency utime, no rewrite, no deletion in the tier ...
        assert _tier_snapshot(tier_root) == before
        # ... and no copy downward either: the local root stays empty
        # (the in-memory ArtifactCache absorbs repeat reads).
        assert not local_root.exists() or list(local_root.iterdir()) == []

    def test_local_entry_shadows_the_tier(self, tmp_path):
        tier_root = self._seeded_tier(tmp_path)
        local = ArtifactStore(tmp_path / "local", read_tier=tier_root)
        assert local.save(DATASET_KEY, self.CACHE_KEY, np.zeros(5)) is True
        assert np.array_equal(
            local.load(DATASET_KEY, self.CACHE_KEY), np.zeros(5)
        )

    def test_stale_tier_entry_is_a_miss_and_survives(self, tmp_path):
        tier_root = self._seeded_tier(tmp_path)
        manifest_path = next(tier_root.glob("*.json"))
        manifest = json.loads(manifest_path.read_text())
        manifest["schema_version"] = SCHEMA_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        before = _tier_snapshot(tier_root)
        local = ArtifactStore(tmp_path / "local", read_tier=tier_root)
        assert local.load(DATASET_KEY, self.CACHE_KEY) is None
        assert _tier_snapshot(tier_root) == before

    def test_corrupt_tier_payload_is_a_miss_and_survives(self, tmp_path):
        tier_root = self._seeded_tier(tmp_path)
        next(tier_root.glob("*.npz")).write_bytes(b"garbage")
        before = _tier_snapshot(tier_root)
        local = ArtifactStore(tmp_path / "local", read_tier=tier_root)
        assert local.load(DATASET_KEY, self.CACHE_KEY) is None
        assert _tier_snapshot(tier_root) == before

    def test_corpus_from_tier_matches_storeless(self, tmp_path):
        tier_root = tmp_path / "tier"
        # Seed the tier.
        generate_corpus(
            dataclasses.replace(CONFIG, artifact_store=str(tier_root))
        )
        before = _tier_snapshot(tier_root)
        storeless = generate_corpus(CONFIG)
        layered = generate_corpus(
            dataclasses.replace(
                CONFIG,
                artifact_store=str(tmp_path / "local"),
                store_read_tier=str(tier_root),
            )
        )
        _assert_same_corpus(storeless, layered)
        assert _tier_snapshot(tier_root) == before

    def test_tier_does_not_change_cache_key(self):
        config = dataclasses.replace(
            CONFIG, artifact_store="/tmp/a", store_read_tier="/tmp/b"
        )
        assert config.cache_key() == CONFIG.cache_key()
