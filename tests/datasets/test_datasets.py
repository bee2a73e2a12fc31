"""Tests for the synthetic dataset substrate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import (
    CATEGORY_BY_DATASET,
    DATASET_CODES,
    PAPER_STATS,
    NoiseConfig,
    NoiseModel,
    dataset_spec,
    generate_dataset,
)
from repro.datasets.generator import DatasetSpec
from repro.datasets.profile import EntityCollection, EntityProfile
from repro.datasets.vocabulary import DOMAINS, generate_truth


class TestProfile:
    def test_value_and_missing(self):
        profile = EntityProfile("e1", {"name": "golden dragon", "city": ""})
        assert profile.value("name") == "golden dragon"
        assert profile.value("missing") == ""
        assert profile.values() == ["golden dragon"]

    def test_schema_agnostic_text(self):
        profile = EntityProfile("e1", {"a": "x", "b": "y z"})
        assert profile.schema_agnostic_text() == "x y z"

    def test_nvp_count(self):
        profile = EntityProfile("e1", {"a": "x", "b": "", "c": "y"})
        assert profile.n_name_value_pairs == 2


class TestCollection:
    def _collection(self):
        return EntityCollection(
            "test",
            [
                EntityProfile("e1", {"name": "a", "phone": "1"}),
                EntityProfile("e2", {"name": "b"}),
            ],
        )

    def test_len_iter_getitem(self):
        collection = self._collection()
        assert len(collection) == 2
        assert [p.identifier for p in collection] == ["e1", "e2"]
        assert collection[1].identifier == "e2"

    def test_attribute_values_pads_missing(self):
        assert self._collection().attribute_values("phone") == ["1", ""]

    def test_attribute_names(self):
        assert self._collection().attribute_names() == ["name", "phone"]

    def test_coverage(self):
        assert self._collection().attribute_coverage("phone") == 0.5
        assert self._collection().attribute_coverage("name") == 1.0

    def test_mean_pairs(self):
        assert self._collection().mean_pairs_per_profile == 1.5


class TestVocabulary:
    @pytest.mark.parametrize("domain", sorted(DOMAINS))
    def test_truth_records_nonempty(self, domain):
        rng = np.random.default_rng(0)
        record = generate_truth(domain, rng)
        assert record
        assert all(isinstance(v, str) and v for v in record.values())

    def test_deterministic(self):
        a = generate_truth("movie", np.random.default_rng(7))
        b = generate_truth("movie", np.random.default_rng(7))
        assert a == b

    def test_unknown_domain(self):
        with pytest.raises(KeyError):
            generate_truth("botany", np.random.default_rng(0))


class TestNoise:
    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            NoiseConfig(typo_rate=1.5)
        with pytest.raises(ValueError):
            NoiseConfig(missing_value_rate=-0.1)

    def test_zero_noise_is_identity(self):
        config = NoiseConfig(
            typo_rate=0.0, token_drop_rate=0.0, token_shuffle_prob=0.0,
            abbreviation_prob=0.0, missing_value_rate=0.0,
        )
        model = NoiseModel(config, np.random.default_rng(0))
        record = {"name": "golden dragon", "phone": "555-123-4567"}
        assert model.corrupt_record(record) == record

    def test_typos_change_text(self):
        config = NoiseConfig(typo_rate=0.5)
        model = NoiseModel(config, np.random.default_rng(0))
        text = "the quick brown fox jumps over the lazy dog"
        assert model.corrupt_characters(text) != text

    def test_drop_tokens_keeps_at_least_one(self):
        config = NoiseConfig(token_drop_rate=1.0)
        model = NoiseModel(config, np.random.default_rng(0))
        assert len(model.drop_tokens("a b c d").split()) >= 1

    def test_shuffle_preserves_tokens(self):
        config = NoiseConfig(token_shuffle_prob=1.0)
        model = NoiseModel(config, np.random.default_rng(0))
        out = model.shuffle_tokens("alpha beta gamma delta")
        assert sorted(out.split()) == ["alpha", "beta", "delta", "gamma"]

    def test_missing_values_respect_protection(self):
        config = NoiseConfig(
            missing_value_rate=1.0, protected_attributes=("title",)
        )
        model = NoiseModel(config, np.random.default_rng(0))
        record = {"title": "keep me", "other": "drop me"}
        out = model.corrupt_record(record)
        assert "title" in out
        assert "other" not in out

    def test_misplaced_value_merges_attributes(self):
        config = NoiseConfig(
            typo_rate=0.0, token_drop_rate=0.0, token_shuffle_prob=0.0,
            abbreviation_prob=0.0, missing_value_rate=0.0,
            misplaced_value_rate=1.0,
        )
        model = NoiseModel(config, np.random.default_rng(3))
        record = {"title": "alpha", "authors": "beta"}
        out = model.corrupt_record(record)
        assert len(out) == 1
        merged = next(iter(out.values()))
        assert "alpha" in merged and "beta" in merged

    def test_abbreviation(self):
        config = NoiseConfig(abbreviation_prob=1.0)
        model = NoiseModel(config, np.random.default_rng(0))
        out = model.abbreviate_tokens("gamma delta")
        assert out == "g. d."


class TestSpecValidation:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            DatasetSpec("x", "movie", 0, 10, 0)

    def test_rejects_excess_duplicates(self):
        with pytest.raises(ValueError):
            DatasetSpec("x", "movie", 10, 10, 11)


class TestCatalog:
    def test_ten_datasets(self):
        assert len(DATASET_CODES) == 10
        assert set(CATEGORY_BY_DATASET.values()) == {"BLC", "OSD", "SCR"}

    def test_paper_category_assignment(self):
        """Section 6, QE(4): BLC = D2/D4/D10, OSD = D3/D9, SCR = rest."""
        assert {c for c, v in CATEGORY_BY_DATASET.items() if v == "BLC"} == {
            "d2", "d4", "d10",
        }
        assert {c for c, v in CATEGORY_BY_DATASET.items() if v == "OSD"} == {
            "d3", "d9",
        }

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            dataset_spec("d11")

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            dataset_spec("d1", scale=0.0)

    def test_nan_scale_is_rejected_by_name(self):
        with pytest.raises(ValueError, match="scale must be positive"):
            dataset_spec("d1", scale=float("nan"))

    def test_scaling_preserves_ratio(self):
        spec = dataset_spec("d2", scale=0.1, max_pairs=10**9)
        stats = PAPER_STATS["d2"]
        assert spec.n_left == round(stats.n_left * 0.1)
        assert spec.n_right == round(stats.n_right * 0.1)

    def test_max_pairs_cap(self):
        spec = dataset_spec("d10", scale=1.0, max_pairs=10_000)
        assert spec.n_left * spec.n_right <= 11_000  # rounding slack


class TestGeneration:
    @pytest.mark.parametrize("code", DATASET_CODES)
    def test_all_profiles_generate(self, code):
        dataset = generate_dataset(dataset_spec(code, scale=0.02), seed=1)
        assert len(dataset.left) > 0
        assert len(dataset.right) > 0
        assert dataset.n_duplicates > 0
        for i, j in dataset.ground_truth:
            assert 0 <= i < len(dataset.left)
            assert 0 <= j < len(dataset.right)

    def test_deterministic(self):
        spec = dataset_spec("d2", scale=0.03)
        a = generate_dataset(spec, seed=5)
        b = generate_dataset(spec, seed=5)
        assert a.ground_truth == b.ground_truth
        assert a.left[0].attributes == b.left[0].attributes

    def test_seed_changes_content(self):
        spec = dataset_spec("d2", scale=0.03)
        a = generate_dataset(spec, seed=5)
        b = generate_dataset(spec, seed=6)
        assert a.left[0].attributes != b.left[0].attributes

    def test_ground_truth_is_one_to_one(self):
        dataset = generate_dataset(dataset_spec("d4", scale=0.05), seed=2)
        lefts = [i for i, _ in dataset.ground_truth]
        rights = [j for _, j in dataset.ground_truth]
        assert len(lefts) == len(set(lefts))
        assert len(rights) == len(set(rights))

    def test_balanced_category_ratios(self):
        dataset = generate_dataset(dataset_spec("d2", scale=0.05), seed=2)
        assert dataset.duplicate_ratio_left() > 0.9
        assert dataset.duplicate_ratio_right() > 0.9

    def test_scarce_category_ratios(self):
        dataset = generate_dataset(dataset_spec("d6", scale=0.05), seed=2)
        assert dataset.duplicate_ratio_left() < 0.5
        assert dataset.duplicate_ratio_right() < 0.5

    def test_one_sided_category_ratios(self):
        dataset = generate_dataset(
            dataset_spec("d9", scale=0.05, max_pairs=10**6), seed=2
        )
        assert dataset.duplicate_ratio_left() > 0.7
        assert dataset.duplicate_ratio_right() < 0.3

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_collections_are_duplicate_free(self, seed):
        """Clean-Clean: no world entity appears twice in a collection."""
        dataset = generate_dataset(dataset_spec("d1", scale=0.05), seed=seed)
        for collection in (dataset.left, dataset.right):
            identifiers = [p.identifier for p in collection]
            assert len(identifiers) == len(set(identifiers))
