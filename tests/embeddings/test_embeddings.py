"""Tests for the semantic embedding substitutes and their measures."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embeddings import (
    ContextualModel,
    FastTextLikeModel,
    cosine_similarity_matrix,
    euclidean_similarity_matrix,
    hash_vector,
    word_mover_similarity_matrix,
)
from tests.oracles.embeddings import relaxed_word_mover_distance

words = st.text(alphabet="abcdefgh", min_size=1, max_size=8)
sentences = st.lists(words, min_size=0, max_size=5).map(" ".join)


class TestHashVector:
    def test_deterministic(self):
        assert np.array_equal(hash_vector("abc", 16), hash_vector("abc", 16))

    def test_distinct_strings_differ(self):
        assert not np.array_equal(
            hash_vector("abc", 16), hash_vector("abd", 16)
        )

    def test_unit_norm(self):
        assert np.linalg.norm(hash_vector("hello", 32)) == pytest.approx(1.0)

    def test_dimension(self):
        assert hash_vector("x", 7).shape == (7,)

    @given(words, words)
    @settings(max_examples=30)
    def test_near_orthogonal_in_high_dim(self, a, b):
        if a == b:
            return
        cos = float(hash_vector(a, 256) @ hash_vector(b, 256))
        assert abs(cos) < 0.5  # loose, but catches collisions


class TestFastTextLike:
    def test_oov_tokens_embeddable(self):
        model = FastTextLikeModel(dim=32)
        vector = model.embed_token("zx81qq")  # arbitrary alphanumerics
        assert np.linalg.norm(vector) == pytest.approx(1.0)

    def test_shared_subwords_raise_similarity(self):
        model = FastTextLikeModel(dim=64)
        near = float(
            model.embed_token("walkman") @ model.embed_token("walkmans")
        )
        far = float(
            model.embed_token("walkman") @ model.embed_token("zzyzx")
        )
        assert near > far

    def test_text_embedding_is_token_mean(self):
        model = FastTextLikeModel(dim=16)
        text_vec = model.embed_text("alpha beta")
        tokens = model.embed_tokens("alpha beta")
        assert np.allclose(text_vec, tokens.mean(axis=0))

    def test_empty_text_is_zero(self):
        model = FastTextLikeModel(dim=16)
        assert np.allclose(model.embed_text(""), 0.0)
        assert model.embed_tokens("").shape == (0, 16)

    def test_embed_texts_stacks(self):
        model = FastTextLikeModel(dim=16)
        matrix = model.embed_texts(["a b", "c"])
        assert matrix.shape == (2, 16)

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            FastTextLikeModel(dim=0)
        with pytest.raises(ValueError):
            FastTextLikeModel(min_n=4, max_n=3)


class TestContextual:
    def test_context_changes_token_vector(self):
        """The defining transformer property: homonyms differ by context."""
        model = ContextualModel(dim=48)
        river = model.embed_tokens("river bank water")
        money = model.embed_tokens("money bank account")
        # 'bank' is token index 1 in both sentences.
        cos = float(river[1] @ money[1])
        assert cos < 0.999

    def test_same_context_same_vector(self):
        model = ContextualModel(dim=48)
        a = model.embed_tokens("green apple pie")
        b = model.embed_tokens("green apple pie")
        assert np.allclose(a, b)

    def test_zero_mix_without_position_is_static(self):
        model = ContextualModel(dim=32, mix=0.0, positional_scale=0.0)
        vectors = model.embed_tokens("alpha beta alpha")
        assert np.allclose(vectors[0], vectors[2])

    def test_empty_text(self):
        model = ContextualModel(dim=16)
        assert model.embed_tokens("").shape == (0, 16)
        assert np.allclose(model.embed_text(""), 0.0)

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            ContextualModel(dim=-1)
        with pytest.raises(ValueError):
            ContextualModel(window=-1)
        with pytest.raises(ValueError):
            ContextualModel(mix=1.5)


class TestRWMD:
    def test_identical_texts_zero(self):
        model = FastTextLikeModel(dim=32)
        tokens = model.embed_tokens("red fox jumps")
        assert relaxed_word_mover_distance(tokens, tokens) == pytest.approx(
            0.0, abs=1e-6
        )

    def test_symmetric(self):
        model = FastTextLikeModel(dim=32)
        a = model.embed_tokens("red fox")
        b = model.embed_tokens("blue whale swims")
        assert relaxed_word_mover_distance(a, b) == pytest.approx(
            relaxed_word_mover_distance(b, a)
        )

    def test_empty_cases(self):
        empty = np.zeros((0, 8))
        some = np.ones((2, 8))
        assert relaxed_word_mover_distance(empty, empty) == 0.0
        assert relaxed_word_mover_distance(empty, some) == float("inf")

    def test_non_negative(self):
        model = FastTextLikeModel(dim=32)
        a = model.embed_tokens("alpha beta")
        b = model.embed_tokens("gamma delta")
        assert relaxed_word_mover_distance(a, b) >= 0.0

    def test_word_order_invariant(self):
        """RWMD, like WMD, ignores word order."""
        model = FastTextLikeModel(dim=32)
        a = model.embed_tokens("red fox jumps")
        b = model.embed_tokens("jumps fox red")
        assert relaxed_word_mover_distance(a, b) == pytest.approx(0.0, abs=1e-6)


class TestMeasureMatrices:
    def test_cosine_range_and_identity(self):
        model = FastTextLikeModel(dim=32)
        matrix = model.embed_texts(["red fox", "blue whale"])
        sims = cosine_similarity_matrix(matrix, matrix)
        assert sims[0, 0] == pytest.approx(1.0)
        assert sims.min() >= 0.0
        assert sims.max() <= 1.0

    def test_euclidean_identity(self):
        model = FastTextLikeModel(dim=32)
        matrix = model.embed_texts(["red fox"])
        sims = euclidean_similarity_matrix(matrix, matrix)
        assert sims[0, 0] == pytest.approx(1.0)

    def test_wmd_matrix(self):
        model = FastTextLikeModel(dim=32)
        left = [model.embed_tokens(t) for t in ["red fox", ""]]
        right = [model.embed_tokens(t) for t in ["red fox", "blue whale"]]
        sims = word_mover_similarity_matrix(left, right)
        assert sims.shape == (2, 2)
        assert sims[0, 0] == pytest.approx(1.0)
        assert sims[1, 0] == 0.0  # empty vs non-empty
        assert 0.0 < sims[0, 1] < 1.0

    @given(st.lists(sentences, min_size=1, max_size=4))
    @settings(max_examples=15, deadline=None)
    def test_semantic_sims_mostly_high(self, texts):
        """The paper's observation: dense models give most pairs
        fairly high similarity — here everything stays within range."""
        model = ContextualModel(dim=32)
        matrix = model.embed_texts(texts)
        sims = cosine_similarity_matrix(matrix, matrix)
        assert sims.min() >= 0.0
        assert sims.max() <= 1.0 + 1e-9
