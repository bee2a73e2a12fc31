"""The batched hash embeddings against their scalar oracles, bit for bit.

``hash_vectors`` and both models' ``embed_collection`` must equal the
frozen scalar bodies of ``tests/oracles/embeddings.py`` exactly
(``np.array_equal``).  The first class pins the numpy properties that
equality rests on, as ``test_bulk_draws_equal_scalar_draws`` pins
PCG64's bulk draws for BAH: a numpy that breaks one fails here first.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.embeddings.hashing as hashing
from repro.embeddings import ContextualModel, FastTextLikeModel
from repro.embeddings.hashing import (
    hash_vector,
    hash_vectors,
    normal_rows,
    seed_state,
    unit_rows,
)
from repro.textsim.tokenize import tokens
from tests.oracles.embeddings import (
    contextual_embed_tokens,
    fasttext_embed_token,
    fasttext_embed_tokens,
)
from tests.oracles.embeddings import hash_vector as oracle_hash_vector

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]

#: Empty, one character, non-ASCII, repeated tokens, and texts longer
#: than the contextual window (2) on either side of a token.
TEXTS = [
    "",
    "a",
    "x",
    "café crème brûlée",
    "日本語 テキスト",
    "Ωmega ßtraße 42",
    "red red red fox red",
    "the quick brown fox jumps over the lazy dog again and again",
    "one two",
    "one two three four five six seven eight nine ten eleven twelve",
    "###",
    "a b a b a b a b",
]


class TestNumpyProperties:
    @pytest.mark.parametrize("k", range(1, 129))
    def test_stacked_matmul_equals_dot_and_norm(self, k):
        rng = np.random.default_rng(k)
        left = rng.standard_normal((24, k))
        right = rng.standard_normal((24, k))
        stacked = np.matmul(left[:, None, :], right[:, :, None])[:, 0, 0]
        assert np.array_equal(
            stacked, [np.dot(a, b) for a, b in zip(left, right)]
        )
        norms = np.sqrt(np.matmul(left[:, None, :], left[:, :, None]))
        assert np.array_equal(
            norms[:, 0, 0], [np.linalg.norm(row) for row in left]
        )

    def test_seed_state_equals_seed_sequence(self):
        rng = np.random.default_rng(2024)
        seeds = np.concatenate(
            [
                np.array(EDGE_SEEDS, dtype=np.uint64),
                rng.integers(
                    0, 2**64 - 1, size=20_000, dtype=np.uint64, endpoint=True
                ),
                rng.integers(0, 2**32, size=2_000, dtype=np.uint64),
            ]
        )
        expected = np.stack(
            [
                np.random.SeedSequence(int(seed)).generate_state(4, np.uint64)
                for seed in seeds
            ]
        )
        assert np.array_equal(seed_state(seeds), expected)

    @pytest.mark.parametrize("dim", [64, 96])
    def test_per_call_pcg64_equals_default_rng(self, dim):
        rng = np.random.default_rng(dim)
        draws = rng.integers(
            0, 2**64 - 1, size=500, dtype=np.uint64, endpoint=True
        )
        seeds = EDGE_SEEDS + [int(seed) for seed in draws]
        expected = np.stack(
            [
                np.random.default_rng(seed).standard_normal(dim)
                for seed in seeds
            ]
        )
        assert np.array_equal(normal_rows(seeds, dim), expected)

    def test_unit_rows_keeps_zero_rows(self):
        matrix = np.array([[3.0, 4.0], [0.0, 0.0]])
        assert np.array_equal(unit_rows(matrix), [[0.6, 0.8], [0.0, 0.0]])


@pytest.fixture
def cold_cache(monkeypatch):
    """An empty hash-vector cache for the test, restored afterwards."""
    monkeypatch.setattr(hashing, "_CACHE", {})
    return hashing


def _words():
    return [word for text in TEXTS for word in tokens(text)]


class TestHashVectors:
    @pytest.mark.parametrize("dim", [7, 64, 96])
    def test_rows_equal_oracle(self, cold_cache, dim):
        texts = ["", "a", "é", "日本", "🦊 fox", "a", ""] + _words()
        got = hash_vectors(texts, dim)
        assert got.shape == (len(texts), dim)
        for text, row in zip(texts, got):
            assert np.array_equal(row, oracle_hash_vector(text, dim)), text

    def test_scalar_name_is_one_batched_row(self, cold_cache):
        for text in ["", "a", "café"]:
            assert np.array_equal(
                hash_vector(text, 32), oracle_hash_vector(text, 32)
            )

    def test_empty_batch(self, cold_cache):
        assert hash_vectors([], 16).shape == (0, 16)

    def test_batch_mixing_hits_and_misses(self, cold_cache):
        words = _words()
        hash_vectors(words[::2], 64)  # warm half of them
        assert all((word, 64) in cold_cache._CACHE for word in words[::2])
        got = hash_vectors(words, 64)
        for word, row in zip(words, got):
            assert np.array_equal(row, oracle_hash_vector(word, 64))

    def test_batch_larger_than_cache_bound(self, cold_cache, monkeypatch):
        monkeypatch.setattr(hashing, "_CACHE_LIMIT", 5)
        texts = [f"gram{i}" for i in range(23)] + ["gram0", "gram1"]
        got = hash_vectors(texts, 32)
        assert len(cold_cache._CACHE) <= 5
        for text, row in zip(texts, got):
            assert np.array_equal(row, oracle_hash_vector(text, 32))

    def test_rows_are_copies(self, cold_cache):
        first = hash_vectors(["a"], 8)
        first[0] = 0.0
        assert np.array_equal(
            hash_vectors(["a"], 8)[0], oracle_hash_vector("a", 8)
        )


@pytest.mark.parametrize(
    "model,oracle",
    [
        (lambda: FastTextLikeModel(), fasttext_embed_tokens),
        (
            lambda: FastTextLikeModel(dim=96, min_n=2, max_n=6),
            fasttext_embed_tokens,
        ),
        (lambda: ContextualModel(), contextual_embed_tokens),
        (lambda: ContextualModel(dim=64, window=0), contextual_embed_tokens),
        (lambda: ContextualModel(window=5, mix=0.3), contextual_embed_tokens),
    ],
    ids=["fasttext", "fasttext-2-6", "contextual", "window-0", "window-5"],
)
class TestModelsEqualOracle:
    def test_collection(self, cold_cache, model, oracle):
        embedder = model()
        matrices = embedder.embed_collection(TEXTS)
        assert len(matrices) == len(TEXTS)
        for text, matrix in zip(TEXTS, matrices):
            expected = oracle(embedder, text)
            assert matrix.shape == expected.shape
            assert np.array_equal(matrix, expected), text

    def test_collection_mixing_hits_and_misses(
        self, cold_cache, model, oracle
    ):
        embedder = model()
        embedder.embed_collection(TEXTS[::3])  # warm some tokens
        for text, matrix in zip(TEXTS, embedder.embed_collection(TEXTS)):
            assert np.array_equal(matrix, oracle(embedder, text)), text

    def test_batch_larger_than_cache_bound(
        self, cold_cache, model, oracle, monkeypatch
    ):
        monkeypatch.setattr(hashing, "_CACHE_LIMIT", 7)
        embedder = model()
        matrices = embedder.embed_collection(TEXTS)
        assert len(cold_cache._CACHE) <= 7
        for text, matrix in zip(TEXTS, matrices):
            assert np.array_equal(matrix, oracle(embedder, text)), text

    def test_single_text_names(self, cold_cache, model, oracle):
        embedder = model()
        for text in TEXTS:
            expected = oracle(embedder, text)
            assert np.array_equal(embedder.embed_tokens(text), expected)
            pooled = expected.mean(axis=0) if len(expected) else 0.0
            assert np.array_equal(
                embedder.embed_text(text),
                np.broadcast_to(pooled, (embedder.dim,)),
            )

    def test_empty_collection(self, cold_cache, model, oracle):
        assert model().embed_collection([]) == []


def test_fasttext_embed_token_equals_oracle(cold_cache):
    model = FastTextLikeModel()
    for token in ["a", "zx81qq", "walkman", "é", "ab"]:
        assert np.array_equal(
            model.embed_token(token), fasttext_embed_token(model, token)
        )
