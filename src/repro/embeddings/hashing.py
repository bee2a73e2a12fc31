"""Deterministic hash embeddings.

Every string maps to a fixed unit vector derived from a cryptographic
hash of its content: the hash seeds a PRNG that draws the vector from
an isotropic Gaussian.  Distinct strings therefore get near-orthogonal
vectors (in high dimension), identical strings always get the same
vector — exactly the property subword hashing relies on in fastText's
own implementation.

A vector is ``default_rng(seed).standard_normal(dim)`` scaled to unit
norm (the scalar oracle is in ``tests/oracles/embeddings.py``).
:func:`hash_vectors` draws a whole collection with the same bits, and
``tests/embeddings/test_batched.py`` pins the numpy properties it
rests on.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.textsim.tokenize import tokens

__all__ = [
    "HashEmbeddingModel",
    "clear_cache",
    "hash_vector",
    "hash_vectors",
    "normal_rows",
    "pool_rows",
    "seed_state",
    "unit_rows",
]

_CACHE: dict[tuple[str, int], np.ndarray] = {}
_CACHE_LIMIT = 200_000

# SeedSequence's uint32 hash-mix constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def seed_state(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` of every
    uint64 seed, one row each.  A seed below 2**32 has one entropy
    word, which the pool pads with zeros: the same as a zero high word.
    """
    const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    zero = np.zeros(len(seeds), dtype=np.uint32)
    low = (seeds & np.uint64(_MASK32)).astype(np.uint32)
    high = (seeds >> np.uint64(32)).astype(np.uint32)
    pool = [hashmix(word) for word in (low, high, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = np.uint32(_MIX_MULT_L) * pool[dst]
                mixed -= np.uint32(_MIX_MULT_R) * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    const = _INIT_B
    words = np.empty((len(seeds), 8), dtype=np.uint32)
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        words[:, i] = value ^ (value >> np.uint32(16))
    return words.astype("<u4").view("<u8").astype(np.uint64)


def normal_rows(seeds: np.ndarray, dim: int) -> np.ndarray:
    """``default_rng(seed).standard_normal(dim)`` of every seed, stacked.

    One ``PCG64`` takes each seed's state from its :func:`seed_state`
    words by ``pcg64_set_seed`` (both 128-bit words high first, then
    two LCG steps around adding the initial state) and draws its row.
    """
    rows = np.empty((len(seeds), dim))
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    inner = {"state": 0, "inc": 0}
    state = dict(bit_generator="PCG64", state=inner, has_uint32=0, uinteger=0)
    words = seed_state(np.asarray(seeds, dtype=np.uint64)).tolist()
    for row, (s_high, s_low, i_high, i_low) in zip(rows, words):
        inc = ((i_high << 64 | i_low) << 1 | 1) & _MASK128
        start = inc + (s_high << 64 | s_low)
        inner["state"] = (start * _PCG_MULT + inc) & _MASK128
        inner["inc"] = inc
        bit_generator.state = state
        generator.standard_normal(out=row)
    return rows


def unit_rows(matrix: np.ndarray) -> np.ndarray:
    """``matrix`` with every nonzero row divided by its norm, in place.
    The norms are stacked ``(1, k) @ (k, 1)`` products: the per-row
    ``np.linalg.norm`` bit for bit."""
    norms = np.sqrt(np.matmul(matrix[:, None, :], matrix[:, :, None]))
    matrix /= np.where(norms > 0, norms, 1.0)[:, 0]
    return matrix


def hash_vectors(texts: list[str], dim: int) -> np.ndarray:
    """Deterministic unit vector of dimension ``dim`` for every text,
    stacked.  Each distinct uncached text is drawn once."""
    found = {text: _CACHE.get((text, dim)) for text in texts}
    missing = [text for text, vector in found.items() if vector is None]
    if missing:
        digests = b"".join(
            hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
            for text in missing
        )
        fresh = unit_rows(normal_rows(np.frombuffer(digests, "<u8"), dim))
        for text, vector in zip(missing, fresh):
            found[text] = vector
            if len(_CACHE) >= _CACHE_LIMIT:
                _CACHE.clear()
            _CACHE[text, dim] = vector
    if not texts:
        return np.empty((0, dim))
    return np.stack([found[text] for text in texts])


def hash_vector(text: str, dim: int) -> np.ndarray:
    """Deterministic unit vector of dimension ``dim`` for ``text``."""
    return hash_vectors([text], dim)[0]


def clear_cache() -> None:
    """Drop all memoized vectors (useful in memory-sensitive tests)."""
    _CACHE.clear()


def pool_rows(matrices: list[np.ndarray], dim: int) -> np.ndarray:
    """Mean-pool per-text token matrices into stacked text embeddings
    (the zero vector for a token-less text)."""
    return np.vstack(
        [
            matrix.mean(axis=0) if matrix.shape[0] else np.zeros(dim)
            for matrix in matrices
        ]
    )


class HashEmbeddingModel:
    """The collection pass both hash-embedding models share.

    A model supplies ``dim`` and ``_rows(words)``, the stacked token
    vectors of tokenized texts.  Every entry point is one call into
    :meth:`embed_collection`, so one text gets the bits it gets in a
    collection.
    """

    dim: int

    def embed_collection(self, texts: list[str]) -> list[np.ndarray]:
        """Token matrices of ``texts``, one per text, in one pass."""
        words = [tokens(text) for text in texts]
        rows = self._rows(words)
        ends = np.cumsum([len(text_words) for text_words in words])
        return [
            rows[end - len(text_words) : end]
            for text_words, end in zip(words, ends.tolist())
        ]

    def embed_tokens(self, text: str) -> np.ndarray:
        """Matrix of token vectors, one row per token of ``text``."""
        return self.embed_collection([text])[0]

    def embed_text(self, text: str) -> np.ndarray:
        """Mean of the token vectors (zero vector for empty text)."""
        return self.embed_texts([text])[0]

    def embed_texts(self, texts: list[str]) -> np.ndarray:
        """Stacked text embeddings, one row per input text."""
        return pool_rows(self.embed_collection(texts), self.dim)
