"""Frozen scalar embeddings and per-pair RWMD loop: the oracles of the
batched embeddings and the bucketed RWMD kernel.

Before the kernel engine the semantic RWMD matrix called
:func:`relaxed_word_mover_distance`, the scalar RWMD of one pair of
texts, once per pair.  Both are kept here verbatim; the bucketed
:func:`~repro.embeddings.measures.word_mover_similarity_matrix` must
equal the loop bit for bit (``tests/pipeline/test_kernels.py``,
``benchmarks/bench_kernel_engine.py``).

The scalar embedding bodies are kept here too, one vector or one token
at a time: :func:`hash_vector` (``default_rng`` per string), the
subword loop of :func:`fasttext_embed_token` with the per-token stack
of :func:`fasttext_embed_tokens`, and the per-token window loop of
:func:`contextual_embed_tokens`.  Their bodies are the ones
``src/`` ran before the collection pass, verbatim except that the
memo lookups stay in ``src/`` and a method's ``self`` became the first
argument (``model``).  ``hash_vectors`` and both models'
``embed_collection`` must equal them bit for bit
(``tests/embeddings/test_batched.py``,
``benchmarks/bench_kernel_engine.py``).
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.textsim.tokenize import tokens

__all__ = [
    "contextual_embed_tokens",
    "fasttext_embed_token",
    "fasttext_embed_tokens",
    "hash_vector",
    "relaxed_word_mover_distance",
    "word_mover_similarity_matrix_legacy",
]


def hash_vector(text: str, dim: int) -> np.ndarray:
    """Deterministic unit vector of dimension ``dim`` for ``text``."""
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    seed = int.from_bytes(digest, "little")
    rng = np.random.default_rng(seed)
    vector = rng.standard_normal(dim)
    norm = np.linalg.norm(vector)
    if norm > 0:
        vector /= norm
    return vector


def fasttext_embed_token(model, token: str) -> np.ndarray:
    """Unit vector of one token: normalized sum of subword vectors."""
    total = np.zeros(model.dim)
    for gram in model._subwords(token):
        total += hash_vector(gram, model.dim)
    norm = np.linalg.norm(total)
    if norm > 0:
        total = total / norm
    return total


def fasttext_embed_tokens(model, text: str) -> np.ndarray:
    """Matrix of token vectors, one row per token of ``text``."""
    words = tokens(text)
    if not words:
        return np.zeros((0, model.dim))
    return np.vstack([fasttext_embed_token(model, word) for word in words])


def contextual_embed_tokens(model, text: str) -> np.ndarray:
    """Context-dependent token vectors, one row per token."""
    words = tokens(text)
    if not words:
        return np.zeros((0, model.dim))
    base = np.vstack([hash_vector(word, model.dim) for word in words])
    contextual = np.empty_like(base)
    n = len(words)
    for i in range(n):
        low = max(0, i - model.window)
        high = min(n, i + model.window + 1)
        context = base[low:high].mean(axis=0)
        mixed = (1.0 - model.mix) * base[i] + model.mix * context
        mixed = mixed + model._positional(i)
        norm = np.linalg.norm(mixed)
        contextual[i] = mixed / norm if norm > 0 else mixed
    return contextual


def word_mover_similarity_matrix_legacy(
    token_matrices_left: list[np.ndarray],
    token_matrices_right: list[np.ndarray],
    stats_left: list[tuple[np.ndarray, np.ndarray]] | None = None,
    stats_right: list[tuple[np.ndarray, np.ndarray]] | None = None,
) -> np.ndarray:
    """Frozen per-pair RWMD loop (pre-kernel-engine reference)."""
    n_left = len(token_matrices_left)
    n_right = len(token_matrices_right)
    result = np.zeros((n_left, n_right))
    no_stats = (None, None)
    for i, tokens_a in enumerate(token_matrices_left):
        sq_a, weights_a = (
            stats_left[i] if stats_left is not None else no_stats
        )
        for j, tokens_b in enumerate(token_matrices_right):
            sq_b, weights_b = (
                stats_right[j] if stats_right is not None else no_stats
            )
            distance = relaxed_word_mover_distance(
                tokens_a,
                tokens_b,
                weights_a=weights_a,
                weights_b=weights_b,
                sq_a=sq_a,
                sq_b=sq_b,
            )
            if np.isinf(distance):
                result[i, j] = 0.0
            else:
                result[i, j] = 1.0 / (1.0 + distance)
    return result


def _directional_cost(
    source: np.ndarray,
    weights: np.ndarray,
    distance: np.ndarray,
    axis: int,
) -> float:
    """Greedy transport cost with only the source constraint kept."""
    nearest = distance.min(axis=axis)
    return float(np.dot(weights, nearest))


def relaxed_word_mover_distance(
    tokens_a: np.ndarray,
    tokens_b: np.ndarray,
    weights_a: np.ndarray | None = None,
    weights_b: np.ndarray | None = None,
    sq_a: np.ndarray | None = None,
    sq_b: np.ndarray | None = None,
) -> float:
    """RWMD between two token-embedding matrices.

    Parameters
    ----------
    tokens_a, tokens_b:
        ``(k, dim)`` matrices of token vectors.
    weights_a, weights_b:
        Normalized token weights; uniform by default.
    sq_a, sq_b:
        Precomputed per-token squared norms (see :func:`token_stats`);
        computed here by default.

    Returns
    -------
    float
        ``max`` of the two directional relaxations; ``0`` when both
        texts are empty, ``inf`` when exactly one is empty (no
        transport plan exists).
    """
    n_a = tokens_a.shape[0]
    n_b = tokens_b.shape[0]
    if n_a == 0 and n_b == 0:
        return 0.0
    if n_a == 0 or n_b == 0:
        return float("inf")
    if weights_a is None:
        weights_a = np.full(n_a, 1.0 / n_a)
    if weights_b is None:
        weights_b = np.full(n_b, 1.0 / n_b)

    # Pairwise Euclidean distances via the Gram expansion.
    if sq_a is None:
        sq_a = np.sum(tokens_a * tokens_a, axis=1)
    if sq_b is None:
        sq_b = np.sum(tokens_b * tokens_b, axis=1)
    squared = sq_a[:, None] + sq_b[None, :] - 2.0 * (tokens_a @ tokens_b.T)
    distance = np.sqrt(np.maximum(squared, 0.0))

    cost_ab = _directional_cost(tokens_a, weights_a, distance, axis=1)
    cost_ba = _directional_cost(tokens_b, weights_b, distance, axis=0)
    return max(cost_ab, cost_ba)
