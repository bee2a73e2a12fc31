"""Context-mixing embeddings (ALBERT substitute).

Transformer language models assign a token different vectors in
different contexts.  This substitute reproduces that property with a
single self-attention-flavoured mixing step: each token's base (hash)
vector is averaged with its neighbours inside a context window, plus a
small positional component.  Homonyms thus receive distinct vectors in
distinct contexts, and synonym-free texts with overlapping context
windows still score a non-trivial similarity — the distributional
behaviour the paper reports for BERT-family weights.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.embeddings.hashing import (
    HashEmbeddingModel,
    hash_vectors,
    unit_rows,
)

__all__ = ["ContextualModel"]


class ContextualModel(HashEmbeddingModel):
    """Neighbour-mixing contextual embeddings.

    Parameters
    ----------
    dim:
        Embedding dimensionality (the paper's ALBERT uses 768).
    window:
        Context radius: token ``i`` mixes with tokens ``i-window`` to
        ``i+window``.
    mix:
        Weight of the context component relative to the token's own
        vector (0 reduces to static embeddings).
    positional_scale:
        Magnitude of the sinusoidal positional component.
    """

    name = "albert_like"

    def __init__(
        self,
        dim: int = 96,
        window: int = 2,
        mix: float = 0.5,
        positional_scale: float = 0.1,
    ) -> None:
        if dim <= 0:
            raise ValueError("dim must be positive")
        if window < 0:
            raise ValueError("window must be non-negative")
        if not 0.0 <= mix <= 1.0:
            raise ValueError("mix must be within [0, 1]")
        self.dim = dim
        self.window = window
        self.mix = mix
        self.positional_scale = positional_scale
        self._positional_cache: dict[int, np.ndarray] = {}

    def _positional(self, position: int) -> np.ndarray:
        """Sinusoidal positional encoding (transformer-style).

        Encodings depend only on the position, so they are memoized —
        embedding a whole collection revisits the same few positions
        thousands of times.
        """
        cached = self._positional_cache.get(position)
        if cached is not None:
            return cached
        indices = np.arange(self.dim)
        angles = position / np.power(
            10_000.0, (2 * (indices // 2)) / self.dim
        )
        encoding = np.where(indices % 2 == 0, np.sin(angles), np.cos(angles))
        encoding = self.positional_scale * encoding
        self._positional_cache[position] = encoding
        return encoding

    def _rows(self, words: list[list[str]]) -> np.ndarray:
        """Context-dependent token vectors of every text, stacked.

        A window sum is built one offset at a time from zeros, lowest
        offset first, and divided by the window's size; the mix and the
        positional rows follow in place: the per-token loop of
        ``tests/oracles/embeddings.py`` bit for bit.
        """
        lengths = [len(text_words) for text_words in words]
        base = hash_vectors(list(chain.from_iterable(words)), self.dim)
        n = len(base)
        if not n:
            return base
        length = np.repeat(lengths, lengths)
        position = np.concatenate([np.arange(k) for k in lengths])
        total = np.zeros_like(base)
        size = np.zeros((n, 1))
        for offset in range(-self.window, self.window + 1):
            near = position + offset
            keep = ((near >= 0) & (near < length))[:, None]
            size += keep
            # Token i adds token i + offset where both share a text.
            low, high = max(0, -offset), min(n, n - offset)
            if low < high:
                np.add(
                    total[low:high],
                    base[low + offset : high + offset],
                    out=total[low:high],
                    where=keep[low:high],
                )
        total /= size
        total *= self.mix
        base *= 1.0 - self.mix
        base += total
        positional = np.stack(
            [self._positional(i) for i in range(max(lengths))]
        )
        # The window sums are spent, so their buffer takes the
        # positional rows ("clip" writes it unbuffered; no position is
        # out of range).
        base += np.take(positional, position, axis=0, out=total, mode="clip")
        return unit_rows(base)
