"""fastText-style subword embeddings (offline substitute).

fastText vectorizes a token by summing the embeddings of all its
character n-grams, which lets it embed out-of-vocabulary tokens — the
very reason the paper chose it over word2vec/GloVe.  This model keeps
that composition rule but draws the n-gram embeddings from the
deterministic hash space of :mod:`repro.embeddings.hashing` instead of
pre-trained weights.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.embeddings.hashing import (
    HashEmbeddingModel,
    hash_vectors,
    unit_rows,
)

__all__ = ["FastTextLikeModel"]


class FastTextLikeModel(HashEmbeddingModel):
    """Character n-gram composition embeddings.

    Parameters
    ----------
    dim:
        Embedding dimensionality (the paper's fastText uses 300; the
        default 64 preserves behaviour at a fraction of the cost).
    min_n, max_n:
        Range of character n-gram lengths composed into a token vector
        (fastText's defaults are 3..6; token boundaries are marked with
        ``<`` and ``>`` as in the original).
    """

    name = "fasttext_like"

    def __init__(self, dim: int = 64, min_n: int = 3, max_n: int = 5) -> None:
        if dim <= 0:
            raise ValueError("dim must be positive")
        if not (0 < min_n <= max_n):
            raise ValueError("need 0 < min_n <= max_n")
        self.dim = dim
        self.min_n = min_n
        self.max_n = max_n
        self._token_cache: dict[str, np.ndarray] = {}

    def _subwords(self, token: str) -> list[str]:
        marked = f"<{token}>"
        grams: list[str] = []
        for n in range(self.min_n, self.max_n + 1):
            if len(marked) < n:
                continue
            grams.extend(
                marked[i : i + n] for i in range(len(marked) - n + 1)
            )
        if not grams:
            grams = [marked]
        return grams

    def embed_token(self, token: str) -> np.ndarray:
        """Unit vector of one token: normalized sum of subword vectors."""
        return self._rows([[token]])[0]

    def _rows(self, words: list[list[str]]) -> np.ndarray:
        """Every token's vector, each distinct uncached token built once.

        Column ``c`` adds the ``c``-th subword vector of every token that
        has one into a zero total, so each token sums its subwords in the
        order of the scalar loop (``tests/oracles/embeddings.py``).
        """
        flat = list(chain.from_iterable(words))
        cache = self._token_cache
        missing = [word for word in dict.fromkeys(flat) if word not in cache]
        if missing:
            grams = [self._subwords(token) for token in missing]
            counts = np.array([len(token_grams) for token_grams in grams])
            total = np.zeros((len(missing), self.dim))
            for column in range(counts.max()):
                rows = np.flatnonzero(counts > column)
                total[rows] += hash_vectors(
                    [grams[row][column] for row in rows.tolist()], self.dim
                )
            cache.update(zip(missing, unit_rows(total)))
        if not flat:
            return np.empty((0, self.dim))
        return np.stack([cache[token] for token in flat])
