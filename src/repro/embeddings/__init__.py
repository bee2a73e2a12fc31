"""Semantic representation models (fastText / ALBERT substitute).

The paper's semantic similarity graphs come from two pre-trained dense
models: 300-d fastText (character-level) and 768-d ALBERT (contextual).
Pre-trained weights are unavailable offline, so this package implements
the closest deterministic equivalents that exercise the same code
paths (see DESIGN.md, substitutions):

* :class:`FastTextLikeModel` — a token vector is the normalized sum of
  deterministic hash vectors of its character n-grams, exactly
  fastText's subword composition.  Shared character n-grams between
  any two strings yield non-trivial cosine similarity for most pairs,
  reproducing the paper's key observation that semantic weights assign
  "relatively high similarity scores to most pairs of entities".
* :class:`ContextualModel` — token vectors are mixed with their
  neighbours' vectors before aggregation, so the same token obtains
  different representations in different contexts (the property that
  distinguishes transformer embeddings from static ones).

Three similarity measures are defined on these models, as in the paper:
Cosine, Euclidean similarity ``1 / (1 + distance)`` and Word Mover's
similarity ``1 / (1 + RWMD)`` using the relaxed word mover's distance
(its scalar per-pair form is a test oracle,
``tests/oracles/embeddings.py``).
"""

from repro.embeddings.contextual import ContextualModel
from repro.embeddings.fasttext_like import FastTextLikeModel
from repro.embeddings.hashing import hash_vector
from repro.embeddings.measures import (
    cosine_similarity_matrix,
    euclidean_similarity_matrix,
    word_mover_similarity_matrix,
)

__all__ = [
    "hash_vector",
    "FastTextLikeModel",
    "ContextualModel",
    "cosine_similarity_matrix",
    "euclidean_similarity_matrix",
    "word_mover_similarity_matrix",
]
