"""Tokenizers of the syntactic representation models.

Word tokens and character/token n-grams feed the vector-space, n-gram
graph and embedding models and the blocking keys; the padded trigram
profile feeds the q-grams measure.  The 16 schema-based measures of
the paper's Appendix B.1 are scored by the kernels of
:mod:`repro.pipeline.batched_strings`; their per-pair definitions are
test oracles (``tests/oracles/textsim/``).
"""

from repro.textsim.tokenize import (
    character_ngrams,
    padded_trigrams,
    token_ngrams,
    tokens,
)

__all__ = ["tokens", "character_ngrams", "token_ngrams", "padded_trigrams"]
