"""Registry of the scalar schema-based syntactic similarity measures.

Maps the paper's measure names to callables ``(str, str) -> float``,
in the order of :data:`repro.pipeline.batched_strings.SCHEMA_BASED_MEASURES`
(``tests/pipeline/test_batched_strings.py`` checks that the two agree).
"""

from __future__ import annotations

from typing import Callable

from tests.oracles.textsim.character import (
    damerau_levenshtein_similarity,
    jaro_similarity,
    levenshtein_similarity,
    longest_common_subsequence_similarity,
    longest_common_substring_similarity,
    needleman_wunsch_similarity,
    qgrams_distance_similarity,
)
from tests.oracles.textsim.token_measures import (
    block_distance_similarity,
    cosine_token_similarity,
    dice_similarity,
    euclidean_token_similarity,
    generalized_jaccard_similarity,
    jaccard_similarity,
    monge_elkan_similarity,
    overlap_coefficient,
    simon_white_similarity,
)

__all__ = [
    "CHARACTER_MEASURES",
    "TOKEN_MEASURES",
    "SCHEMA_BASED_MEASURES",
    "get_measure",
]

StringMeasure = Callable[[str, str], float]

#: The seven character-level measures of Appendix B.1.1.
CHARACTER_MEASURES: dict[str, StringMeasure] = {
    "levenshtein": levenshtein_similarity,
    "damerau_levenshtein": damerau_levenshtein_similarity,
    "jaro": jaro_similarity,
    "needleman_wunsch": needleman_wunsch_similarity,
    "qgrams": qgrams_distance_similarity,
    "lcs_substring": longest_common_substring_similarity,
    "lcs_subsequence": longest_common_subsequence_similarity,
}

#: The nine token-level measures of Appendix B.1.2.
TOKEN_MEASURES: dict[str, StringMeasure] = {
    "cosine_tokens": cosine_token_similarity,
    "euclidean_tokens": euclidean_token_similarity,
    "block_distance": block_distance_similarity,
    "dice": dice_similarity,
    "simon_white": simon_white_similarity,
    "overlap": overlap_coefficient,
    "jaccard": jaccard_similarity,
    "generalized_jaccard": generalized_jaccard_similarity,
    "monge_elkan": monge_elkan_similarity,
}

#: All 16 schema-based syntactic measures of the paper.
SCHEMA_BASED_MEASURES: dict[str, StringMeasure] = {
    **CHARACTER_MEASURES,
    **TOKEN_MEASURES,
}


def get_measure(name: str) -> StringMeasure:
    """Look up a schema-based measure by name."""
    try:
        return SCHEMA_BASED_MEASURES[name]
    except KeyError:
        known = ", ".join(sorted(SCHEMA_BASED_MEASURES))
        raise KeyError(f"unknown measure {name!r}; known measures: {known}")
