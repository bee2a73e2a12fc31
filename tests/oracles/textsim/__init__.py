"""The scalar schema-based string measures: per-pair definitions.

Appendix B.1 of the paper lists 16 established measures applied to the
schema-based syntactic representations.  These modules define each of
them for one pair of strings, ``(str, str) -> float`` in ``[0, 1]``
(distances are normalized and inverted):

Character-level (:mod:`tests.oracles.textsim.character`):
    Levenshtein, Damerau-Levenshtein, Jaro, Needleman-Wunsch, q-grams
    distance, Longest Common Substring, Longest Common Subsequence.

Token-level (:mod:`tests.oracles.textsim.token_measures`):
    Cosine, Euclidean, Block (L1), Dice, Simon-White, Overlap
    coefficient, Jaccard, Generalized Jaccard, Monge-Elkan (with a
    Smith-Waterman secondary measure).

The shipped kernels (:mod:`repro.pipeline.batched_strings`) score the
same measures over whole value lists; the differential tests in
``tests/pipeline/test_batched_strings.py`` compare them with these
definitions on every pair of non-empty values.  Unlike the kernels,
the scalar measures treat two empty values as identical.
"""

from tests.oracles.textsim.character import (
    damerau_levenshtein_similarity,
    jaro_similarity,
    levenshtein_distance,
    levenshtein_similarity,
    longest_common_subsequence_similarity,
    longest_common_substring_similarity,
    needleman_wunsch_similarity,
    qgrams_distance_similarity,
)
from tests.oracles.textsim.registry import (
    CHARACTER_MEASURES,
    SCHEMA_BASED_MEASURES,
    TOKEN_MEASURES,
    get_measure,
)
from tests.oracles.textsim.smith_waterman import smith_waterman_similarity
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
