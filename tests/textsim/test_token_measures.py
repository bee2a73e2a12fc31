"""Tests for token-level string similarity measures and tokenizers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.textsim.tokenize import character_ngrams, token_ngrams, tokens
from tests.oracles.textsim import (
    block_distance_similarity,
    cosine_token_similarity,
    dice_similarity,
    euclidean_token_similarity,
    generalized_jaccard_similarity,
    get_measure,
    jaccard_similarity,
    monge_elkan_similarity,
    overlap_coefficient,
    simon_white_similarity,
    smith_waterman_similarity,
)
from tests.oracles.textsim.registry import (
    CHARACTER_MEASURES,
    SCHEMA_BASED_MEASURES,
    TOKEN_MEASURES,
)

SYMMETRIC_MEASURES = [
    cosine_token_similarity,
    euclidean_token_similarity,
    block_distance_similarity,
    dice_similarity,
    simon_white_similarity,
    overlap_coefficient,
    jaccard_similarity,
    generalized_jaccard_similarity,
]

word_texts = st.lists(
    st.text(alphabet="abcdefg", min_size=1, max_size=6), max_size=6
).map(" ".join)


class TestTokenizers:
    def test_tokens_lowercase_alnum(self):
        assert tokens("Joe  Biden, Jr.") == ["joe", "biden", "jr"]

    def test_tokens_empty(self):
        assert tokens("  ,;  ") == []

    def test_character_ngrams_paper_example(self):
        # The paper's running example: 3-grams of "Joe Biden".
        grams = character_ngrams("Joe Biden", 3)
        assert grams == ["joe", "oe_", "e_b", "_bi", "bid", "ide", "den"]

    def test_character_ngrams_short_text(self):
        assert character_ngrams("ab", 3) == ["ab"]

    def test_character_ngrams_empty(self):
        assert character_ngrams("", 3) == []

    def test_character_ngrams_invalid_n(self):
        with pytest.raises(ValueError):
            character_ngrams("abc", 0)

    def test_token_ngrams_bigram(self):
        assert token_ngrams("new york city", 2) == [
            "new york",
            "york city",
        ]

    def test_token_ngrams_short(self):
        assert token_ngrams("hello", 2) == ["hello"]

    def test_token_ngrams_invalid_n(self):
        with pytest.raises(ValueError):
            token_ngrams("abc", -1)


class TestSetMeasures:
    def test_jaccard(self):
        assert jaccard_similarity("a b c", "b c d") == pytest.approx(0.5)

    def test_dice(self):
        assert dice_similarity("a b c", "b c d") == pytest.approx(4 / 6)

    def test_overlap(self):
        assert overlap_coefficient("a b", "a b c d") == 1.0

    def test_cosine(self):
        assert cosine_token_similarity("a b", "a b") == pytest.approx(1.0)
        assert cosine_token_similarity("a", "b") == 0.0

    def test_generalized_jaccard_multiset(self):
        # "a a b" vs "a b b": min-sum 2 (a:1, b:1), max-sum 4 (a:2, b:2).
        assert generalized_jaccard_similarity(
            "a a b", "a b b"
        ) == pytest.approx(0.5)

    def test_simon_white_multiset(self):
        # overlap 2 (a:1, b:1), total 6 -> 2*2/6.
        assert simon_white_similarity("a a b", "a b b") == pytest.approx(4 / 6)

    def test_block_distance(self):
        # Frequency diff: a:1, b:1 -> L1=2, total 6.
        assert block_distance_similarity("a a b", "a b b") == pytest.approx(
            1 - 2 / 6
        )

    def test_euclidean_disjoint_is_zero(self):
        assert euclidean_token_similarity("a", "b") == pytest.approx(0.0)


class TestMongeElkan:
    def test_identical(self):
        assert monge_elkan_similarity("peter smith", "peter smith") == 1.0

    def test_typo_tolerant(self):
        value = monge_elkan_similarity("peter smith", "peter smyth")
        assert value > 0.7

    def test_asymmetric(self):
        a = "peter"
        b = "peter smith jones"
        # Every token of `a` is found in `b`, not vice versa.
        assert monge_elkan_similarity(a, b) >= monge_elkan_similarity(b, a)

    def test_empty(self):
        assert monge_elkan_similarity("", "") == 1.0
        assert monge_elkan_similarity("a", "") == 0.0


class TestSmithWaterman:
    def test_identical(self):
        assert smith_waterman_similarity("abc", "abc") == 1.0

    def test_substring_scores_high(self):
        assert smith_waterman_similarity("bcd", "abcde") == 1.0

    def test_disjoint(self):
        assert smith_waterman_similarity("aaa", "zzz") == 0.0

    @given(
        st.text(alphabet="abcz", max_size=10),
        st.text(alphabet="abcz", max_size=10),
    )
    @settings(max_examples=50)
    def test_range(self, a, b):
        assert 0.0 <= smith_waterman_similarity(a, b) <= 1.0


@pytest.mark.parametrize("measure", SYMMETRIC_MEASURES)
class TestCommonTokenProperties:
    @given(a=word_texts, b=word_texts)
    @settings(max_examples=40, deadline=None)
    def test_range(self, measure, a, b):
        assert 0.0 <= measure(a, b) <= 1.0 + 1e-12

    @given(a=word_texts)
    @settings(max_examples=40, deadline=None)
    def test_identity(self, measure, a):
        assert measure(a, a) == pytest.approx(1.0)

    @given(a=word_texts, b=word_texts)
    @settings(max_examples=40, deadline=None)
    def test_symmetry(self, measure, a, b):
        assert measure(a, b) == pytest.approx(measure(b, a), abs=1e-12)


class TestRegistry:
    def test_sixteen_schema_based_measures(self):
        """The paper lists exactly 16 schema-based measures."""
        assert len(SCHEMA_BASED_MEASURES) == 16
        assert len(CHARACTER_MEASURES) == 7
        assert len(TOKEN_MEASURES) == 9

    def test_get_measure(self):
        assert get_measure("jaro") is CHARACTER_MEASURES["jaro"]

    def test_get_measure_unknown(self):
        with pytest.raises(KeyError):
            get_measure("nope")
