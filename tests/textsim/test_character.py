"""Tests for character-level string similarity measures."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.oracles.textsim import (
    damerau_levenshtein_similarity,
    jaro_similarity,
    levenshtein_distance,
    levenshtein_similarity,
    longest_common_subsequence_similarity,
    longest_common_substring_similarity,
    needleman_wunsch_similarity,
    qgrams_distance_similarity,
)
from tests.oracles.textsim.character import damerau_levenshtein_distance

ALL_MEASURES = [
    levenshtein_similarity,
    damerau_levenshtein_similarity,
    jaro_similarity,
    needleman_wunsch_similarity,
    qgrams_distance_similarity,
    longest_common_substring_similarity,
    longest_common_subsequence_similarity,
]

texts = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=20
)


class TestLevenshtein:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("kitten", "sitting", 3),
            ("", "", 0),
            ("abc", "", 3),
            ("", "abc", 3),
            ("same", "same", 0),
            ("flaw", "lawn", 2),
            ("ab", "ba", 2),
        ],
    )
    def test_distance(self, a, b, expected):
        assert levenshtein_distance(a, b) == expected

    def test_similarity_normalized(self):
        assert levenshtein_similarity("kitten", "sitting") == pytest.approx(
            1 - 3 / 7
        )

    def test_empty_strings_identical(self):
        assert levenshtein_similarity("", "") == 1.0

    @given(texts, texts)
    @settings(max_examples=60)
    def test_triangle_inequality_via_third(self, a, b):
        # d(a,b) <= d(a,"") + d("",b) = len(a)+len(b)
        assert levenshtein_distance(a, b) <= len(a) + len(b)


class TestDamerauLevenshtein:
    def test_transposition_costs_one(self):
        assert damerau_levenshtein_distance("ab", "ba") == 1
        assert levenshtein_distance("ab", "ba") == 2

    def test_ca_abc(self):
        # Classic OSA example: "ca" -> "abc" costs 3 under OSA.
        assert damerau_levenshtein_distance("ca", "abc") == 3

    @given(texts, texts)
    @settings(max_examples=60)
    def test_never_exceeds_levenshtein(self, a, b):
        assert damerau_levenshtein_distance(a, b) <= levenshtein_distance(a, b)


class TestJaro:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("martha", "marhta", 0.944444),
            ("dixon", "dicksonx", 0.766667),
            ("jellyfish", "smellyfish", 0.896296),
        ],
    )
    def test_known_values(self, a, b, expected):
        assert jaro_similarity(a, b) == pytest.approx(expected, abs=1e-5)

    def test_no_common_characters(self):
        assert jaro_similarity("abc", "xyz") == 0.0

    def test_identical(self):
        assert jaro_similarity("hello", "hello") == 1.0


class TestNeedlemanWunsch:
    def test_identical(self):
        assert needleman_wunsch_similarity("abc", "abc") == 1.0

    def test_one_empty(self):
        assert needleman_wunsch_similarity("abc", "") == 0.0

    def test_single_substitution(self):
        # Cost 1 (mismatch), bound 2*3: similarity 1 - 1/6.
        assert needleman_wunsch_similarity("abc", "abd") == pytest.approx(
            1 - 1 / 6
        )

    def test_prefers_alignment_over_gaps(self):
        assert needleman_wunsch_similarity(
            "abcd", "abed"
        ) > needleman_wunsch_similarity("abcd", "wxyz")


class TestQGrams:
    def test_identical(self):
        assert qgrams_distance_similarity("hello", "hello") == 1.0

    def test_disjoint(self):
        assert qgrams_distance_similarity("aaaa", "zzzz") == 0.0

    def test_partial_overlap(self):
        value = qgrams_distance_similarity("nicholas", "nicolas")
        assert 0.5 < value < 1.0


class TestLongestCommon:
    def test_substring(self):
        # "ababc" vs "xabcx": longest common substring "abc" (3/5).
        assert longest_common_substring_similarity(
            "ababc", "xabcx"
        ) == pytest.approx(0.6)

    def test_subsequence_geq_substring(self):
        a, b = "abcdef", "axbycz"
        assert longest_common_subsequence_similarity(
            a, b
        ) >= longest_common_substring_similarity(a, b)

    def test_subsequence_value(self):
        # LCS of "abcdef"/"axbycz" is "abc" (3/6).
        assert longest_common_subsequence_similarity(
            "abcdef", "axbycz"
        ) == pytest.approx(0.5)

    @given(texts, texts)
    @settings(max_examples=60)
    def test_subsequence_dominates_substring(self, a, b):
        assert (
            longest_common_subsequence_similarity(a, b)
            >= longest_common_substring_similarity(a, b) - 1e-12
        )


@pytest.mark.parametrize("measure", ALL_MEASURES)
class TestCommonProperties:
    @given(a=texts, b=texts)
    @settings(max_examples=40, deadline=None)
    def test_range(self, measure, a, b):
        value = measure(a, b)
        assert 0.0 <= value <= 1.0

    @given(a=texts)
    @settings(max_examples=40, deadline=None)
    def test_identity(self, measure, a):
        assert measure(a, a) == 1.0

    @given(a=texts, b=texts)
    @settings(max_examples=40, deadline=None)
    def test_symmetry(self, measure, a, b):
        assert measure(a, b) == pytest.approx(measure(b, a), abs=1e-12)

    def test_both_empty(self, measure):
        assert measure("", "") == 1.0
