"""Differential tests: batched all-pairs measures vs scalar references.

Every batched measure must agree with the trusted scalar
implementation from :mod:`tests.oracles.textsim` on all pairs of
non-empty strings (empty strings follow the builder convention of
similarity 0, checked separately).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline.batched_strings import (
    SCHEMA_BASED_MEASURES,
    StringBatch,
    measure_input,
    schema_based_cells,
    schema_based_matrix,
    schema_based_pairs,
    schema_based_rows,
)
from repro.pipeline.kernels import SparsePlan
from tests.oracles.strings import TOKEN_MATRIX_MEASURES
from tests.oracles.textsim import (
    damerau_levenshtein_similarity,
    jaro_similarity,
    levenshtein_similarity,
    longest_common_subsequence_similarity,
    longest_common_substring_similarity,
    monge_elkan_similarity,
    needleman_wunsch_similarity,
    qgrams_distance_similarity,
)
from tests.oracles.textsim.registry import (
    SCHEMA_BASED_MEASURES as SCALAR_MEASURES,
    TOKEN_MEASURES,
)

BATCHED_VS_SCALAR = [
    pytest.param(measure, scalar, id=f"{measure}_matrix-{scalar.__name__}")
    for measure, scalar in (
        ("levenshtein", levenshtein_similarity),
        ("damerau_levenshtein", damerau_levenshtein_similarity),
        ("needleman_wunsch", needleman_wunsch_similarity),
        ("lcs_subsequence", longest_common_subsequence_similarity),
        ("lcs_substring", longest_common_substring_similarity),
        ("jaro", jaro_similarity),
        ("qgrams", qgrams_distance_similarity),
        ("monge_elkan", monge_elkan_similarity),
    )
]

strings = st.lists(
    st.text(alphabet="abcde _", min_size=1, max_size=12).filter(str.strip),
    min_size=1,
    max_size=6,
)


@pytest.mark.parametrize("measure,scalar", BATCHED_VS_SCALAR)
@given(lefts=strings, rights=strings)
@settings(max_examples=30, deadline=None)
def test_batched_matches_scalar(measure, scalar, lefts, rights):
    from repro.textsim.tokenize import tokens

    matrix = schema_based_matrix(lefts, rights, measure)
    assert matrix.shape == (len(lefts), len(rights))
    for i, a in enumerate(lefts):
        for j, b in enumerate(rights):
            if measure == "monge_elkan" and (not tokens(a) or not tokens(b)):
                assert matrix[i, j] == 0.0  # builder convention
                continue
            assert matrix[i, j] == pytest.approx(scalar(a, b), abs=1e-9), (
                f"{measure} mismatch for {a!r} vs {b!r}"
            )


@pytest.mark.parametrize("measure", TOKEN_MATRIX_MEASURES)
@given(lefts=strings, rights=strings)
@settings(max_examples=30, deadline=None)
def test_token_matrix_matches_scalar(measure, lefts, rights):
    from repro.textsim.tokenize import tokens

    scalar = TOKEN_MEASURES[measure]
    matrix = schema_based_matrix(lefts, rights, measure)
    for i, a in enumerate(lefts):
        for j, b in enumerate(rights):
            if not tokens(a) or not tokens(b):
                # Builder convention: values without tokens carry no
                # matching evidence (the scalar measures instead treat
                # two token-less values as identical).
                assert matrix[i, j] == 0.0
                continue
            assert matrix[i, j] == pytest.approx(scalar(a, b), abs=1e-9), (
                f"{measure} mismatch for {a!r} vs {b!r}"
            )


@pytest.mark.parametrize("measure,_", BATCHED_VS_SCALAR)
def test_empty_strings_yield_zero(measure, _):
    matrix = schema_based_matrix(["", "abc"], ["abc", ""], measure)
    assert matrix[0, 0] == 0.0  # empty left
    assert matrix[1, 1] == 0.0  # empty right
    assert matrix[0, 1] == 0.0  # both empty: still no evidence


def test_empty_collections():
    assert schema_based_matrix([], ["a"], "levenshtein").shape == (0, 1)
    assert schema_based_matrix(["a"], [], "levenshtein").shape == (1, 0)
    assert schema_based_matrix([], [], "dice").shape == (0, 0)


def test_schema_based_matrix_dispatch():
    lefts, rights = ["abc"], ["abd"]
    batch = StringBatch(lefts, rights)
    cell = schema_based_cells(batch, "levenshtein", [0], [0])
    dispatched = schema_based_matrix(lefts, rights, "levenshtein")
    assert np.array_equal(cell, dispatched[0])
    token = schema_based_matrix(["a b"], ["b c"], "jaccard")
    assert token[0, 0] == pytest.approx(1 / 3)


def test_schema_based_matrix_unknown_measure():
    # Every entry point names all 16 measures, not only the token ones.
    batch = StringBatch(["a"], ["b"])
    plan = SparsePlan.build(batch.plan, [0], [0])
    calls = [
        lambda: schema_based_matrix(["a"], ["b"], "soundex"),
        lambda: schema_based_rows(batch, "soundex"),
        lambda: schema_based_cells(batch, "soundex", [0]),
        lambda: schema_based_cells(batch, "soundex", [0], [0]),
        lambda: schema_based_pairs(["a"], ["b"], "soundex", plan, batch),
    ]
    for call in calls:
        with pytest.raises(KeyError, match="levenshtein"):
            call()


def test_schema_based_measures_pinned():
    """The 16 names in the paper's order.  The full taxonomy enumerates
    its specs, and so orders its graphs, in this order, and the corpus
    cache key cannot see a reorder."""
    assert SCHEMA_BASED_MEASURES == (
        "levenshtein",
        "damerau_levenshtein",
        "jaro",
        "needleman_wunsch",
        "qgrams",
        "lcs_substring",
        "lcs_subsequence",
        "cosine_tokens",
        "euclidean_tokens",
        "block_distance",
        "dice",
        "simon_white",
        "overlap",
        "jaccard",
        "generalized_jaccard",
        "monge_elkan",
    )
    assert tuple(SCALAR_MEASURES) == SCHEMA_BASED_MEASURES
    # The kernel input of each measure, which also picks the artifacts
    # the engine seeds from the store.
    inputs = [measure_input(m) for m in SCHEMA_BASED_MEASURES]
    assert inputs == ["encoded"] * 4 + ["qgrams"] + ["encoded"] * 2 + [
        "tokens"
    ] * 8 + ["monge_elkan"]


def test_all_sixteen_measures_dispatchable():
    for measure in SCHEMA_BASED_MEASURES:
        matrix = schema_based_matrix(["golden dragon"], ["golden dragoon"],
                                     measure)
        assert matrix.shape == (1, 1)
        assert 0.0 <= matrix[0, 0] <= 1.0
