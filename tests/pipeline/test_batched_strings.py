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
    StringSide,
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


# ----------------------------------------------------------------------
# Per-collection sides: grown in place, taken per pass
# ----------------------------------------------------------------------
#: Values over a tiny alphabet, so values and keys repeat; empty,
#: blank and token-less ("!!") values included.
side_values = st.lists(st.text(alphabet="ab c!", max_size=8), max_size=6)

SIDE_ARTIFACTS = (
    "encoding",
    "token_lists",
    "token_counts",
    "qgram_counts",
    "monge_elkan",
)


def _comparable(name: str, built):
    if name == "encoding":
        codes, lengths = built
        return codes.shape, codes.dtype, codes.tobytes(), lengths.tolist()
    if name == "token_lists":
        return built
    if name == "monge_elkan":
        ids, vocabulary = built
        return [row.tolist() for row in ids], list(vocabulary)
    return (
        built.shape,
        *((a.dtype, a.tobytes()) for a in (built.data, built.indices)),
        built.indptr.tolist(),
    )


@settings(max_examples=150, deadline=None)
@given(
    head=side_values,
    tail=side_values,
    built=st.sets(st.sampled_from(SIDE_ARTIFACTS)),
)
def test_extended_side_equals_one_build(head, tail, built):
    # Artifacts built before an extend grow in place; new keys take
    # the next columns, which is where one build over both lists puts
    # them, so the two sides agree array for array.
    grown = StringSide(head)
    for name in sorted(built):
        grown.artifact(name)
    grown.extend(tail)
    whole = StringSide(head + tail)
    assert grown.values == whole.values
    for attribute in ("inverse", "empty"):
        a, b = getattr(grown, attribute), getattr(whole, attribute)
        assert a.dtype == b.dtype and a.tolist() == b.tolist()
    for name in SIDE_ARTIFACTS:
        assert _comparable(name, grown.artifact(name)) == _comparable(
            name, whole.artifact(name)
        ), name
    assert grown.vocabularies == whole.vocabularies


def test_failed_extend_leaves_the_side_as_it_was():
    # A lone surrogate has no code-point encoding.  Built last, the
    # encoding raises after every other artifact's new rows and keys
    # are built: the extend must still change nothing.
    head = ["ab c", "a", "", "!!"]
    side = StringSide(head)
    for name in reversed(SIDE_ARTIFACTS):
        side.artifact(name)

    def state():
        return (
            list(side.values),
            side.inverse.tolist(),
            side.empty.tolist(),
            {name: dict(v) for name, v in side.vocabularies.items()},
            {name: _comparable(name, side.artifact(name))
             for name in SIDE_ARTIFACTS},
        )

    before = state()
    with pytest.raises(UnicodeEncodeError):
        side.extend(["cc bb", "a", "b\ud800 dd"])
    assert state() == before
    side.extend(["cc bb", "a"])
    whole = StringSide(head + ["cc bb", "a"])
    assert side.values == whole.values
    assert side.inverse.tolist() == whole.inverse.tolist()
    for name in SIDE_ARTIFACTS:
        assert _comparable(name, side.artifact(name)) == _comparable(
            name, whole.artifact(name)
        ), name
    assert side.vocabularies == whole.vocabularies


def _rows_by_key(matrix, vocabulary: dict) -> list[dict]:
    keys = list(vocabulary)
    return [
        {
            keys[column]: value
            for column, value in zip(
                matrix.indices[start:stop], matrix.data[start:stop]
            )
        }
        for start, stop in zip(matrix.indptr[:-1], matrix.indptr[1:])
    ]


@settings(max_examples=150, deadline=None)
@given(
    values=side_values.filter(bool),
    built=st.sets(st.sampled_from(SIDE_ARTIFACTS)),
    data=st.data(),
)
def test_taken_side_equals_a_build_of_its_records(values, built, data):
    side = StringSide(values)
    for name in sorted(built):
        side.artifact(name)
    records = np.asarray(
        data.draw(st.lists(st.integers(0, len(values) - 1))), dtype=np.intp
    )
    taken = side.take(records)
    fresh = StringSide([values[record] for record in records])
    assert taken.values == fresh.values
    for attribute in ("inverse", "empty"):
        a, b = getattr(taken, attribute), getattr(fresh, attribute)
        assert a.dtype == b.dtype and a.tolist() == b.tolist()
    for name in ("encoding", "token_lists", "monge_elkan"):
        assert _comparable(name, taken.artifact(name)) == _comparable(
            name, fresh.artifact(name)
        ), name
    # Count rows keep the parent's columns: equal key by key.
    for name, vocabulary in (("token_counts", "tokens"),
                             ("qgram_counts", "qgrams")):
        assert _rows_by_key(
            taken.artifact(name), side.vocabularies[vocabulary]
        ) == _rows_by_key(
            fresh.artifact(name), fresh.vocabularies[vocabulary]
        ), name


@pytest.mark.parametrize("measure", SCHEMA_BASED_MEASURES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_against_scores_equal_the_matrix(measure, data):
    lefts = data.draw(side_values.filter(bool))
    rights = data.draw(side_values.filter(bool))
    split = data.draw(st.integers(0, len(rights)))
    side = StringSide(rights[:split])
    side.prepare(data.draw(st.sampled_from(SCHEMA_BASED_MEASURES)))
    side.extend(rights[split:])
    records = np.asarray(
        data.draw(st.lists(st.integers(0, len(rights) - 1), min_size=1)),
        dtype=np.intp,
    )
    side.prepare(measure)
    vocabularies = {k: dict(v) for k, v in side.vocabularies.items()}
    batch = StringBatch.against(lefts, side, records, measure)
    picked = [rights[record] for record in records]
    assert batch.right.values == list(dict.fromkeys(picked))
    assert [batch.right.values[i] for i in batch.right.inverse] == picked
    rows, picks = np.divmod(np.arange(len(lefts) * len(records)), len(records))
    values = schema_based_cells(
        batch,
        measure,
        batch.left.inverse[rows],
        batch.right.inverse[picks],
    )
    expected = schema_based_matrix(lefts, rights, measure)[
        rows, records[picks]
    ]
    assert values.view(np.uint64).tolist() == expected.view(
        np.uint64
    ).tolist()
    # Keys only the left values hold live with the batch.
    assert side.vocabularies == vocabularies
