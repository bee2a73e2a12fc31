"""The one first-occurrence encoder against the loops it replaced.

Five sites number keys through :mod:`repro.vectorspace.profiles`:
``UniquePlan``'s unique values, the Monge-Elkan token ids, the token
and q-gram count matrices, the flattened entity n-gram graphs and the
n-gram vector models.  Each must equal its frozen builder in
``tests/oracles/profiles.py`` array for array: values, ``indices``,
``indptr``, dtypes and vocabulary order.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ngramgraph import (
    build_entity_graphs,
    entity_graph_matrices,
    graphs_to_sparse,
)
from repro.pipeline.batched_strings import StringBatch
from repro.pipeline.kernels import (
    UniquePlan,
    encode_strings,
    smith_waterman_grid,
)
from repro.textsim.tokenize import padded_trigrams
from repro.vectorspace import build_profile_space, build_vector_models
from repro.vectorspace.profiles import (
    count_matrices,
    encode_keys,
    first_positions,
    presence,
)
from tests.oracles import profiles as frozen

#: Values over a tiny alphabet, so keys repeat within and across sides;
#: empty strings and whitespace-only values give empty profiles.
values = st.text(alphabet="ab c", min_size=0, max_size=9)

#: One collection; it may be empty.
sides = st.lists(values, min_size=0, max_size=6)

#: Right values over letters the left alphabet lacks as well, so some
#: keys are seen only on the right.
right_sides = st.lists(
    st.text(alphabet="ab cd", min_size=0, max_size=9), min_size=0, max_size=6
)

MODELS = [("char", 2), ("char", 3), ("token", 1), ("token", 2)]


def assert_same_array(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def assert_same_csr(actual, expected) -> None:
    assert actual.shape == expected.shape
    for name in ("data", "indices", "indptr"):
        assert_same_array(getattr(actual, name), getattr(expected, name))


class TestEncoder:
    def test_ids_follow_first_occurrence(self):
        vocabulary: dict[str, int] = {}
        ids = encode_keys(["b", "a", "b", "c"], vocabulary)
        assert ids.dtype == np.intp
        assert ids.tolist() == [0, 1, 0, 2]
        assert list(vocabulary) == ["b", "a", "c"]

    def test_shared_vocabulary_extends_across_calls(self):
        vocabulary = {"b": 0}
        assert encode_keys(["a", "b"], vocabulary).tolist() == [1, 0]
        assert encode_keys(["c", "a"], vocabulary).tolist() == [2, 1]
        assert vocabulary == {"b": 0, "a": 1, "c": 2}

    def test_empty_keys(self):
        ids = encode_keys([], {})
        assert ids.dtype == np.intp and ids.shape == (0,)
        assert_same_array(first_positions(ids), np.zeros(0, dtype=np.intp))

    def test_first_positions(self):
        ids = encode_keys(list("abacbd"), {})
        assert first_positions(ids).tolist() == [0, 1, 3, 5]

    def test_count_matrices_align_columns(self):
        vocabulary: dict[str, int] = {}
        left, right = count_matrices(
            [Counter("aab"), Counter()], [Counter("ca")], vocabulary
        )
        assert list(vocabulary) == ["a", "b", "c"]
        assert left.toarray().tolist() == [[2, 1, 0], [0, 0, 0]]
        assert right.toarray().tolist() == [[1, 0, 1]]

    def test_count_matrices_extend_a_vocabulary(self):
        vocabulary = {"z": 0}
        left, right = count_matrices([Counter("a")], [{"z": 2.5}], vocabulary)
        assert vocabulary == {"z": 0, "a": 1}
        assert left.toarray().tolist() == [[0.0, 1.0]]
        assert right.toarray().tolist() == [[2.5, 0.0]]

    def test_presence_keeps_structure(self):
        left, _ = count_matrices([Counter("aab")], [], {})
        binary = presence(left)
        assert binary.toarray().tolist() == [[1.0, 1.0]]
        assert left.data.tolist() == [2.0, 1.0]


@settings(max_examples=150, deadline=None)
@given(lefts=sides, rights=right_sides)
def test_unique_plan_matches_frozen(lefts, rights):
    plan = UniquePlan.build(lefts, rights)
    for unique, inverse, index, side in (
        (plan.lefts, plan.left_inverse, plan.left_index, lefts),
        (plan.rights, plan.right_inverse, plan.right_index, rights),
    ):
        expected = frozen._first_occurrence(side)
        assert unique == tuple(expected[0])
        assert_same_array(inverse, expected[1])
        assert_same_array(index, expected[2])


@settings(max_examples=150, deadline=None)
@given(lefts=sides, rights=right_sides)
def test_string_batch_profiles_match_frozen(lefts, rights):
    batch = StringBatch(lefts, rights)
    lists_left = batch.left.artifact("token_lists")
    lists_right = batch.right.artifact("token_lists")
    tokens = frozen._profiles_to_sparse(
        [Counter(words) for words in lists_left],
        [Counter(words) for words in lists_right],
    )
    qgrams = frozen._profiles_to_sparse(
        [padded_trigrams(s) if s else Counter() for s in batch.plan.lefts],
        [padded_trigrams(s) if s else Counter() for s in batch.plan.rights],
    )
    for actual, expected in (
        (batch.unique_token_sparse, tokens),
        (batch.unique_token_binary, frozen._binarize(*tokens)),
        (batch.unique_qgram_sparse, qgrams),
    ):
        assert_same_csr(actual[0], expected[0])
        assert_same_csr(actual[1], expected[1])


@settings(max_examples=100, deadline=None)
@given(lefts=sides, rights=right_sides)
def test_monge_elkan_ids_match_frozen(lefts, rights):
    batch = StringBatch(lefts, rights)
    ids_left, ids_right, grid = batch.monge_elkan_grid
    lists_left = batch.left.artifact("token_lists")
    lists_right = batch.right.artifact("token_lists")
    vocab_left, expected_left = frozen._token_vocabulary(lists_left)
    vocab_right, expected_right = frozen._token_vocabulary(lists_right)
    assert len(ids_left) == len(expected_left)
    assert len(ids_right) == len(expected_right)
    for actual, expected in zip(
        ids_left + ids_right, expected_left + expected_right
    ):
        assert_same_array(actual, expected)
    # The grid's axes are the two vocabularies, in their order.
    assert_same_array(
        grid,
        smith_waterman_grid(
            *encode_strings(vocab_left), *encode_strings(vocab_right)
        ),
    )


@settings(max_examples=100, deadline=None)
@given(lefts=sides, rights=right_sides, model=st.sampled_from(MODELS))
def test_entity_graphs_match_frozen(lefts, rights, model):
    unit, n = model
    # Two values per right entity exercise the merged (averaged) weights.
    lists_left = [[value] for value in lefts]
    lists_right = [[value, value[::-1]] for value in rights]
    graphs_left = build_entity_graphs(lists_left, n, unit)
    graphs_right = build_entity_graphs(lists_right, n, unit)
    expected = frozen.graphs_to_sparse(graphs_left, graphs_right)
    for actual in (
        graphs_to_sparse(graphs_left, graphs_right),
        entity_graph_matrices(lists_left, lists_right, n, unit),
    ):
        assert_same_csr(actual[0], expected[0])
        assert_same_csr(actual[1], expected[1])


@settings(max_examples=100, deadline=None)
@given(
    lefts=sides,
    rights=right_sides,
    model=st.sampled_from(MODELS),
    weighting=st.sampled_from(["tf", "tfidf"]),
)
# Repeated grams give counts above 1 over totals such as 5 and 7, where
# a reciprocal-then-multiply TF would round differently from ``3 / 5``.
@example(["ababab", "a ab c"], ["ab ab ab", ""], ("char", 2), "tf")
@example(["ababab", "a ab c"], ["ab ab ab", ""], ("token", 1), "tfidf")
def test_vector_models_match_frozen(lefts, rights, model, weighting):
    unit, n = model
    space = build_profile_space(lefts, rights, n, unit)
    expected = frozen.build_vector_models(lefts, rights, n, unit, weighting)
    for actual in (
        build_vector_models(lefts, rights, n, unit, weighting),
        build_vector_models(lefts, rights, n, unit, weighting, space=space),
    ):
        for side, reference in zip(actual, expected):
            assert_same_csr(side.matrix, reference.matrix)
            assert_same_csr(side.binary, reference.binary)
            assert_same_array(
                side.document_frequency, reference.document_frequency
            )
            assert side.vocabulary == reference.vocabulary
            assert list(side.vocabulary) == list(reference.vocabulary)
        assert actual[0].vocabulary is actual[1].vocabulary


@pytest.mark.parametrize("weighting", ["tf", "tfidf"])
def test_vector_models_with_an_empty_side(weighting):
    for lefts, rights in (([], ["red fox", ""]), (["red fox", ""], [])):
        actual = build_vector_models(lefts, rights, 2, "char", weighting)
        expected = frozen.build_vector_models(
            lefts, rights, 2, "char", weighting
        )
        for side, reference in zip(actual, expected):
            assert_same_csr(side.matrix, reference.matrix)
            assert_same_csr(side.binary, reference.binary)
            assert_same_array(
                side.document_frequency, reference.document_frequency
            )
