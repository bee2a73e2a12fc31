"""GroundTruthIndex scores through a frozen truth set.

``score`` and ``true_positives`` must equal :func:`evaluate_pairs` on
every input form a caller may pass: numpy-integer tuples (a kernel's
``zip`` over arrays), repeated pairs, and a one-shot generator.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation import GroundTruthIndex, evaluate_pairs

int_pairs = st.tuples(st.integers(0, 6), st.integers(0, 6))


@given(
    output=st.lists(int_pairs, max_size=15),
    truth=st.sets(int_pairs, max_size=15),
)
@settings(max_examples=100)
def test_every_input_form_scores_like_evaluate_pairs(output, truth):
    index = GroundTruthIndex(truth)
    expected = evaluate_pairs(output, truth)
    repeated = output + output[::2]
    numpy_pairs = [(np.int64(i), np.int32(j)) for i, j in repeated]
    for form in (repeated, numpy_pairs):
        assert index.score(form) == evaluate_pairs(form, truth) == expected
        assert index.true_positives(form) == expected.true_positives
    assert index.score(pair for pair in numpy_pairs) == expected
    generated = index.true_positives(pair for pair in output)
    assert generated == expected.true_positives


def test_numpy_pairs_from_a_kernel_zip():
    left = np.array([0, 1, 2, 1], dtype=np.int64)
    right = np.array([0, 1, 5, 1], dtype=np.int64)
    truth = {(0, 0), (1, 1), (3, 3)}
    index = GroundTruthIndex(truth)
    scores = index.score(zip(left, right))
    assert scores == evaluate_pairs(zip(left, right), truth)
    assert (scores.true_positives, scores.output_pairs) == (2, 3)
