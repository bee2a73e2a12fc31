"""Differential tests of the pairwise-kernel engine.

The kernel path (:func:`schema_based_cells` and everything built on
it, batched RWMD) must be **bit-identical** — ``np.array_equal``, not
approximately equal — to the frozen bodies of ``tests/oracles`` over
adversarial inputs and arbitrary cell lists, and invariant under the
block scheduler's thread count.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embeddings import FastTextLikeModel
from repro.embeddings.measures import word_mover_similarity_matrix
from repro.embeddings.wmd import token_stats
from repro.pipeline.batched_strings import (
    StringBatch,
    schema_based_cells,
    schema_based_matrix,
)
from repro.pipeline.kernels import (
    UniquePlan,
    get_kernel_threads,
    kernel_threads,
    row_blocks,
    run_blocks,
)
from repro.textsim.registry import SCHEMA_BASED_MEASURES
from tests.oracles.embeddings import word_mover_similarity_matrix_legacy
from tests.oracles.strings import (
    LegacyStringBatch,
    schema_based_matrix_legacy,
)

# Adversarial value lists: empty strings, unicode (combining marks,
# CJK, astral-plane emoji), single characters, heavily duplicated
# values, and all-identical columns.
ADVERSARIAL_CASES = [
    (["abc", "abd", "", "abc", "x"], ["abd", "abc", "zzz", "", "abd"]),
    (
        ["héllo wörld", "naïve café", "日本語 テスト", "a", "🙂 emoji test"],
        ["naive cafe", "héllo wörld", "日本語", "🙂 emoji test", "b"],
    ),
    (
        ["dup val"] * 6 + ["other thing"],
        ["dup val"] * 5 + ["another", "dup val"],
    ),
    (["same col"] * 4, ["same col"] * 3),
    (["a"], ["b", "ab", "ba", "a", ""]),
    ([""], [""]),
    (
        ["golden dragon restaurant", "gold dragon", "dragon inn cafe"],
        ["golden dragon restaurant llc", "dragon inn", "golden dragoon"],
    ),
]

strings = st.lists(
    st.text(alphabet="abcde _", min_size=0, max_size=12),
    min_size=1,
    max_size=6,
)

# Cell-list inputs add accented and astral-plane code points.
cell_strings = st.lists(
    st.text(alphabet="abc _é\U0001f642", min_size=0, max_size=10),
    min_size=1,
    max_size=6,
)


class TestUniquePlan:
    def test_first_occurrence_order(self):
        plan = UniquePlan.build(["b", "a", "b", "c", "a"], ["x", "x", "y"])
        assert plan.lefts == ("b", "a", "c")
        assert plan.rights == ("x", "y")
        assert list(plan.left_inverse) == [0, 1, 0, 2, 1]
        assert list(plan.left_index) == [0, 1, 3]
        assert list(plan.right_index) == [0, 2]

    def test_expand_roundtrip(self):
        lefts = ["a", "b", "a", "c"]
        rights = ["x", "y", "x"]
        plan = UniquePlan.build(lefts, rights)
        unique = np.arange(plan.unique_shape[0] * plan.unique_shape[1])
        unique = unique.reshape(plan.unique_shape).astype(float)
        full = plan.expand(unique)
        for i, left in enumerate(lefts):
            for j, right in enumerate(rights):
                u = plan.lefts.index(left)
                v = plan.rights.index(right)
                assert full[i, j] == unique[u, v]

    def test_dedup_ratio(self):
        plan = UniquePlan.build(["a"] * 10, ["b"] * 5)
        assert plan.unique_shape == (1, 1)
        assert plan.dedup_ratio == pytest.approx(1 / 50)

    def test_empty_sides(self):
        plan = UniquePlan.build([], ["x"])
        assert plan.shape == (0, 1)
        assert plan.expand(np.zeros(plan.unique_shape)).shape == (0, 1)


class TestBlockScheduler:
    def test_blocks_cover_rows_exactly_once(self):
        for n_rows, weight in ((1, 1), (7, 100), (1000, 5000), (3, 10**9)):
            blocks = row_blocks(n_rows, weight, threads=3)
            covered = [r for start, stop in blocks for r in range(start, stop)]
            assert covered == list(range(n_rows))

    def test_no_rows_no_blocks(self):
        assert row_blocks(0, 10) == []

    def test_run_blocks_deterministic_assembly(self):
        out = np.zeros(100)

        def kernel(start, stop):
            out[start:stop] = np.arange(start, stop)

        run_blocks(row_blocks(100, 10**6, threads=4), kernel, threads=4)
        assert np.array_equal(out, np.arange(100.0))

    def test_run_blocks_propagates_errors(self):
        def kernel(start, stop):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            run_blocks([(0, 1), (1, 2)], kernel, threads=2)

    def test_kernel_threads_scope(self):
        assert get_kernel_threads() == 1
        with kernel_threads(4):
            assert get_kernel_threads() == 4
            with kernel_threads(2):
                assert get_kernel_threads() == 2
            assert get_kernel_threads() == 4
        assert get_kernel_threads() == 1


class TestSchemaBasedDifferential:
    @pytest.mark.parametrize("measure", SCHEMA_BASED_MEASURES)
    @pytest.mark.parametrize(
        "case", range(len(ADVERSARIAL_CASES)), ids=lambda i: f"case{i}"
    )
    def test_bit_identical_to_legacy(self, measure, case):
        lefts, rights = ADVERSARIAL_CASES[case]
        new = schema_based_matrix(
            lefts, rights, measure, StringBatch(lefts, rights)
        )
        legacy = schema_based_matrix_legacy(
            lefts, rights, measure, LegacyStringBatch(lefts, rights)
        )
        assert np.array_equal(new, legacy), measure

    @pytest.mark.parametrize("measure", SCHEMA_BASED_MEASURES)
    @given(lefts=strings, rights=strings)
    @settings(max_examples=15, deadline=None)
    def test_bit_identical_on_random_inputs(self, measure, lefts, rights):
        new = schema_based_matrix(lefts, rights, measure)
        legacy = schema_based_matrix_legacy(lefts, rights, measure)
        assert np.array_equal(new, legacy)

    @pytest.mark.parametrize("measure", SCHEMA_BASED_MEASURES)
    def test_workers_invariance(self, measure):
        lefts, rights = ADVERSARIAL_CASES[1]
        serial = schema_based_matrix(lefts, rights, measure)
        with kernel_threads(3):
            threaded = schema_based_matrix(lefts, rights, measure)
        assert np.array_equal(serial, threaded), measure

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("measure", SCHEMA_BASED_MEASURES)
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_cell_lists_match_legacy(self, measure, threads, data):
        # Whole-row calls broadcast the right side, cell lists gather
        # it per cell; both must equal the legacy matrix at every cell,
        # whatever the order, duplication or mix of the cells.
        lefts, rights = data.draw(cell_strings), data.draw(cell_strings)
        batch = StringBatch(lefts, rights)
        plan = batch.plan
        n_rows, n_cols = plan.unique_shape
        legacy = schema_based_matrix_legacy(lefts, rights, measure)[
            np.ix_(plan.left_index, plan.right_index)
        ]
        row = st.integers(0, n_rows - 1)
        rows = data.draw(st.lists(row, max_size=6))
        cells = data.draw(
            st.lists(st.tuples(row, st.integers(0, n_cols - 1)), max_size=12)
        )
        if data.draw(st.booleans()):  # a whole row inside the cell list
            whole = data.draw(row)
            cells = data.draw(
                st.permutations(cells + [(whole, v) for v in range(n_cols)])
            )
        rows = np.asarray(rows, dtype=np.intp)
        cell_left = np.asarray([u for u, _ in cells], dtype=np.intp)
        cell_right = np.asarray([v for _, v in cells], dtype=np.intp)
        with kernel_threads(threads):
            by_rows = schema_based_cells(batch, measure, rows)
            by_cells = schema_based_cells(
                batch, measure, cell_left, cell_right
            )
        assert np.array_equal(by_rows, legacy[rows])
        assert np.array_equal(by_cells, legacy[cell_left, cell_right])

    def test_shared_batch_matches_fresh(self):
        lefts, rights = ADVERSARIAL_CASES[6]
        batch = StringBatch(lefts, rights)
        for measure in SCHEMA_BASED_MEASURES:
            fresh = schema_based_matrix(lefts, rights, measure)
            shared = schema_based_matrix(lefts, rights, measure, batch)
            assert np.array_equal(fresh, shared), measure


class TestRwmdDifferential:
    @pytest.fixture(scope="class")
    def embeddings(self):
        model = FastTextLikeModel(dim=24)
        texts_left = [
            "red fox", "", "blue whale swimming", "red fox", "###",
            "one", "several common tokens in a longer text here",
        ] * 2
        texts_right = [
            "red fox", "blue whale", "", "###",
            "quick brown fox", "one token",
        ] * 2
        left = [model.embed_tokens(t) for t in texts_left]
        right = [model.embed_tokens(t) for t in texts_right]
        return texts_left, texts_right, left, right

    def test_bit_identical_without_stats(self, embeddings):
        _, _, left, right = embeddings
        new = word_mover_similarity_matrix(left, right)
        legacy = word_mover_similarity_matrix_legacy(left, right)
        assert np.array_equal(new, legacy)

    def test_bit_identical_with_stats(self, embeddings):
        _, _, left, right = embeddings
        stats_left = [token_stats(m) for m in left]
        stats_right = [token_stats(m) for m in right]
        new = word_mover_similarity_matrix(
            left, right, stats_left=stats_left, stats_right=stats_right
        )
        legacy = word_mover_similarity_matrix_legacy(
            left, right, stats_left=stats_left, stats_right=stats_right
        )
        assert np.array_equal(new, legacy)

    def test_tokenless_conventions(self):
        empty = np.empty((0, 8))
        some = np.ones((2, 8))
        matrix = word_mover_similarity_matrix([empty, some], [empty, some])
        assert matrix[0, 0] == 1.0  # both token-less: zero cost
        assert matrix[0, 1] == 0.0  # exactly one side token-less
        assert matrix[1, 0] == 0.0
        assert matrix[1, 1] == 1.0  # identical texts

    def test_deduplicated_semantic_path(self, embeddings):
        from repro.pipeline.similarity_functions import (
            semantic_matrix_from_embeddings,
        )

        texts_left, texts_right, left, right = embeddings
        result = semantic_matrix_from_embeddings(
            texts_left, texts_right, "wmd", left, right
        )
        reference = word_mover_similarity_matrix_legacy(left, right)
        left_empty = np.array([not t for t in texts_left], dtype=bool)
        right_empty = np.array([not t for t in texts_right], dtype=bool)
        reference[left_empty, :] = 0.0
        reference[:, right_empty] = 0.0
        assert np.array_equal(result, reference)


class TestEngineThreadInvariance:
    def test_engine_threads_do_not_change_matrices(self):
        from repro.datasets.catalog import dataset_spec
        from repro.datasets.generator import generate_dataset
        from repro.pipeline import SimilarityEngine, enumerate_functions

        dataset = generate_dataset(
            dataset_spec("d1", scale=0.04, max_pairs=2_000), seed=11
        )
        specs = [
            spec
            for spec in enumerate_functions(
                dataset,
                families=("schema_based_syntactic",),
                max_attributes=1,
            )
        ]
        serial = SimilarityEngine(dataset, threads=1)
        threaded = SimilarityEngine(dataset, threads=3)
        for a, b in zip(serial.score(specs), threaded.score(specs)):
            for x, y in zip(a.edges, b.edges):
                assert np.array_equal(x, y)


class TestPairwiseMinSumThreading:
    """The CSC column sweep threaded through the block scheduler."""

    def _matrices(self, seed=11):
        from scipy import sparse

        rng = np.random.default_rng(seed)
        left = sparse.random(
            83, 47, density=0.18, random_state=rng, format="csr"
        )
        right = sparse.random(
            61, 47, density=0.22, random_state=rng, format="csr"
        )
        return left, right

    def _reference(self, left, right):
        """The pre-engine single-pass column sweep, verbatim."""
        result = np.zeros((left.shape[0], right.shape[0]))
        left_csc, right_csc = left.tocsc(), right.tocsc()
        for col in range(left.shape[1]):
            a_start, a_end = left_csc.indptr[col], left_csc.indptr[col + 1]
            if a_start == a_end:
                continue
            b_start, b_end = (
                right_csc.indptr[col], right_csc.indptr[col + 1],
            )
            if b_start == b_end:
                continue
            result[
                np.ix_(
                    left_csc.indices[a_start:a_end],
                    right_csc.indices[b_start:b_end],
                )
            ] += np.minimum.outer(
                left_csc.data[a_start:a_end],
                right_csc.data[b_start:b_end],
            )
        return result

    def test_matches_single_pass_reference(self):
        from repro.vectorspace.measures import pairwise_min_sum

        left, right = self._matrices()
        assert np.array_equal(
            pairwise_min_sum(left, right), self._reference(left, right)
        )

    @pytest.mark.parametrize("threads", [1, 2, 3, 7])
    def test_thread_invariance(self, threads):
        from repro.vectorspace.measures import pairwise_min_sum

        left, right = self._matrices()
        reference = self._reference(left, right)
        assert np.array_equal(
            pairwise_min_sum(left, right, threads=threads), reference
        )
        with kernel_threads(threads):
            assert np.array_equal(
                pairwise_min_sum(left, right), reference
            )

    def test_generalized_jaccard_thread_invariant(self):
        from repro.vectorspace import build_vector_models
        from repro.vectorspace.measures import generalized_jaccard_matrix

        texts_left = [f"alpha beta gamma {i % 7}" for i in range(40)]
        texts_right = [f"beta delta {i % 5} gamma" for i in range(30)]
        left, right = build_vector_models(
            texts_left, texts_right, n=1, unit="token", weighting="tf"
        )
        serial = generalized_jaccard_matrix(left, right)
        with kernel_threads(4):
            threaded = generalized_jaccard_matrix(left, right)
        assert np.array_equal(serial, threaded)
