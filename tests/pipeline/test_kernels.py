"""Differential tests of the pairwise-kernel engine.

The kernel path (:func:`schema_based_cells` and everything built on
it, batched RWMD) must be **bit-identical** — ``np.array_equal``, not
approximately equal — to the frozen bodies of ``tests/oracles`` over
adversarial inputs and arbitrary cell lists.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embeddings import ContextualModel, FastTextLikeModel
from repro.embeddings.measures import word_mover_similarity_matrix
from repro.embeddings.wmd import token_stats
from repro.pipeline.batched_strings import (
    SCHEMA_BASED_MEASURES,
    StringBatch,
    schema_based_cells,
    schema_based_matrix,
)
from repro.pipeline import kernels
from repro.pipeline.kernels import UniquePlan, row_blocks
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
            blocks = row_blocks(n_rows, weight)
            covered = [r for start, stop in blocks for r in range(start, stop)]
            assert covered == list(range(n_rows))

    def test_no_rows_no_blocks(self):
        assert row_blocks(0, 10) == []

    @pytest.mark.parametrize(
        "n_rows, weight",
        [
            (1, 1),
            (7, 100),
            (1000, 5000),
            (3, 10**9),
            (2**20, 1),
            (1025, 512),
            (10**6, 3),
        ],
    )
    def test_blocks_are_maximal_within_target(self, n_rows, weight):
        # The tiling bounds the live DP slabs: a block costs at most the
        # target unless it is a single row, and every block but the last
        # would exceed the target with one more row.
        target = kernels._TARGET_BLOCK_CELLS
        blocks = row_blocks(n_rows, weight)
        assert blocks[0][0] == 0 and blocks[-1][1] == n_rows
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        sizes = [stop - start for start, stop in blocks]
        assert all(size == 1 or size * weight <= target for size in sizes)
        assert all((size + 1) * weight > target for size in sizes[:-1])


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
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_cell_lists_match_legacy(self, measure, data):
        # Whole-row calls broadcast the right side, cell lists gather
        # it per cell; both must equal the legacy matrix at every cell,
        # whatever the order, duplication or mix of the cells, and
        # whether the call runs as one row block or as one block per
        # row (these inputs are far below the default block size).
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
        target = data.draw(st.sampled_from([kernels._TARGET_BLOCK_CELLS, 1]))
        with mock.patch.object(kernels, "_TARGET_BLOCK_CELLS", target):
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


#: The measures whose kernels tile their rows with :func:`row_blocks`:
#: the integer DPs and Jaro on encoded strings, and Monge-Elkan through
#: its Smith-Waterman grid.
ROW_BLOCKED_MEASURES = (
    "levenshtein",
    "damerau_levenshtein",
    "jaro",
    "needleman_wunsch",
    "lcs_substring",
    "lcs_subsequence",
    "monge_elkan",
)


class TestRowTiling:
    """One row per block must score every cell as the default tiling
    does, bit for bit."""

    @staticmethod
    def _one_row_blocks(monkeypatch) -> list:
        """Force one row per block and record every tiling made."""
        tilings = []

        def recording(n_rows, row_weight):
            tiling = row_blocks(n_rows, row_weight)
            tilings.append(tiling)
            return tiling

        monkeypatch.setattr(kernels, "_TARGET_BLOCK_CELLS", 1)
        monkeypatch.setattr(kernels, "row_blocks", recording)
        return tilings

    @pytest.mark.parametrize("measure", ROW_BLOCKED_MEASURES)
    def test_one_row_per_block_equals_legacy(self, measure, monkeypatch):
        tilings = self._one_row_blocks(monkeypatch)
        for lefts, rights in ADVERSARIAL_CASES:
            batch = StringBatch(lefts, rights)
            legacy = schema_based_matrix_legacy(lefts, rights, measure)
            assert np.array_equal(
                schema_based_matrix(lefts, rights, measure, batch), legacy
            )
            # The whole unique grid as one cell list, last cell first.
            n_rows, n_cols = batch.plan.unique_shape
            cell_left, cell_right = np.divmod(
                np.arange(n_rows * n_cols)[::-1], max(n_cols, 1)
            )
            unique = legacy[
                np.ix_(batch.plan.left_index, batch.plan.right_index)
            ]
            assert np.array_equal(
                schema_based_cells(batch, measure, cell_left, cell_right),
                unique[cell_left, cell_right],
            )
        assert all(
            stop - start == 1 for tiling in tilings for start, stop in tiling
        )
        assert max(len(tiling) for tiling in tilings) > 1

    def test_engine_edges_unchanged_by_one_row_blocks(self, monkeypatch):
        from repro.datasets.catalog import dataset_spec
        from repro.datasets.generator import generate_dataset
        from repro.pipeline import SimilarityEngine, enumerate_functions

        dataset = generate_dataset(
            dataset_spec("d1", scale=0.04, max_pairs=2_000), seed=11
        )
        specs = list(
            enumerate_functions(
                dataset,
                families=("schema_based_syntactic",),
                max_attributes=1,
            )
        )
        default = SimilarityEngine(dataset).score(specs)
        tilings = self._one_row_blocks(monkeypatch)
        tiled = SimilarityEngine(dataset).score(specs)
        assert max(len(tiling) for tiling in tilings) > 1
        assert len(default) == len(tiled) == len(specs)
        for a, b in zip(default, tiled):
            for x, y in zip(a.edges, b.edges):
                assert np.array_equal(x, y)


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


class TestRwmdTiling:
    """Real model embeddings (dims 64 and 96, up to 40 tokens a text)
    through every tiling of ``word_mover_similarity_matrix``."""

    COUNTS_LEFT = [1, 2, 3, 8, 17, 40]
    COUNTS_RIGHT = [1, 5, 12, 33, 40]

    @staticmethod
    def _texts(rng, counts):
        # Three texts per token count (each bucket can tile), plus a
        # token-less one; words repeat across and within texts.
        vocabulary = [f"w{i}" for i in range(60)]
        texts = [
            " ".join(rng.choice(vocabulary, size=count))
            for count in counts
            for _ in range(3)
        ]
        return texts + [""]

    @pytest.mark.parametrize(
        "model",
        [FastTextLikeModel(dim=64), ContextualModel(dim=96)],
        ids=["dim64", "dim96"],
    )
    @pytest.mark.parametrize("cells", [None, 4_096, 2])
    def test_tiled_buckets_equal_legacy(self, model, cells, monkeypatch):
        import repro.embeddings.measures as measures

        rng = np.random.default_rng(model.dim)
        left = model.embed_collection(self._texts(rng, self.COUNTS_LEFT))
        right = model.embed_collection(self._texts(rng, self.COUNTS_RIGHT))
        assert max(len(m) for m in left + right) == 40
        blocks = []
        block = measures._rwmd_block

        def recording(stack_a, sq_a, weights_a, stack_bt, sq_b, weights_b):
            blocks.append((len(stack_a), len(stack_bt)))
            return block(stack_a, sq_a, weights_a, stack_bt, sq_b, weights_b)

        monkeypatch.setattr(measures, "_rwmd_block", recording)
        if cells is not None:
            monkeypatch.setattr(measures, "_RWMD_BLOCK_CELLS", cells)
        stats_left = [token_stats(m) for m in left]
        stats_right = [token_stats(m) for m in right]
        new = word_mover_similarity_matrix(
            left, right, stats_left=stats_left, stats_right=stats_right
        )
        legacy = word_mover_similarity_matrix_legacy(
            left, right, stats_left=stats_left, stats_right=stats_right
        )
        assert np.array_equal(new, legacy)
        pairs = len(self.COUNTS_LEFT) * len(self.COUNTS_RIGHT)
        if cells == 2:
            # Every bucket pair splits along both axes of 3 texts.
            assert all(rows < 3 and cols < 3 for rows, cols in blocks)
        else:
            assert len(blocks) >= pairs


class TestPairwiseMinSum:
    """The CSC column sweep behind Generalized Jaccard."""

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

    @staticmethod
    def _counts(label):
        """Integer count matrices of one edge shape, as CSR."""
        from scipy import sparse

        rng = np.random.default_rng(5)
        left = rng.integers(0, 4, size=(7, 9)).astype(float)
        right = rng.integers(0, 4, size=(5, 9)).astype(float)
        if label == "no_left_rows":
            left = left[:0]
        elif label == "no_right_rows":
            right = right[:0]
        elif label == "disjoint_columns":
            left[:, 4:] = 0.0
            right[:, :4] = 0.0
        elif label == "one_column":
            left, right = left[:, :1], right[:, :1]
        elif label == "empty_rows":
            left[::2] = 0.0
            right[1] = 0.0
        left, right = sparse.csr_matrix(left), sparse.csr_matrix(right)
        if label == "stored_zeros":
            left.data[::2] = 0.0
            right.data[1::3] = 0.0
        return left, right

    @pytest.mark.parametrize(
        "label",
        [
            "no_left_rows",
            "no_right_rows",
            "disjoint_columns",
            "one_column",
            "empty_rows",
            "stored_zeros",
        ],
    )
    def test_edge_shapes_equal_dense_minimum(self, label):
        # Integer counts sum exactly in any order, so the dense
        # all-pairs minimum is an exact oracle here.
        from repro.vectorspace.measures import pairwise_min_sum

        left, right = self._counts(label)
        dense_left, dense_right = left.toarray(), right.toarray()
        expected = np.minimum(
            dense_left[:, None, :], dense_right[None, :, :]
        ).sum(axis=2)
        result = pairwise_min_sum(left, right)
        assert result.shape == (left.shape[0], right.shape[0])
        assert np.array_equal(result, expected)
        assert np.array_equal(result, self._reference(left, right))
        if label == "disjoint_columns":
            assert not result.any()
