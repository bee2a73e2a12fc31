"""Tests for the compiled graph layer (repro.graph.compiled/selection)."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.graph import (
    CompiledGraph,
    SimilarityGraph,
    figure1_graph,
    prefix_length,
    selection_mask,
)
from repro.graph.io import load_graph, save_graph


def random_graph(seed=0, n_left=14, n_right=11, m=80, decimals=2):
    """Random graph with heavy weight ties and duplicate parallel edges."""
    rng = np.random.default_rng(seed)
    weight = np.maximum(np.round(rng.random(m), decimals), 10.0 ** -decimals)
    return SimilarityGraph(
        n_left,
        n_right,
        rng.integers(0, n_left, m),
        rng.integers(0, n_right, m),
        weight,
    )


def reference_adjacency(graph, side):
    """The pre-compiled adjacency construction, kept as the oracle."""
    if side == "left":
        n, keys, neighbours = graph.n_left, graph.left, graph.right
    else:
        n, keys, neighbours = graph.n_right, graph.right, graph.left
    adjacency = [[] for _ in range(n)]
    order = np.lexsort((neighbours, -graph.weight))
    for idx in order:
        adjacency[keys[idx]].append(
            (int(neighbours[idx]), float(graph.weight[idx]))
        )
    return adjacency


class TestSelectionHelpers:
    @pytest.mark.parametrize("inclusive", [False, True])
    @pytest.mark.parametrize("threshold", [0.0, 0.35, 0.5, 1.0])
    def test_prefix_length_equals_mask_count(self, threshold, inclusive):
        graph = random_graph(seed=3)
        mask = selection_mask(graph.weight, threshold, inclusive)
        ascending = np.sort(graph.weight)
        assert prefix_length(ascending, threshold, inclusive) == int(
            mask.sum()
        )

    def test_prune_matches_mask_semantics(self):
        graph = figure1_graph()
        strict = graph.prune(0.5)
        inclusive = graph.prune(0.5, inclusive=True)
        assert strict.n_edges == int((graph.weight > 0.5).sum())
        assert inclusive.n_edges == int((graph.weight >= 0.5).sum())


class TestCompiledGraph:
    def test_compile_is_cached_on_graph(self):
        graph = random_graph()
        assert graph.compiled() is graph.compiled()
        graph.release_compiled()
        assert isinstance(graph.compiled(), CompiledGraph)

    def test_descending_permutation_with_umc_tie_order(self):
        graph = random_graph(seed=7)
        compiled = graph.compiled()
        order = np.lexsort((graph.right, graph.left, -graph.weight))
        assert np.array_equal(compiled.order, order)
        assert np.array_equal(compiled.weight_sorted, graph.weight[order])
        ascending = np.sort(graph.weight)
        assert np.array_equal(compiled.weight_ascending, ascending)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_adjacency_matches_reference(self, side):
        graph = random_graph(seed=11)
        lists = getattr(graph, f"{side}_adjacency")()
        assert lists == reference_adjacency(graph, side)

    def test_merged_adjacency_offsets_right_side(self):
        graph = random_graph(seed=5, n_left=6, n_right=4, m=20)
        merged = graph.compiled().merged_adjacency()
        left_ref = reference_adjacency(graph, "left")
        right_ref = reference_adjacency(graph, "right")
        assert merged[: graph.n_left] == [
            [(graph.n_left + j, w) for j, w in lst] for lst in left_ref
        ]
        assert merged[graph.n_left :] == right_ref

    def test_empty_graph_compiles(self):
        graph = SimilarityGraph.from_edges(4, 3, [])
        compiled = graph.compiled()
        assert compiled.select(0.5).count == 0
        assert compiled.left_adjacency() == [[]] * 4
        assert compiled.merged_adjacency() == [[]] * 7

    def test_average_node_weights_cached_and_equal(self):
        graph = random_graph(seed=13)
        compiled = graph.compiled()
        left_ref, right_ref = graph.average_node_weights()
        left, right = compiled.average_node_weights()
        assert np.array_equal(left, left_ref)
        assert np.array_equal(right, right_ref)
        assert compiled.average_node_weights()[0] is left


class TestEdgeSelection:
    @pytest.mark.parametrize("inclusive", [False, True])
    def test_selection_equals_prune(self, inclusive):
        graph = random_graph(seed=17)
        compiled = graph.compiled()
        for threshold in (0.0, 0.25, 0.5, 0.77, 1.0):
            selection = compiled.select(threshold, inclusive)
            pruned = graph.prune(threshold, inclusive=inclusive)
            assert selection.count == pruned.n_edges
            assert sorted(
                zip(
                    selection.left.tolist(),
                    selection.right.tolist(),
                    selection.weight.tolist(),
                )
            ) == sorted(zip(
                pruned.left.tolist(),
                pruned.right.tolist(),
                pruned.weight.tolist(),
            ))

    def test_selection_is_cached_per_threshold(self):
        compiled = random_graph().compiled()
        assert compiled.select(0.4) is compiled.select(0.4)
        assert compiled.select(0.4) is not compiled.select(0.4, True)

    def test_counts_match_thresholded_adjacency(self):
        graph = random_graph(seed=19)
        compiled = graph.compiled()
        lists = compiled.left_adjacency()
        for threshold in (0.1, 0.5, 0.9):
            counts = compiled.select(threshold).left_counts()
            expected = [
                len([w for _, w in lst if w > threshold]) for lst in lists
            ]
            assert counts == expected
            # The selected entries are each list's prefix.
            for lst, count in zip(lists, counts):
                assert all(w > threshold for _, w in lst[:count])
                assert all(w <= threshold for _, w in lst[count:])

    def test_to_graph_bit_identical_to_prune(self):
        graph = random_graph(seed=23)
        graph.name = "dup-heavy"
        graph.metadata = {"dataset": "d1", "function": "jaccard"}
        selection = graph.compiled().select(0.5)
        pruned = graph.prune(0.5)
        regenerated = selection.to_graph()
        assert np.array_equal(regenerated.left, pruned.left)
        assert np.array_equal(regenerated.right, pruned.right)
        assert np.array_equal(regenerated.weight, pruned.weight)
        assert regenerated.name == "dup-heavy"
        assert regenerated.metadata == graph.metadata


class TestMetadataPreservation:
    """`name` and `metadata` must survive io round-trips and views."""

    def make(self):
        graph = random_graph(seed=29)
        graph.name = "d3:cosine_tokens"
        graph.metadata = {
            "dataset": "d3",
            "family": "schema-based",
            "function": "cosine_tokens",
        }
        return graph

    def test_io_roundtrip_preserves_provenance(self, tmp_path):
        graph = self.make()
        path = tmp_path / "graph.npz"
        save_graph(graph, path)
        loaded = load_graph(path)
        assert loaded.name == graph.name
        assert loaded.metadata == graph.metadata

    def test_io_roundtrip_after_prune_and_compile(self, tmp_path):
        graph = self.make()
        graph.compiled()  # the cache must not leak into the file
        pruned = graph.prune(0.3)
        path = tmp_path / "pruned.npz"
        save_graph(pruned, path)
        loaded = load_graph(path)
        assert loaded.name == graph.name
        assert loaded.metadata == graph.metadata

    def test_views_preserve_provenance(self):
        graph = self.make()
        compiled = graph.compiled()
        assert compiled.name == graph.name
        assert compiled.metadata is graph.metadata
        assert graph.prune(0.5).metadata == graph.metadata
        assert graph.swap_sides().metadata == graph.metadata
        assert compiled.select(0.5).to_graph().metadata == graph.metadata

    def test_pickle_drops_compiled_cache(self):
        graph = self.make()
        graph.compiled()
        clone = pickle.loads(pickle.dumps(graph))
        assert clone._compiled is None
        assert clone.name == graph.name
        assert clone.metadata == graph.metadata
        assert np.array_equal(clone.weight, graph.weight)
