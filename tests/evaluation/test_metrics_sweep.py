"""Tests for effectiveness metrics and the threshold sweep."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation import (
    DEFAULT_THRESHOLD_GRID,
    GroundTruthIndex,
    evaluate_pairs,
    optimal_threshold,
    threshold_sweep,
)
from repro.evaluation.sweep import SweepResult, threshold_sweep_best_of
from repro.graph import SimilarityGraph
from repro.matching import BestMatchClustering, UniqueMappingClustering


class TestEvaluatePairs:
    def test_perfect(self):
        truth = {(0, 0), (1, 1)}
        scores = evaluate_pairs([(0, 0), (1, 1)], truth)
        assert scores.precision == 1.0
        assert scores.recall == 1.0
        assert scores.f_measure == 1.0
        assert scores.true_positives == 2

    def test_partial(self):
        truth = {(0, 0), (1, 1), (2, 2), (3, 3)}
        scores = evaluate_pairs([(0, 0), (5, 5)], truth)
        assert scores.precision == 0.5
        assert scores.recall == 0.25
        assert scores.f_measure == pytest.approx(2 * 0.5 * 0.25 / 0.75)

    def test_empty_output(self):
        scores = evaluate_pairs([], {(0, 0)})
        assert scores.precision == 0.0
        assert scores.recall == 0.0
        assert scores.f_measure == 0.0

    def test_empty_ground_truth(self):
        scores = evaluate_pairs([(0, 0)], set())
        assert scores.recall == 0.0
        assert scores.f_measure == 0.0

    def test_duplicate_pairs_counted_once(self):
        truth = {(0, 0)}
        scores = evaluate_pairs([(0, 0), (0, 0)], truth)
        assert scores.output_pairs == 1
        assert scores.precision == 1.0

    @given(
        st.sets(
            st.tuples(
                st.integers(0, 5), st.integers(0, 5)
            ),
            max_size=10,
        ),
        st.sets(
            st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1,
            max_size=10,
        ),
    )
    @settings(max_examples=50)
    def test_measures_in_range(self, output, truth):
        scores = evaluate_pairs(output, truth)
        assert 0.0 <= scores.precision <= 1.0
        assert 0.0 <= scores.recall <= 1.0
        assert 0.0 <= scores.f_measure <= 1.0
        assert min(scores.precision, scores.recall) <= scores.f_measure

    def test_f1_between_p_and_r(self):
        truth = {(0, 0), (1, 1), (2, 2)}
        scores = evaluate_pairs([(0, 0), (9, 9)], truth)
        low, high = sorted([scores.precision, scores.recall])
        assert low <= scores.f_measure <= high


class TestGroundTruthIndex:
    """The vectorized index must agree with evaluate_pairs exactly."""

    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=15
        ),
        st.sets(
            st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=15
        ),
    )
    @settings(max_examples=100)
    def test_score_equals_evaluate_pairs(self, output, truth):
        index = GroundTruthIndex(truth)
        assert index.score(output) == evaluate_pairs(output, truth)

    def test_true_positive_count(self):
        index = GroundTruthIndex({(0, 0), (1, 1), (2, 2)})
        assert index.true_positives([(0, 0), (1, 1), (5, 5)]) == 2
        assert index.true_positives([]) == 0
        assert index.true_positives([(0, 0), (0, 0)]) == 1

    def test_empty_truth(self):
        index = GroundTruthIndex(set())
        assert index.n_truth == 0
        assert index.score([(0, 0)]) == evaluate_pairs([(0, 0)], set())

    def test_index_reusable_across_evaluations(self):
        truth = {(i, i) for i in range(8)}
        index = GroundTruthIndex(truth)
        for output in ([(0, 0)], [(1, 1), (2, 3)], [], [(7, 7), (9, 0)]):
            assert index.score(output) == evaluate_pairs(output, truth)

    def test_large_indices_do_not_collide(self):
        truth = {(2**30, 1), (1, 2**30)}
        index = GroundTruthIndex(truth)
        scores = index.score([(2**30, 1), (1, 2**30), (2**30, 2)])
        assert scores.true_positives == 2


class TestSweep:
    def _graph_and_truth(self):
        graph = SimilarityGraph.from_edges(
            3,
            3,
            [
                (0, 0, 0.9),
                (1, 1, 0.6),
                (2, 2, 0.4),
                (0, 1, 0.3),  # noise edge
                (1, 0, 0.35),  # noise edge
            ],
        )
        truth = {(0, 0), (1, 1), (2, 2)}
        return graph, truth

    def test_grid_matches_paper(self):
        assert DEFAULT_THRESHOLD_GRID[0] == 0.05
        assert DEFAULT_THRESHOLD_GRID[-1] == 1.0
        assert len(DEFAULT_THRESHOLD_GRID) == 20

    def test_sweep_covers_grid(self):
        graph, truth = self._graph_and_truth()
        sweep = threshold_sweep(UniqueMappingClustering(), graph, truth)
        assert [p.threshold for p in sweep.points] == list(
            DEFAULT_THRESHOLD_GRID
        )

    def test_optimal_is_largest_on_ties(self):
        graph, truth = self._graph_and_truth()
        sweep = threshold_sweep(UniqueMappingClustering(), graph, truth)
        # All thresholds in [0.05, 0.35] give perfect F1 (the noise
        # edges are dominated); the optimum must be the largest of them.
        best = sweep.best
        assert best.scores.f_measure == 1.0
        assert best.threshold == pytest.approx(0.35)

    def test_optimal_threshold_shorthand(self):
        graph, truth = self._graph_and_truth()
        assert optimal_threshold(
            UniqueMappingClustering(), graph, truth
        ) == pytest.approx(0.35)

    def test_runtime_recorded(self):
        graph, truth = self._graph_and_truth()
        sweep = threshold_sweep(UniqueMappingClustering(), graph, truth)
        assert sweep.mean_seconds >= 0.0
        assert sweep.best_seconds >= 0.0

    def test_empty_sweep_raises(self):
        with pytest.raises(ValueError):
            SweepResult(algorithm="UMC").best

    def test_best_of_picks_better_basis(self):
        graph, truth = self._graph_and_truth()
        best = threshold_sweep_best_of(
            [BestMatchClustering("left"), BestMatchClustering("right")],
            graph,
            truth,
        )
        single = threshold_sweep(BestMatchClustering("left"), graph, truth)
        assert best.best_scores.f_measure >= single.best_scores.f_measure

    def test_best_of_requires_matchers(self):
        graph, truth = self._graph_and_truth()
        with pytest.raises(ValueError):
            threshold_sweep_best_of([], graph, truth)


_GRID = DEFAULT_THRESHOLD_GRID

#: Edge weights laid out against the grid: on grid points (the closed
#: interval ends), strictly between them, none at all, only the last
#: point, and a narrow band inside one step.
_WEIGHT_LAYOUTS = {
    "on_grid_points": [_GRID[5], _GRID[5], _GRID[15], _GRID[5]],
    "between_grid_points": [0.12, 0.47, 0.93, 0.47],
    "no_edges": [],
    "only_at_one": [1.0, 1.0],
    "narrow_band": [0.51, 0.53, 0.56, 0.58, 0.52],
}


class TestSweepReuse:
    """A grid point whose step ``[previous, current]`` holds no edge
    weight reuses the previous result; every other point runs the
    matcher once, after one untimed warm call at the first point."""

    @pytest.mark.parametrize("layout", list(_WEIGHT_LAYOUTS))
    def test_matcher_runs_once_per_distinct_point(self, layout, monkeypatch):
        weights = _WEIGHT_LAYOUTS[layout]
        graph = SimilarityGraph.from_edges(
            5, 5, [(i, (i + 1) % 5, w) for i, w in enumerate(weights)]
        )
        truth = {(0, 1), (1, 2), (2, 3)}
        matcher = UniqueMappingClustering()
        calls = []
        run = matcher.match_compiled

        def counting(compiled, threshold):
            calls.append(threshold)
            return run(compiled, threshold)

        monkeypatch.setattr(matcher, "match_compiled", counting)
        sweep = threshold_sweep(matcher, graph, truth)
        distinct = [
            current
            for index, current in enumerate(_GRID)
            if index == 0
            or any(_GRID[index - 1] <= w <= current for w in weights)
        ]
        assert calls == [_GRID[0], *distinct]
        for previous, point in zip(sweep.points, sweep.points[1:]):
            if point.threshold not in distinct:
                assert point.scores == previous.scores
                assert point.seconds == previous.seconds
        for point in sweep.points:
            matching = UniqueMappingClustering().match(graph, point.threshold)
            assert point.scores == evaluate_pairs(matching.pairs, truth)

    def test_dirty_sweep_runs_once_per_distinct_point(self, monkeypatch):
        from repro.evaluation.metrics import evaluate_clusters
        from repro.evaluation.sweep import dirty_threshold_sweep
        from repro.extensions.dirty_er import create_clusterer
        from repro.graph.unipartite import UnipartiteGraph

        weights = _WEIGHT_LAYOUTS["on_grid_points"]
        graph = UnipartiteGraph.from_edges(
            5, [(i, i + 1, w) for i, w in enumerate(weights)]
        )
        truth = {(0, 1), (1, 2), (3, 4)}
        clusterer = create_clusterer("CC")
        calls = []
        run = clusterer.cluster_compiled

        def counting(compiled, threshold):
            calls.append(threshold)
            return run(compiled, threshold)

        monkeypatch.setattr(clusterer, "cluster_compiled", counting)
        sweep = dirty_threshold_sweep(clusterer, graph, truth)
        # The steps ending at 0.3 and at 0.35 (both closed at 0.3), and
        # at 0.8 and 0.85, hold a weight: four runs after the first.
        assert calls == [_GRID[0], _GRID[0], *_GRID[5:7], *_GRID[15:17]]
        for point in sweep.points:
            clusters = create_clusterer("CC").cluster(graph, point.threshold)
            assert point.scores == evaluate_clusters(clusters, truth)


class TestClusterMetrics:
    """Cluster-level scoring for the dirty-ER extension."""

    def test_clusters_to_pairs_canonical(self):
        from repro.evaluation.metrics import clusters_to_pairs

        pairs = clusters_to_pairs([{3, 1, 2}, {5}, {7, 6}])
        assert pairs == {(1, 2), (1, 3), (2, 3), (6, 7)}

    def test_singletons_carry_no_weight(self):
        from repro.evaluation.metrics import evaluate_clusters

        scores = evaluate_clusters([{0}, {1}, {2}], {(0, 1)})
        assert scores.precision == 0.0
        assert scores.recall == 0.0
        assert scores.output_pairs == 0

    def test_evaluate_clusters_counts(self):
        from repro.evaluation.metrics import evaluate_clusters

        scores = evaluate_clusters(
            [{0, 1, 2}, {3, 4}], {(0, 1), (3, 4), (8, 9)}
        )
        assert scores.output_pairs == 4  # 3 + 1 intra-cluster pairs
        assert scores.true_positives == 2
        assert scores.precision == pytest.approx(2 / 4)
        assert scores.recall == pytest.approx(2 / 3)

    def test_index_matches_scalar_path(self):
        from repro.evaluation.metrics import (
            GroundTruthIndex,
            evaluate_clusters,
        )

        clusters = [{0, 1, 2}, {3, 4}, {5}, set(range(6, 15))]
        truth = {(0, 1), (0, 2), (3, 4), (6, 7), (97, 99)}
        index = GroundTruthIndex(truth)
        assert index.score_clusters(clusters) == evaluate_clusters(
            clusters, truth
        )

    def test_empty_clustering(self):
        from repro.evaluation.metrics import GroundTruthIndex

        index = GroundTruthIndex({(0, 1)})
        scores = index.score_clusters([])
        assert scores.f_measure == 0.0
        assert scores.ground_truth_pairs == 1
