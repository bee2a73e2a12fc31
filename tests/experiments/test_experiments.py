"""Integration tests of the experiment pipeline on the smoke profile.

One full protocol run (two tiny datasets) is shared by all tests via a
module-scoped fixture; every table/figure function must produce
well-formed output from it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import SMOKE_CONFIG, run_experiments
from repro.experiments.effectiveness import (
    family_effectiveness,
    macro_effectiveness,
    score_matrix,
    top_counts,
)
from repro.experiments.efficiency import (
    runtime_rank_order,
    runtime_table,
    scalability_points,
)
from repro.experiments.sota import SotaComparison, run_sota_comparison
from repro.experiments.thresholds import (
    threshold_by_dataset,
    threshold_correlations,
    threshold_stats,
)
from repro.experiments.tradeoff import dominating_points, tradeoff_points
from repro.matching.registry import PAPER_ALGORITHM_CODES


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    cache = tmp_path_factory.mktemp("cache")
    return run_experiments(SMOKE_CONFIG, cache_dir=cache)


@pytest.fixture(scope="module")
def cached_results(tmp_path_factory):
    cache = tmp_path_factory.mktemp("cache2")
    first = run_experiments(SMOKE_CONFIG, cache_dir=cache)
    second = run_experiments(SMOKE_CONFIG, cache_dir=cache)
    return first, second


class TestRunner:
    def test_produces_results(self, results):
        assert results
        for result in results:
            assert set(result.sweeps) == set(PAPER_ALGORITHM_CODES)
            assert result.n_edges > 0
            assert 0.0 < result.normalized_size <= 1.0

    def test_every_sweep_has_full_grid(self, results):
        for result in results:
            for sweep in result.sweeps.values():
                assert len(sweep.points) == 20

    def test_noise_filter_applied(self, results):
        for result in results:
            best = max(
                s.best_scores.f_measure for s in result.sweeps.values()
            )
            assert best >= 0.25

    def test_cache_roundtrip(self, cached_results):
        first, second = cached_results
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert a.function == b.function
            for code in PAPER_ALGORITHM_CODES:
                assert a.best_f1(code) == pytest.approx(b.best_f1(code))
                assert a.best_threshold(code) == b.best_threshold(code)


class TestEffectiveness:
    def test_macro_table_shape(self, results):
        rows = macro_effectiveness(results)
        assert [r.algorithm for r in rows] == list(PAPER_ALGORITHM_CODES)
        for row in rows:
            assert 0.0 <= row.f1_mu <= 1.0
            assert row.n_graphs == len(results)

    def test_family_breakdown_covers_all(self, results):
        breakdown = family_effectiveness(results)
        assert set(breakdown) == {r.family for r in results}

    def test_score_matrix(self, results):
        matrix = score_matrix(results, "f_measure")
        assert matrix.shape == (len(results), 8)
        assert matrix.min() >= 0.0
        assert matrix.max() <= 1.0

    def test_score_matrix_invalid_metric(self, results):
        with pytest.raises(ValueError):
            score_matrix(results, "accuracy")

    def test_top_counts_consistency(self, results):
        table = top_counts(results)
        for (family, category), counters in table.items():
            n_group = sum(
                1
                for r in results
                if r.family == family and r.category == category
            )
            top1_total = sum(c.top1 for c in counters.values())
            # Ties can push the total above the group size, never below.
            assert top1_total >= n_group


class TestEfficiency:
    def test_runtime_table_cells(self, results):
        cells = runtime_table(results)
        assert cells
        for cell in cells:
            assert cell.mean_seconds >= 0.0
            assert cell.n_graphs > 0

    def test_scalability_points_cover_results(self, results):
        figure = scalability_points(results)
        total = sum(
            len(points)
            for by_algorithm in figure.values()
            for points in by_algorithm.values()
        )
        assert total == len(results) * 8

    def test_rank_order_is_permutation(self, results):
        order = runtime_rank_order(results)
        assert sorted(order) == sorted(PAPER_ALGORITHM_CODES)


class TestThresholds:
    def test_stats_quartiles_ordered(self, results):
        table = threshold_stats(results)
        for rows in table.values():
            for row in rows:
                assert (
                    row.minimum <= row.q1 <= row.median <= row.q3
                    <= row.maximum
                )
                assert -1.0 <= row.correlation_with_size <= 1.0

    def test_by_dataset_covers_groups(self, results):
        table = threshold_by_dataset(results)
        assert set(table) == {(r.family, r.dataset) for r in results}

    def test_correlation_matrices(self, results):
        figure = threshold_correlations(results)
        for matrix in figure.values():
            assert matrix.shape == (8, 8)
            assert np.allclose(matrix, matrix.T)
            assert np.allclose(np.diag(matrix), 1.0)


class TestTradeoff:
    def test_points_and_pareto(self, results):
        dataset = results[0].dataset
        points = tradeoff_points(results, dataset)
        assert points
        frontier = dominating_points(points)
        assert frontier
        assert set(frontier) <= set(points)
        # No frontier point is dominated by any other point.
        for p in frontier:
            assert not any(q.dominates(p) for q in points)


class TestSota:
    def test_comparison_rows(self):
        rows = run_sota_comparison(
            datasets=("d2",),
            scale=0.03,
            max_pairs=4000,
            ngram_models=(("token", 1),),
        )
        assert len(rows) == 1
        row = rows[0]
        assert 0.0 <= row.zeroer_f1 <= 1.0
        assert 0.0 <= row.learned_f1 <= 1.0
        assert 0.0 <= row.umc_f1 <= 1.0
        assert row.umc_model == "token1"
        # The exact row the direct scoring path computed, before the
        # TF-IDF cosine graphs came from the shared-artifact engine.
        assert rows == [
            SotaComparison(
                dataset="d2",
                zeroer_f1=0.625,
                learned_f1=0.967741935483871,
                umc_f1=1.0,
                umc_model="token1",
                umc_threshold=0.4,
            )
        ]
