"""Tests for the algorithm registry, the matcher entry points and the
MatchingResult container."""

from __future__ import annotations

import pytest

from repro.evaluation.sweep import threshold_sweep
from repro.graph import SimilarityGraph
from repro.matching import (
    ALGORITHM_CODES,
    PAPER_ALGORITHM_CODES,
    MatchingResult,
    create_matcher,
    default_matchers,
    paper_matchers,
)
from repro.matching.base import Matcher


class TestRegistry:
    def test_paper_codes_are_the_eight(self):
        assert PAPER_ALGORITHM_CODES == (
            "CNC", "RSR", "RCA", "BAH", "BMC", "EXC", "KRC", "UMC",
        )

    def test_all_codes_include_oracles(self):
        assert set(PAPER_ALGORITHM_CODES) <= set(ALGORITHM_CODES)
        assert "HUN" in ALGORITHM_CODES
        assert "GSM" in ALGORITHM_CODES

    def test_create_matcher_case_insensitive(self):
        assert create_matcher("umc").code == "UMC"

    def test_create_matcher_unknown(self):
        with pytest.raises(KeyError):
            create_matcher("XYZ")

    def test_create_matcher_forwards_kwargs(self):
        bah = create_matcher("BAH", max_moves=5, time_limit=1.0, seed=9)
        assert bah.max_moves == 5
        assert bah.time_limit == 1.0
        assert bah.seed == 9

    def test_paper_matchers_complete(self):
        matchers = paper_matchers()
        assert tuple(matchers) == PAPER_ALGORITHM_CODES
        for code, matcher in matchers.items():
            assert isinstance(matcher, Matcher)
            assert matcher.code == code

    def test_paper_matchers_bah_budgets(self):
        matchers = paper_matchers(bah_max_moves=10, bah_time_limit=0.5)
        assert matchers["BAH"].max_moves == 10
        assert matchers["BAH"].time_limit == 0.5

    def test_default_matchers_cover_registry(self):
        assert set(default_matchers()) == set(ALGORITHM_CODES)

    def test_every_matcher_has_metadata(self):
        for code, matcher in default_matchers().items():
            assert matcher.code == code
            assert matcher.full_name


class TestNanThreshold:
    """Every matcher refuses a NaN threshold before any work.  NaN
    fails every comparison, so a kernel that never takes a selection
    would scan nothing or everything and return pairs."""

    NAN_ERROR = "threshold must be a number, got nan"

    @staticmethod
    def _graph():
        cells = [(i, j) for i in range(3) for j in range(3)]
        edges = [(i, j, 0.1 * (k + 1)) for k, (i, j) in enumerate(cells)]
        return SimilarityGraph.from_edges(3, 3, edges)

    @pytest.mark.parametrize("code", ALGORITHM_CODES)
    def test_match_and_match_compiled_raise(self, code):
        graph = self._graph()
        matcher = create_matcher(code)
        with pytest.raises(ValueError, match=self.NAN_ERROR):
            matcher.match(graph, float("nan"))
        view = graph.compiled()
        with pytest.raises(ValueError, match=self.NAN_ERROR):
            matcher.match_compiled(view, float("nan"))
        assert view.kernel_cache == {}

    @pytest.mark.parametrize("code", ALGORITHM_CODES)
    def test_sweep_with_a_nan_grid_point_raises(self, code):
        truth = {(0, 0), (1, 1), (2, 2)}
        with pytest.raises(ValueError, match=self.NAN_ERROR):
            threshold_sweep(
                create_matcher(code), self._graph(), truth, (0.5, float("nan"))
            )


class TestMatchingResult:
    def test_pair_set_and_sides(self):
        result = MatchingResult(pairs=[(0, 1), (2, 0)], algorithm="UMC")
        assert result.pair_set() == {(0, 1), (2, 0)}
        assert result.matched_left() == {0, 2}
        assert result.matched_right() == {0, 1}
        assert len(result) == 2

    def test_total_weight(self):
        g = SimilarityGraph.from_edges(2, 2, [(0, 0, 0.5), (1, 1, 0.25)])
        result = MatchingResult(pairs=[(0, 0), (1, 1)])
        assert result.total_weight(g) == pytest.approx(0.75)

    def test_total_weight_missing_edge_counts_zero(self):
        g = SimilarityGraph.from_edges(2, 2, [(0, 0, 0.5)])
        result = MatchingResult(pairs=[(0, 0), (1, 1)])
        assert result.total_weight(g) == pytest.approx(0.5)

    def test_validate_catches_duplicate_left(self):
        result = MatchingResult(pairs=[(0, 0), (0, 1)])
        with pytest.raises(ValueError):
            result.validate()

    def test_validate_catches_duplicate_right(self):
        result = MatchingResult(pairs=[(0, 1), (2, 1)])
        with pytest.raises(ValueError):
            result.validate()

    def test_validate_catches_out_of_range(self):
        g = SimilarityGraph.from_edges(1, 1, [(0, 0, 0.5)])
        with pytest.raises(ValueError):
            MatchingResult(pairs=[(5, 0)]).validate(g)
        with pytest.raises(ValueError):
            MatchingResult(pairs=[(0, 5)]).validate(g)

    def test_validate_accepts_valid(self):
        g = SimilarityGraph.from_edges(2, 2, [(0, 0, 0.5)])
        MatchingResult(pairs=[(0, 0), (1, 1)]).validate(g)
