"""Differential tests: compiled kernels vs frozen legacy implementations.

For every registered algorithm code, `match` (the compiled path) must
return exactly the same pairs as `match_legacy` (the pre-refactor
implementation, kept verbatim in `tests/oracles/matching.py`) across
the full paper threshold grid on a battery of adversarial graphs:
random, duplicate-parallel-edge, all-ties, empty-edge, degenerate
shapes.  The same guarantee is checked one level up for the sweep
engine and for the process-parallel experiment driver.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.evaluation.metrics import evaluate_pairs
from repro.evaluation.sweep import DEFAULT_THRESHOLD_GRID, threshold_sweep
from repro.graph import SimilarityGraph
from repro.matching import ALGORITHM_CODES, best_assignment, create_matcher
from repro.matching.best_assignment import CLOCK_EVERY, MOVE_CHUNK
from tests.oracles import matching as oracle
from tests.oracles.matching import match_legacy


def make_matcher(code):
    if code == "BAH":
        # Small move budget, generous time limit: deterministic runs.
        return create_matcher("BAH", max_moves=400, time_limit=60.0, seed=3)
    return create_matcher(code)


def _random(seed, n_left, n_right, m, decimals=2):
    rng = np.random.default_rng(seed)
    weight = np.maximum(np.round(rng.random(m), decimals), 10.0 ** -decimals)
    return SimilarityGraph(
        n_left,
        n_right,
        rng.integers(0, n_left, m),
        rng.integers(0, n_right, m),
        weight,
    )


def graph_battery():
    rng = np.random.default_rng(99)
    graphs = {
        "random_square": _random(1, 12, 12, 70),
        "random_wide": _random(2, 6, 20, 60),
        "random_tall": _random(3, 20, 6, 60),
        "fine_weights": _random(4, 10, 10, 50, decimals=3),
        "empty_edges": SimilarityGraph.from_edges(5, 4, []),
        "single_edge": SimilarityGraph.from_edges(1, 1, [(0, 0, 0.5)]),
        "all_ties": SimilarityGraph(
            8,
            8,
            rng.integers(0, 8, 40),
            rng.integers(0, 8, 40),
            np.full(40, 0.6),
        ),
        "two_tie_levels": SimilarityGraph(
            7,
            7,
            rng.integers(0, 7, 30),
            rng.integers(0, 7, 30),
            np.where(rng.random(30) < 0.5, 0.3, 0.8),
        ),
    }
    return sorted(graphs.items())


@pytest.mark.parametrize("code", ALGORITHM_CODES)
@pytest.mark.parametrize(
    "label,graph", graph_battery(), ids=[k for k, _ in graph_battery()]
)
def test_compiled_equals_legacy_over_grid(code, label, graph):
    for threshold in DEFAULT_THRESHOLD_GRID:
        legacy = match_legacy(make_matcher(code), graph, threshold)
        compiled = make_matcher(code).match(graph, threshold)
        assert legacy.pairs == compiled.pairs, (
            f"{code} diverges on {label} at t={threshold}"
        )
        assert compiled.algorithm == code
        assert compiled.threshold == threshold


@pytest.mark.parametrize("code", ALGORITHM_CODES)
def test_compiled_cache_reuse_across_thresholds(code):
    """One matcher instance over one shared compiled graph, descending
    and ascending through the grid: cached selections and kernel state
    must not leak between thresholds."""
    graph = _random(31, 15, 13, 90)
    matcher = make_matcher(code)
    grid = list(DEFAULT_THRESHOLD_GRID) + list(DEFAULT_THRESHOLD_GRID)[::-1]
    for threshold in grid:
        expected = match_legacy(make_matcher(code), graph, threshold)
        assert matcher.match(graph, threshold).pairs == expected.pairs


def test_sweep_engine_equals_legacy_sweep():
    """threshold_sweep (compiled engine + truth index) must reproduce a
    hand-rolled legacy sweep point for point.  The random graph repeats
    one grid point; on ``two_tie_levels`` 15 of the 20 points repeat,
    and both of its weights (0.3, 0.8) are grid points themselves, so
    the reuse of a repeated point is checked at its boundaries."""
    graphs = [
        _random(41, 14, 14, 80),
        dict(graph_battery())["two_tie_levels"],
    ]
    truth = {(i, i) for i in range(10)}
    for graph in graphs:
        for code in ALGORITHM_CODES:
            sweep = threshold_sweep(make_matcher(code), graph, truth)
            assert [p.threshold for p in sweep.points] == list(
                DEFAULT_THRESHOLD_GRID
            )
            for point in sweep.points:
                matching = match_legacy(
                    make_matcher(code), graph, point.threshold
                )
                assert point.scores == evaluate_pairs(matching.pairs, truth)


# ----------------------------------------------------------------------
# BAH: the compiled path draws its move stream in bulk chunks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [1, 2, 3, 1000, 2**31 - 1])
@pytest.mark.parametrize("seed", [0, 3, 42, 2024])
def test_bulk_draws_equal_scalar_draws(n, seed):
    """The numpy property the compiled BAH rests on: ``integers(n,
    size=k)`` in uneven chunks yields the values, and leaves the
    generator state, of the same number of scalar ``integers(n)``."""
    sizes = (1, 2 * MOVE_CHUNK, 3, 2 * MOVE_CHUNK - 1, 600)
    scalar_rng = np.random.default_rng(seed)
    scalar = [int(scalar_rng.integers(n)) for _ in range(sum(sizes))]
    bulk_rng = np.random.default_rng(seed)
    bulk = []
    for size in sizes:
        bulk.extend(bulk_rng.integers(n, size=size).tolist())
    assert bulk == scalar
    assert bulk_rng.bit_generator.state == scalar_rng.bit_generator.state


#: Two full draw chunks and a partial third.
LONG_SEARCH_MOVES = 2 * MOVE_CHUNK + 300


def long_search_battery():
    # Dense enough that moves past each chunk seam still change the
    # pairs at most thresholds.
    graphs = {
        "square": _random(11, 80, 80, 6400),
        # n_left < n_right: the search swaps right-side entities.
        "wide": _random(12, 25, 70, 1750),
        # n_large == 1: every move draws i == j.
        "one_large": SimilarityGraph.from_edges(1, 1, [(0, 0, 0.5)]),
    }
    return sorted(graphs.items())


@pytest.mark.parametrize(
    "label,graph",
    long_search_battery(),
    ids=[k for k, _ in long_search_battery()],
)
def test_bah_across_draw_chunks_equals_legacy(label, graph):
    matcher = create_matcher(
        "BAH", max_moves=LONG_SEARCH_MOVES, time_limit=float("inf"), seed=5
    )
    for threshold in DEFAULT_THRESHOLD_GRID:
        assert (
            matcher.match(graph, threshold).pairs
            == match_legacy(matcher, graph, threshold).pairs
        ), f"BAH diverges on {label} at t={threshold}"


class _ExpiringClock:
    """Stand-in for the ``time`` of the BAH module and of its oracle:
    ``perf_counter`` reads 0.0 until its ``expire_at``-th read, then
    far past any deadline."""

    def __init__(self, expire_at: int) -> None:
        self.expire_at = expire_at
        self.reads = 0

    def perf_counter(self) -> float:
        self.reads += 1
        return 0.0 if self.reads < self.expire_at else 1e9


def test_bah_deadline_stops_both_paths_at_the_same_move(monkeypatch):
    graph = _random(7, 40, 40, 400)
    threshold = 0.3
    # The first read sets the deadline; the others come before moves
    # CLOCK_EVERY, 2 * CLOCK_EVERY, ...  Expiring at the fourth read
    # stops the search after move 3 * CLOCK_EVERY - 1.
    expire_at = 4
    stopped_after = (expire_at - 1) * CLOCK_EVERY - 1
    matcher = create_matcher("BAH", max_moves=20_000, time_limit=1.0, seed=212)
    runs = {
        "match": matcher.match,
        "match_legacy": partial(match_legacy, matcher),
    }
    stopped = {}
    for path, run in runs.items():
        clock = _ExpiringClock(expire_at)
        monkeypatch.setattr(best_assignment, "time", clock)
        monkeypatch.setattr(oracle, "time", clock)
        stopped[path] = run(graph, threshold).pairs
        assert clock.reads == expire_at, path
    monkeypatch.undo()

    def unlimited(max_moves):
        bah = create_matcher(
            "BAH", max_moves=max_moves, time_limit=float("inf"), seed=212
        )
        return bah.match(graph, threshold).pairs

    # Seed 212 makes both the last move before the stop and the first
    # move after it change the pairs, so a stop one move early or late
    # shows.
    assert unlimited(stopped_after - 1) != unlimited(stopped_after)
    assert unlimited(stopped_after + 1) != unlimited(stopped_after)
    assert stopped["match"] == stopped["match_legacy"]
    assert stopped["match"] == unlimited(stopped_after)
    assert stopped["match"] != unlimited(20_000)
