"""Similarity-threshold sweep (Section 5, Generation Process).

Every algorithm is applied to every similarity graph with thresholds
from 0.05 to 1.00 in steps of 0.05; "the largest threshold that
achieves the highest F-Measure is selected as the optimal one,
determining the performance of the algorithm for the particular
input".

The sweep runs on the compiled-graph engine: the graph is compiled
once (descending edge permutation, CSR adjacency — see
:mod:`repro.graph.compiled`) and every grid point consumes a cached
prefix slice through ``Matcher.match_compiled``, instead of each of
the ~200 ``(algorithm, threshold)`` runs per graph re-masking and
re-sorting the same arrays.  Ground-truth lookups go through one
shared :class:`~repro.evaluation.metrics.GroundTruthIndex`.  Results
are bit-identical to the legacy per-call path (the differential suite
and ``benchmarks/bench_matching_sweep.py`` enforce this).

For BMC, which has the extra basis-collection parameter, the paper
examines both options and retains the best one; pass several matchers
to :func:`threshold_sweep_best_of` for that behaviour.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.evaluation.metrics import (
    EffectivenessScores,
    GroundTruthIndex,
)
from repro.graph.bipartite import SimilarityGraph
from repro.graph.selection import check_threshold
from repro.matching.base import Matcher

__all__ = [
    "DEFAULT_THRESHOLD_GRID",
    "SweepPoint",
    "SweepResult",
    "threshold_sweep",
    "threshold_sweep_best_of",
    "dirty_threshold_sweep",
    "optimal_threshold",
    "sweeps_to_payload",
    "sweeps_from_payload",
]

#: The paper's grid: 0.05, 0.10, ..., 1.00.
DEFAULT_THRESHOLD_GRID: tuple[float, ...] = tuple(
    round(0.05 * k, 2) for k in range(1, 21)
)


@dataclass(frozen=True)
class SweepPoint:
    """One (threshold, scores, runtime) sample of a sweep."""

    threshold: float
    scores: EffectivenessScores
    seconds: float


@dataclass
class SweepResult:
    """The full sweep of one algorithm over one graph."""

    algorithm: str
    points: list[SweepPoint] = field(default_factory=list)

    @property
    def best(self) -> SweepPoint:
        """The paper's optimum: highest F1, largest threshold on ties."""
        if not self.points:
            raise ValueError("sweep has no points")
        return max(
            self.points, key=lambda p: (p.scores.f_measure, p.threshold)
        )

    @property
    def best_threshold(self) -> float:
        return self.best.threshold

    @property
    def best_scores(self) -> EffectivenessScores:
        return self.best.scores

    @property
    def mean_seconds(self) -> float:
        """Average per-run matching time across the sweep."""
        if not self.points:
            return 0.0
        return sum(p.seconds for p in self.points) / len(self.points)

    @property
    def best_seconds(self) -> float:
        """Runtime of the run at the optimal threshold."""
        return self.best.seconds


def threshold_sweep(
    matcher: Matcher,
    graph: SimilarityGraph,
    ground_truth: set[tuple[int, int]],
    grid: tuple[float, ...] = DEFAULT_THRESHOLD_GRID,
    truth_index: GroundTruthIndex | None = None,
) -> SweepResult:
    """Run ``matcher`` over every threshold of ``grid``.

    The graph is compiled once up front; each grid point then runs the
    matcher's compiled kernel against a cached threshold slice.  Pass
    ``truth_index`` to share one pre-built ground-truth index across
    several sweeps of the same dataset (the experiment runner does).

    A grid step that contains no edge weight in ``[previous,
    current]`` re-uses the previous result: every algorithm observes
    the threshold only through ``w > t`` / ``w >= t`` comparisons, so
    its output cannot change.  This keeps the 20-point sweep cheap on
    graphs whose weights concentrate in a narrow band.  The test runs
    once per sweep, over the whole grid, not once per point.  A NaN
    grid point raises :class:`ValueError` before the first call.

    Each point's ``seconds`` measures the *warm-engine marginal* run:
    one untimed call at the first grid threshold precedes the loop, so
    the shared per-graph setup (compile, adjacency, an algorithm's
    threshold-independent kernel state such as RCA's assignment passes,
    BAH's contribution map, UMC's endpoint lists or CNC's first copies
    of parallel edges) is excluded uniformly instead of being charged
    to whichever point happens to run first.
    """
    compiled = graph.compiled()
    if truth_index is None:
        truth_index = GroundTruthIndex(ground_truth)
    return _sweep(
        matcher.code,
        compiled,
        matcher.match_compiled,
        lambda matching: truth_index.score(matching.pairs),
        grid,
    )


def _sweep(
    algorithm: str,
    compiled,
    run,
    score,
    grid: tuple[float, ...],
) -> SweepResult:
    """The threshold loop of :func:`threshold_sweep` and
    :func:`dirty_threshold_sweep`: ``run(compiled, threshold)`` is the
    timed kernel call, ``score(output)`` its untimed evaluation."""
    for threshold in grid:
        check_threshold(threshold)
    if grid:
        run(compiled, grid[0])  # warm, untimed

    result = SweepResult(algorithm=algorithm)
    # The compiled graph already holds the ascending weight sort.
    repeats = _repeats_previous(compiled.weight_ascending, grid)
    point: SweepPoint | None = None
    for threshold, repeat in zip(grid, repeats):
        if repeat:
            point = SweepPoint(
                threshold=threshold,
                scores=point.scores,
                seconds=point.seconds,
            )
        else:
            start = time.perf_counter()
            output = run(compiled, threshold)
            elapsed = time.perf_counter() - start
            point = SweepPoint(
                threshold=threshold, scores=score(output), seconds=elapsed
            )
        result.points.append(point)
    return result


def _repeats_previous(sorted_weights, grid) -> list[bool]:
    """Per grid point, whether no edge weight lies in the closed
    interval ``[previous, current]`` (never for the first point)."""
    if len(grid) < 2:
        return [False] * len(grid)
    thresholds = np.asarray(grid, dtype=np.float64)
    start = np.searchsorted(sorted_weights, thresholds[:-1], side="left")
    end = np.searchsorted(sorted_weights, thresholds[1:], side="right")
    return [False, *(start == end).tolist()]


# ----------------------------------------------------------------------
# Sweep (de)serialization
# ----------------------------------------------------------------------
def sweeps_to_payload(sweeps: dict[str, SweepResult]) -> dict:
    """JSON-compatible form of an algorithm→sweep mapping.

    Floats survive ``json.dumps``/``loads`` exactly (repr round-trip),
    so a payload decoded by :func:`sweeps_from_payload` is
    bit-identical to the sweeps it encodes — the results cache and the
    resilience run journal both rely on this.
    """
    return {
        code: [
            [
                point.threshold,
                point.scores.precision,
                point.scores.recall,
                point.scores.f_measure,
                point.scores.true_positives,
                point.scores.output_pairs,
                point.scores.ground_truth_pairs,
                point.seconds,
            ]
            for point in sweep.points
        ]
        for code, sweep in sweeps.items()
    }


def sweeps_from_payload(payload: dict) -> dict[str, SweepResult]:
    """Inverse of :func:`sweeps_to_payload`."""
    sweeps: dict[str, SweepResult] = {}
    for code, points in payload.items():
        sweep = SweepResult(algorithm=code)
        for (
            threshold, precision, recall, f_measure,
            true_positives, output_pairs, truth_pairs, seconds,
        ) in points:
            sweep.points.append(
                SweepPoint(
                    threshold=threshold,
                    scores=EffectivenessScores(
                        precision=precision,
                        recall=recall,
                        f_measure=f_measure,
                        true_positives=int(true_positives),
                        output_pairs=int(output_pairs),
                        ground_truth_pairs=int(truth_pairs),
                    ),
                    seconds=seconds,
                )
            )
        sweeps[code] = sweep
    return sweeps


def threshold_sweep_best_of(
    matchers: list[Matcher],
    graph: SimilarityGraph,
    ground_truth: set[tuple[int, int]],
    grid: tuple[float, ...] = DEFAULT_THRESHOLD_GRID,
    truth_index: GroundTruthIndex | None = None,
) -> SweepResult:
    """Sweep several configurations and keep the best (by best F1).

    This implements the paper's treatment of BMC's basis parameter:
    "we examine both options and retain the best one".  All
    configurations share the same compiled graph and truth index.
    """
    if not matchers:
        raise ValueError("matchers must not be empty")
    if truth_index is None:
        truth_index = GroundTruthIndex(ground_truth)
    sweeps = [
        threshold_sweep(
            matcher, graph, ground_truth, grid, truth_index=truth_index
        )
        for matcher in matchers
    ]
    return max(sweeps, key=lambda s: s.best_scores.f_measure)


def dirty_threshold_sweep(
    clusterer,
    graph,
    ground_truth: set[tuple[int, int]],
    grid: tuple[float, ...] = DEFAULT_THRESHOLD_GRID,
    truth_index: GroundTruthIndex | None = None,
) -> SweepResult:
    """The Dirty-ER counterpart of :func:`threshold_sweep`.

    ``clusterer`` is a :class:`repro.extensions.dirty_er.DirtyClusterer`
    and ``graph`` a :class:`repro.graph.unipartite.UnipartiteGraph`;
    the graph is compiled once up front (descending edge permutation,
    symmetric CSR — see :mod:`repro.graph.unipartite`) and every grid
    point runs the clusterer's compiled kernel against a cached
    inclusive threshold selection, scored at cluster level through the
    shared :class:`~repro.evaluation.metrics.GroundTruthIndex`.

    Repeated grid points are reused as in the bipartite sweep: every
    clustering algorithm observes the threshold only through
    ``w >= t`` comparisons, so a grid step containing no edge weight
    cannot change the output.  ``seconds`` is the warm-engine
    marginal, with one untimed call at the first grid threshold.
    """
    compiled = graph.compiled()
    if truth_index is None:
        truth_index = GroundTruthIndex(ground_truth)
    return _sweep(
        clusterer.code,
        compiled,
        clusterer.cluster_compiled,
        truth_index.score_clusters,
        grid,
    )


def optimal_threshold(
    matcher: Matcher,
    graph: SimilarityGraph,
    ground_truth: set[tuple[int, int]],
    grid: tuple[float, ...] = DEFAULT_THRESHOLD_GRID,
) -> float:
    """Shorthand: the optimal threshold of ``matcher`` on ``graph``."""
    return threshold_sweep(matcher, graph, ground_truth, grid).best_threshold
