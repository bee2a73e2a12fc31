"""Best Assignment Heuristic (BAH) — Algorithm 4.

A swap-based random-search heuristic for the maximum weight bipartite
matching problem.  Every entity of the smaller collection starts paired
with an arbitrary entity of the larger one; each step picks two random
entities of the larger collection and swaps their partners if the total
weight does not decrease.  The search stops after a maximum number of
steps or a wall-clock budget, whichever comes first (the paper uses
10,000 steps and a 2-minute limit).

BAH is the paper's stochastic outlier: it occasionally beats every
other algorithm on balanced collections but is by far the slowest and
least robust method.

The move stream is the seeded generator's sequence of large-side
indices, two per move.  The search draws it in bulk, chunks of
:data:`MOVE_CHUNK` moves through one ``integers(n_large, size=...)``
call each, where the frozen reference search
(``tests/oracles/matching.py``) makes two scalar ``integers`` calls
per move.  Both consume the PCG64 stream identically: numpy runs the
same per-value routine for a scalar and for an array draw, and for
ranges below ``2**32`` that routine takes 32-bit outputs whose unused
halves of a 64-bit step are buffered in the bit generator's state,
not in the call.  A value's bits therefore do not depend on how the
draws are grouped into calls (``tests/matching`` pins this property),
so the swap decisions and the pairs are the same bit for bit, and a
move costs a few list indexings and dict lookups instead of two numpy
calls.
"""

from __future__ import annotations

import numbers
import time
from itertools import chain, islice

import numpy as np

from repro.graph.compiled import CompiledGraph
from repro.graph.selection import check_threshold
from repro.matching.base import Matcher, MatchingResult

__all__ = ["BestAssignmentHeuristic"]

DEFAULT_MAX_MOVES = 10_000
DEFAULT_TIME_LIMIT = 120.0  # seconds, as in the paper

#: Moves drawn per bulk ``integers`` call of the compiled swap search.
MOVE_CHUNK = 4_096

#: The swap search reads the clock before every this-many-th move.
CLOCK_EVERY = 256

_CONTRIBUTION_CACHE_KEY = "bah_contribution"


class BestAssignmentHeuristic(Matcher):
    """BAH per Algorithm 4 of the paper.

    Parameters
    ----------
    max_moves:
        Maximum number of swap attempts (paper default: 10,000).
    time_limit:
        Wall-clock budget in seconds (paper default: 2 minutes).
    seed:
        Seed of the random generator driving the swap selection, a
        non-negative integer.  The paper stresses BAH's stochastic
        nature; a fixed seed makes runs reproducible while still
        exercising the random search.
    """

    code = "BAH"
    full_name = "Best Assignment Heuristic"

    def __init__(
        self,
        max_moves: int = DEFAULT_MAX_MOVES,
        time_limit: float = DEFAULT_TIME_LIMIT,
        seed: int = 42,
    ) -> None:
        self.max_moves = _non_negative_int("max_moves", max_moves)
        # ``not >`` also rejects NaN, which would disable the deadline.
        if not time_limit > 0:
            raise ValueError(
                f"time_limit must be positive, got {time_limit!r}"
            )
        self.time_limit = time_limit
        # ``None`` would draw fresh entropy at every call, so a sweep
        # would not repeat under the same cache key.
        self.seed = _non_negative_int("seed", seed)

    def match_compiled(
        self, view: CompiledGraph, threshold: float
    ) -> MatchingResult:
        check_threshold(threshold)
        # The pseudocode assumes |V1| >= |V2|: swaps happen on the
        # larger side.  Orient the selected edge arrays accordingly and
        # flip the pairs back at the end.
        flipped = view.n_left < view.n_right
        if flipped:
            n_large, n_small = view.n_right, view.n_left
        else:
            n_large, n_small = view.n_left, view.n_right
        if n_large == 0 or n_small == 0:
            return self._result([], threshold)

        # d(v1, v2) keyed as one flat integer, with the *maximum* weight
        # per pair (built from the ascending-weight suffix so the
        # heaviest duplicate wins).  The map is threshold-independent —
        # the threshold is applied at lookup time — so a 20-point sweep
        # builds it once instead of re-scanning all edges per call.
        contribution = view.kernel_cache.get(_CONTRIBUTION_CACHE_KEY)
        if contribution is None:
            if flipped:
                big, small = view.right_sorted, view.left_sorted
            else:
                big, small = view.left_sorted, view.right_sorted
            keys = big * np.int64(n_small) + small
            contribution = dict(
                zip(keys[::-1].tolist(), view.weight_sorted[::-1].tolist())
            )
            view.kernel_cache[_CONTRIBUTION_CACHE_KEY] = contribution

        pairs = self._swap_search(contribution, threshold, n_large, n_small)
        if flipped:
            pairs = [(j, i) for i, j in pairs]
        pairs.sort()
        return self._result(pairs, threshold)

    def _swap_search(
        self,
        contribution: dict[int, float],
        threshold: float,
        n_large: int,
        n_small: int,
    ) -> list[tuple[int, int]]:
        """The random swap search over a prepared contribution map.

        Same moves, clock reads and float arithmetic as the frozen
        reference search.  Move ``m`` swaps large-side entities
        ``draws[2m]`` and ``draws[2m + 1]`` of the seeded stream, drawn
        in chunks of :data:`MOVE_CHUNK` moves; a bulk draw yields the
        same values as the reference's per-move scalar draws (see the
        module docstring), and draws past an early stop are never used.
        The clock is read before every :data:`CLOCK_EVERY`-th move, so
        a deadline stops both searches at the same move.  A lookup
        yields the pair's maximum weight when it exceeds the threshold
        and ``0.0`` otherwise, exactly like the reference's per-call
        dict that only held above-threshold edges, and ``delta`` sums
        the same terms in the same order.  A move whose two entities
        have equal partners (``i == j``, or both unmatched) is skipped:
        the reference computes a zero delta for it and swaps ``-1``
        with ``-1``, which changes nothing.
        """
        partner = [-1] * n_large
        partner[:n_small] = range(n_small)
        get = contribution.get
        max_moves = self.max_moves
        rng = np.random.default_rng(self.seed)

        def chunks():
            drawn = 0
            while drawn < max_moves:
                k = min(MOVE_CHUNK, max_moves - drawn)
                yield rng.integers(n_large, size=2 * k).tolist()
                drawn += k

        stream = chain.from_iterable(chunks())
        moves = zip(stream, stream)
        deadline = time.perf_counter() + self.time_limit
        # Blocks of moves between clock reads: moves 1..CLOCK_EVERY-1,
        # then CLOCK_EVERY moves starting at each multiple of it.
        done, block = 0, CLOCK_EVERY - 1
        while True:
            for i, j in islice(moves, block):
                pi = partner[i]
                pj = partner[j]
                # Equal partners (i == j, or both unmatched): the swap
                # changes nothing.
                if pi == pj:
                    continue
                if pi >= 0:
                    gain = get(j * n_small + pi, 0.0)
                    loss = get(i * n_small + pi, 0.0)
                    delta = (gain if gain > threshold else 0.0) - (
                        loss if loss > threshold else 0.0
                    )
                else:
                    delta = 0.0
                if pj >= 0:
                    gain = get(i * n_small + pj, 0.0)
                    loss = get(j * n_small + pj, 0.0)
                    delta += (gain if gain > threshold else 0.0) - (
                        loss if loss > threshold else 0.0
                    )
                if delta >= 0.0:
                    partner[i] = pj
                    partner[j] = pi
            done += block
            if done >= max_moves or time.perf_counter() >= deadline:
                break
            block = CLOCK_EVERY

        pairs: list[tuple[int, int]] = []
        for i, j in enumerate(partner):
            if j >= 0:
                weight = get(i * n_small + j, 0.0)
                if weight > threshold and weight > 0.0:
                    pairs.append((i, j))
        return pairs


def _non_negative_int(name: str, value) -> int:
    """``value`` as an ``int``; numpy integers pass, bools do not."""
    if (
        not isinstance(value, numbers.Integral)
        or isinstance(value, bool)
        or value < 0
    ):
        raise ValueError(
            f"{name} must be a non-negative integer, got {value!r}"
        )
    return int(value)
