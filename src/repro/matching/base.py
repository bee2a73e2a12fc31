"""Shared matcher interface and matching result container.

The paper's problem statement (Section 2): given a bipartite similarity
graph, output a set of partitions each holding one node, or two nodes
from different collections.  Singleton partitions carry no information
for the evaluation measures, so :class:`MatchingResult` stores only the
2-node partitions (the matched pairs); everything not mentioned in a
pair is implicitly a singleton.

Matchers expose two equivalent entry points:

* :meth:`Matcher.match` — the historical ``(graph, threshold)`` API.
  It is now a thin wrapper: it compiles the graph (cached on the graph
  instance, so the cost is paid once per graph, not per call) and
  delegates to the compiled path.  Results are bit-identical to the
  pre-compiled implementations, frozen as test oracles in
  ``tests/oracles/matching.py`` for the differential tests and the
  matching-sweep benchmark.
* :meth:`Matcher.match_compiled` — the sweep-native path, consuming a
  :class:`~repro.graph.compiled.CompiledGraph` directly so repeated
  calls across thresholds share one edge sort, one CSR adjacency and
  cached per-threshold edge selections.
"""

from __future__ import annotations

from abc import ABC
from dataclasses import dataclass, field

from repro.graph.bipartite import SimilarityGraph
from repro.graph.compiled import CompiledGraph
from repro.graph.selection import check_threshold

__all__ = ["Matcher", "MatchingResult"]


@dataclass
class MatchingResult:
    """The output of a bipartite matching algorithm.

    Attributes
    ----------
    pairs:
        Matched pairs ``(left_index, right_index)``.  Every left and
        right index appears at most once (the unique-mapping constraint
        of CCER); :meth:`validate` enforces this.
    algorithm:
        Short code of the producing algorithm (e.g. ``"UMC"``).
    threshold:
        Similarity threshold the algorithm was run with.
    """

    pairs: list[tuple[int, int]] = field(default_factory=list)
    algorithm: str = ""
    threshold: float = 0.0

    def __len__(self) -> int:
        return len(self.pairs)

    def pair_set(self) -> set[tuple[int, int]]:
        """The matched pairs as a set, for evaluation lookups."""
        return set(self.pairs)

    def matched_left(self) -> set[int]:
        """Left nodes that participate in some pair."""
        return {i for i, _ in self.pairs}

    def matched_right(self) -> set[int]:
        """Right nodes that participate in some pair."""
        return {j for _, j in self.pairs}

    def total_weight(self, graph: SimilarityGraph) -> float:
        """Sum of graph edge weights over the matched pairs.

        Pairs without a corresponding graph edge contribute ``0`` (this
        can happen for assignment-style algorithms that pair nodes first
        and filter by threshold later).
        """
        lookup: dict[tuple[int, int], float] = {}
        for i, j, w in zip(graph.left, graph.right, graph.weight):
            key = (int(i), int(j))
            if w > lookup.get(key, -1.0):
                lookup[key] = float(w)
        return sum(lookup.get(pair, 0.0) for pair in self.pairs)

    def validate(self, graph: SimilarityGraph | None = None) -> None:
        """Raise :class:`ValueError` if the result violates CCER rules.

        Checks the unique-mapping constraint and, when ``graph`` is
        given, index bounds.
        """
        left_seen: set[int] = set()
        right_seen: set[int] = set()
        for i, j in self.pairs:
            if i in left_seen:
                raise ValueError(f"left node {i} matched more than once")
            if j in right_seen:
                raise ValueError(f"right node {j} matched more than once")
            left_seen.add(i)
            right_seen.add(j)
            if graph is not None:
                if not (0 <= i < graph.n_left):
                    raise ValueError(f"left node {i} out of range")
                if not (0 <= j < graph.n_right):
                    raise ValueError(f"right node {j} out of range")


class Matcher(ABC):
    """Base class of all bipartite matching algorithms.

    Subclasses set the class attributes ``code`` (the paper's
    three-letter identifier) and ``full_name`` and implement at least
    one of :meth:`match_compiled` (preferred: the sweep engine calls it
    directly) or :meth:`match` (external matchers that have no compiled
    kernel); the default implementations bridge between the two.
    """

    code: str = ""
    full_name: str = ""

    def match(self, graph: SimilarityGraph, threshold: float) -> MatchingResult:
        """Partition ``graph`` using the similarity ``threshold``.

        Implementations must return pairs that satisfy the
        unique-mapping constraint and must not mutate ``graph``'s edge
        arrays.  The default rejects a NaN threshold before compiling
        the graph (cached on the graph) and delegates to
        :meth:`match_compiled`.
        """
        check_threshold(threshold)
        return self.match_compiled(graph.compiled(), threshold)

    def match_compiled(
        self, view: CompiledGraph, threshold: float
    ) -> MatchingResult:
        """Partition a compiled graph at ``threshold``.

        The compiled path of the ten built-in algorithms; matchers
        without a compiled kernel (e.g. the learned baselines) inherit
        this fallback onto their :meth:`match` over the source graph.
        Every built-in kernel raises :class:`ValueError` on a NaN
        threshold before any work, through
        :func:`repro.graph.selection.check_threshold`.
        """
        if type(self).match is Matcher.match:  # neither entry overridden
            raise NotImplementedError(
                f"{type(self).__name__} implements neither match() nor "
                "match_compiled()"
            )
        return self.match(view.source, threshold)

    def _result(
        self, pairs: list[tuple[int, int]], threshold: float
    ) -> MatchingResult:
        return MatchingResult(
            pairs=pairs, algorithm=self.code, threshold=threshold
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"
