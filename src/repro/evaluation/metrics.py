"""Effectiveness measures for CCER (Section 5, Evaluation Measures).

* *Precision* — the portion of output partitions that involve two
  matching entities;
* *Recall* — the portion of matching pairs that appear in the output;
* *F-Measure* — their harmonic mean.

All are defined on the 2-node partitions only; singletons carry no
weight in either direction.

:func:`evaluate_pairs` is the one-shot API; a threshold sweep scores
the same ground truth hundreds of times, so
:class:`GroundTruthIndex` freezes the truth pairs once and scores
every output with one set intersection, producing numbers identical
to :func:`evaluate_pairs`.

The Dirty-ER extension scores *clusterings* instead of matchings:
every intra-cluster pair is an asserted duplicate, so a clustering is
evaluated by the pair-level precision/recall/F1 of its induced pair
set (:func:`clusters_to_pairs`, :func:`evaluate_clusters`,
:meth:`GroundTruthIndex.score_clusters`).  Singletons induce no pairs
and carry no weight in either direction, mirroring the bipartite
convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "EffectivenessScores",
    "GroundTruthIndex",
    "evaluate_pairs",
    "clusters_to_pairs",
    "evaluate_clusters",
]


@dataclass(frozen=True)
class EffectivenessScores:
    """Precision / recall / F-measure plus the underlying counts."""

    precision: float
    recall: float
    f_measure: float
    true_positives: int
    output_pairs: int
    ground_truth_pairs: int

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.precision, self.recall, self.f_measure)


def evaluate_pairs(
    pairs: Iterable[tuple[int, int]],
    ground_truth: set[tuple[int, int]],
) -> EffectivenessScores:
    """Score a set of matched pairs against the ground truth."""
    output = set(pairs)
    return _measures(
        len(output & ground_truth), len(output), len(ground_truth)
    )


def _measures(
    true_positives: int, n_output: int, n_truth: int
) -> EffectivenessScores:
    """The measures of ``n_output`` distinct output pairs, of which
    ``true_positives`` are among ``n_truth`` truth pairs."""
    precision = true_positives / n_output if n_output else 0.0
    recall = true_positives / n_truth if n_truth else 0.0
    if precision + recall > 0:
        f_measure = 2 * precision * recall / (precision + recall)
    else:
        f_measure = 0.0
    return EffectivenessScores(
        precision=precision,
        recall=recall,
        f_measure=f_measure,
        true_positives=true_positives,
        output_pairs=n_output,
        ground_truth_pairs=n_truth,
    )


def clusters_to_pairs(
    clusters: Iterable[Iterable[int]],
) -> set[tuple[int, int]]:
    """All intra-cluster node pairs, canonically oriented (``u < v``).

    This is the pair set a Dirty-ER clustering asserts: every two
    members of one cluster are claimed duplicates.  Singleton clusters
    contribute nothing.
    """
    from itertools import combinations

    pairs: set[tuple[int, int]] = set()
    for cluster in clusters:
        pairs.update(combinations(sorted(cluster), 2))
    return pairs


def evaluate_clusters(
    clusters: Iterable[Iterable[int]],
    ground_truth: set[tuple[int, int]],
) -> EffectivenessScores:
    """Pair-level precision/recall/F1 of a Dirty-ER clustering.

    The ground truth holds canonical ``(u, v)`` duplicate pairs with
    ``u < v``; the clustering is scored by the pairs it induces.
    """
    return evaluate_pairs(clusters_to_pairs(clusters), ground_truth)


def _pair_keys(pairs: np.ndarray) -> np.ndarray:
    """Fold an ``(n, 2)`` pair array into one int64 key per pair.

    Indices are non-negative entity ids well below ``2**31``, so
    ``(left << 32) | right`` is collision-free.
    """
    return (pairs[:, 0].astype(np.int64) << 32) | pairs[:, 1].astype(np.int64)


class GroundTruthIndex:
    """A ground-truth pair set, frozen once for many evaluations.

    Built once per dataset (or per sweep) and shared across every
    ``(algorithm, threshold)`` evaluation; :meth:`score` returns
    exactly what ``evaluate_pairs(pairs, ground_truth)`` would.  A
    matching holds at most ``min(n_left, n_right)`` pairs, a few
    hundred on the benchmark datasets, so its true positives are one
    set intersection against the frozen truth set: a fixed cost of a
    few numpy calls per score (key folding, dedup, binary search)
    would outweigh the lookups.  Dirty-ER clusterings induce up to quadratically many
    pairs, so :meth:`score_clusters` folds them into int64 keys and
    binary-searches the sorted truth keys instead.
    """

    __slots__ = ("_truth", "_keys", "n_truth")

    def __init__(self, ground_truth: Iterable[tuple[int, int]]) -> None:
        self._truth = frozenset(ground_truth)
        self.n_truth = len(self._truth)
        if self._truth:
            pairs = np.array(sorted(self._truth), dtype=np.int64)
            self._keys = np.sort(_pair_keys(pairs))
        else:
            self._keys = np.zeros(0, dtype=np.int64)

    def _match_count(self, keys: np.ndarray) -> int:
        """How many of the (distinct, sorted) keys are truth pairs."""
        if not len(keys) or not len(self._keys):
            return 0
        positions = np.searchsorted(self._keys, keys)
        in_range = positions < len(self._keys)
        return int(
            np.count_nonzero(
                self._keys[positions[in_range]] == keys[in_range]
            )
        )

    def true_positives(self, pairs: Iterable[tuple[int, int]]) -> int:
        """Number of distinct output pairs present in the truth set."""
        return len(self._truth.intersection(pairs))

    def score_clusters(
        self, clusters: Iterable[Iterable[int]]
    ) -> EffectivenessScores:
        """Score a Dirty-ER clustering; identical to
        :func:`evaluate_clusters` against the same ground truth.

        Disjoint clusters induce intrinsically distinct pairs, so the
        keys are assembled vectorized per cluster (``triu_indices``)
        and only sorted — no dedup pass, no Python tuple set.
        """
        key_chunks = []
        for cluster in clusters:
            if len(cluster) < 2:
                continue
            nodes = np.fromiter(cluster, dtype=np.int64)
            nodes.sort()
            first, second = np.triu_indices(len(nodes), k=1)
            key_chunks.append((nodes[first] << 32) | nodes[second])
        if not key_chunks:
            keys = np.zeros(0, dtype=np.int64)
        else:
            keys = np.concatenate(key_chunks)
            keys.sort()
        return _measures(self._match_count(keys), len(keys), self.n_truth)

    def score(self, pairs: Iterable[tuple[int, int]]) -> EffectivenessScores:
        """Score matched pairs; identical to :func:`evaluate_pairs`."""
        output = set(pairs)
        return _measures(len(output & self._truth), len(output), self.n_truth)
