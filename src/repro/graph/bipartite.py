"""The bipartite similarity graph data structure.

A :class:`SimilarityGraph` is the single input type shared by every
matching algorithm in :mod:`repro.matching`.  Nodes on each side are
dense integer indices (``0 .. n1-1`` for the left collection ``V1`` and
``0 .. n2-1`` for the right collection ``V2``); edges are stored as three
parallel :mod:`numpy` arrays, which keeps million-edge graphs cheap and
makes threshold pruning a single vectorized mask.

The representation intentionally mirrors the paper's problem statement:
edges connect only nodes of different sides, weights live in ``[0, 1]``
and the same graph is re-used across all algorithms and all thresholds
of the sweep.  Storage, pickling, pruning, the scored-pairs builder and
the compiled cache are the edge-graph core's
(:class:`~repro.graph.core.EdgeGraph`), shared with the Dirty-ER graph;
this module adds what only the bipartite kind has — its endpoint
checks, the strict (``>``) default threshold, the dense-matrix and
edge-list constructors, per-side adjacency and side swapping.

Re-use is what :meth:`~repro.graph.core.EdgeGraph.compiled` serves: it
builds (once, cached) the :class:`~repro.graph.compiled.CompiledGraph`
holding the descending-weight edge permutation and the CSR adjacency
both matcher entry points share — ``Matcher.match`` compiles implicitly
and ``Matcher.match_compiled`` consumes the compiled view directly.
The edge arrays are therefore part of an immutability contract:
mutating ``left`` / ``right`` / ``weight`` after the first compile
leaves the cached artifacts stale.  Derive new graphs (``prune``,
:meth:`~SimilarityGraph.swap_sides`, ``subgraph_by_edge_indices``)
instead of editing in place.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.graph.compiled import CompiledGraph
from repro.graph.core import EdgeGraph

__all__ = ["SimilarityGraph"]


class SimilarityGraph(EdgeGraph):
    """A weighted bipartite graph ``G = (V1, V2, E)``.

    Parameters
    ----------
    n_left:
        Number of nodes in the left collection ``V1``.
    n_right:
        Number of nodes in the right collection ``V2``.
    left:
        Array of left endpoints, one per edge.
    right:
        Array of right endpoints, one per edge.
    weight:
        Array of edge weights.  Weights are expected in ``[0, 1]``; use
        :func:`repro.graph.normalize.min_max_normalize` when a similarity
        function produces weights on another scale.
    name:
        Optional human-readable identifier (e.g. the similarity function
        that produced the graph).
    validate:
        When true (the default), check index bounds and weight range.
    """

    __slots__ = ("n_left", "n_right", "left", "right")

    SIZES = ("n_left", "n_right")
    ENDS = ("left", "right")
    INCLUSIVE = False
    COMPILED = CompiledGraph

    def __init__(
        self,
        n_left: int,
        n_right: int,
        left: Sequence[int] | np.ndarray,
        right: Sequence[int] | np.ndarray,
        weight: Sequence[float] | np.ndarray,
        name: str = "",
        validate: bool = True,
    ) -> None:
        super().__init__(
            (n_left, n_right), left, right, weight, name, validate
        )

    def _check_ends(self) -> None:
        if self.left.min() < 0 or self.left.max() >= self.n_left:
            raise ValueError("left endpoint out of range")
        if self.right.min() < 0 or self.right.max() >= self.n_right:
            raise ValueError("right endpoint out of range")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        n_left: int,
        n_right: int,
        edges: Iterable[tuple[int, int, float]],
        name: str = "",
    ) -> "SimilarityGraph":
        """Build a graph from an iterable of ``(left, right, weight)``."""
        edge_list = list(edges)
        if edge_list:
            left, right, weight = zip(*edge_list)
        else:
            left, right, weight = (), (), ()
        return cls(n_left, n_right, left, right, weight, name=name)

    @classmethod
    def from_matrix(
        cls,
        matrix: np.ndarray,
        keep_zero: bool = False,
        name: str = "",
    ) -> "SimilarityGraph":
        """Build a graph from a dense ``n_left x n_right`` weight matrix.

        By default edges with weight ``0`` are dropped, matching the
        paper's convention of keeping every pair "with a similarity
        higher than 0".
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError("matrix must be two-dimensional")
        if keep_zero:
            left, right = np.indices(matrix.shape)
            left, right = left.ravel(), right.ravel()
        else:
            left, right = np.nonzero(matrix > 0.0)
        return cls(
            matrix.shape[0],
            matrix.shape[1],
            left,
            right,
            matrix[left, right],
            name=name,
        )

    # ------------------------------------------------------------------
    # Properties and adjacency
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of nodes ``n = |V1| + |V2|``."""
        return self.n_left + self.n_right

    @property
    def cartesian_size(self) -> int:
        """Size of the full comparison space ``|V1| x |V2|``."""
        return self.n_left * self.n_right

    @property
    def density(self) -> float:
        """Fraction of the Cartesian product realised as edges."""
        if self.cartesian_size == 0:
            return 0.0
        return self.n_edges / self.cartesian_size

    def left_adjacency(self) -> list[list[tuple[int, float]]]:
        """Adjacency lists for ``V1``, each sorted by decreasing weight.

        Ties are broken by ascending neighbour index so results are
        deterministic.  Delegates to the compiled CSR arrays — one sort
        shared with every other consumer, cached on the compiled graph
        (no more per-side lexsort or stale private list caches).
        """
        return self.compiled().left_adjacency()

    def right_adjacency(self) -> list[list[tuple[int, float]]]:
        """Adjacency lists for ``V2``, each sorted by decreasing weight."""
        return self.compiled().right_adjacency()

    def average_node_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Average adjacent-edge weight per node, for both sides.

        Nodes without edges get an average of ``0``.  Used by the
        Ricochet Sequential Rippling seed ordering.
        """
        left_sum = np.zeros(self.n_left)
        right_sum = np.zeros(self.n_right)
        left_deg = np.zeros(self.n_left)
        right_deg = np.zeros(self.n_right)
        np.add.at(left_sum, self.left, self.weight)
        np.add.at(right_sum, self.right, self.weight)
        np.add.at(left_deg, self.left, 1.0)
        np.add.at(right_deg, self.right, 1.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            left_avg = np.where(left_deg > 0, left_sum / left_deg, 0.0)
            right_avg = np.where(right_deg > 0, right_sum / right_deg, 0.0)
        return left_avg, right_avg

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def swap_sides(self) -> "SimilarityGraph":
        """Return the graph with ``V1`` and ``V2`` exchanged."""
        swapped = SimilarityGraph(
            self.n_right,
            self.n_left,
            self.right,
            self.left,
            self.weight,
            name=self.name,
            validate=False,
        )
        swapped.metadata = dict(self.metadata)
        return swapped

    def to_dense(self) -> np.ndarray:
        """Materialise the weight matrix (missing edges are ``0``)."""
        matrix = np.zeros((self.n_left, self.n_right))
        matrix[self.left, self.right] = self.weight
        return matrix
