"""The unipartite (Dirty-ER) similarity graph and its compiled form.

Dirty ER resolves duplicates *within* one collection, so its
similarity graph is not bipartite: nodes are ``0 .. n-1`` of a single
collection and an edge ``(u, v)`` (stored canonically with ``u < v``)
carries the similarity of two profiles of that collection.  Clusters
may hold any number of profiles, which is why the consumers of this
graph are the clustering algorithms of
:mod:`repro.extensions.dirty_er` rather than the bipartite matchers.

Both graph kinds build on the edge-graph core of
:mod:`repro.graph.core`, which writes storage, pickling, pruning, the
scored-pairs builder, the compiled cache, the descending-weight edge
permutation (ties by ascending ``(u, v)``, so "all edges at or above
threshold ``t``" is a prefix slice located by one binary search) and
the cached per-threshold selections once.  This module adds what only
the unipartite kind has:

* canonical, duplicate-free edges, checked on construction;
* **symmetric CSR adjacency** (each edge appears under both
  endpoints), every node's run sorted by descending weight with ties
  by ascending neighbour;
* :class:`UniEdgeSelection` views with the clustering kernels' derived
  state — a scipy CSR adjacency, Python-int adjacency bitsets and
  component labels — next to the ``kernel_cache`` for threshold-level
  state;
* the threshold-independent :class:`TriangleBase` GECG flips over,
  with the one routine that finds the triangles through given edges
  (:meth:`TriangleBase.through`) for its build, its incremental
  patch and every flip.

The Dirty-ER literature prunes with ``sim >= t`` (the networkx
prototype, now a test oracle, always did), so selections here default
to **inclusive** semantics — still resolved by
:mod:`repro.graph.selection`, never locally.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.graph.core import (
    CompiledEdgeGraph,
    EdgeGraph,
    PrefixSelection,
    csr,
)

__all__ = [
    "UnipartiteGraph",
    "CompiledUnipartiteGraph",
    "UniEdgeSelection",
    "TriangleBase",
    "pair_keys",
    "pairs_to_unipartite_graph",
]

#: Pair keys pack an edge ``(u, v)`` as ``u << 32 | v``.  The stride is
#: fixed, not ``n_nodes``, so node growth leaves stored keys valid.
_PAIR_SHIFT = np.int64(32)
#: The most wedges :meth:`TriangleBase.through` expands at once, which
#: bounds its transient memory on dense graphs.
_WEDGE_CHUNK = 1 << 18


def pair_keys(u, v) -> np.ndarray:
    """int64 keys of ``(u, v)`` pairs, ordered like ``(u, v)`` tuples."""
    return (np.asarray(u, dtype=np.int64) << _PAIR_SHIFT) | np.asarray(
        v, dtype=np.int64
    )


class UniEdgeSelection(PrefixSelection):
    """The edges of one compiled unipartite graph above one threshold.

    The selected edges are the prefix ``[0:count)`` of the compiled
    descending-weight permutation.  Derived views are lazy and cached
    on the selection: the scipy CSR adjacency (for
    ``csgraph.connected_components``) and the per-node Python-int
    adjacency bitsets the clique kernels intersect.
    """

    __slots__ = VIEWS = ("_sparse", "_bitsets", "_component_labels")

    # -- selected edge arrays (descending weight) ----------------------
    @property
    def u(self) -> np.ndarray:
        return self.compiled.u_sorted[: self.count]

    @property
    def v(self) -> np.ndarray:
        return self.compiled.v_sorted[: self.count]

    # -- derived views --------------------------------------------------
    def adjacency_sparse(self):
        """Symmetric ``scipy.sparse.csr_matrix`` over the selection."""
        if self._sparse is None:
            from scipy import sparse

            n = self.compiled.n_nodes
            u, v = self.u, self.v
            data = np.ones(2 * self.count)
            self._sparse = sparse.csr_matrix(
                (
                    data,
                    (np.concatenate([u, v]), np.concatenate([v, u])),
                ),
                shape=(n, n),
            )
        return self._sparse

    def adjacency_bitsets(self) -> list[int]:
        """Per-node neighbour bitsets (Python ints) over the selection.

        Arbitrary-precision ints make the clique kernels' candidate
        intersections one machine-word-parallel ``&`` per step.
        """
        if self._bitsets is None:
            bits = [0] * self.compiled.n_nodes
            for a, b in zip(self.u.tolist(), self.v.tolist()):
                bits[a] |= 1 << b
                bits[b] |= 1 << a
            self._bitsets = bits
        return self._bitsets

    def component_labels(self) -> np.ndarray:
        """Connected-component label per node over the selection."""
        if self._component_labels is None:
            from scipy.sparse import csgraph

            if self.count == 0:
                self._component_labels = np.arange(
                    self.compiled.n_nodes, dtype=np.int64
                )
            else:
                _, labels = csgraph.connected_components(
                    self.adjacency_sparse(), directed=False
                )
                self._component_labels = labels.astype(np.int64)
        return self._component_labels


class TriangleBase:
    """Every triangle of a compiled unipartite graph, stored once.

    The edges are listed in canonical ascending ``(u, v)`` order —
    ``u``, ``v``, ``weight`` and their sorted :func:`pair_keys`, so an
    edge's position is one ``searchsorted``.  ``triangles`` is a
    ``(3, t)`` int32 array whose columns hold the three edge positions
    of one triangle each, in no particular order.  The base is
    threshold-independent: one build serves a whole threshold sweep,
    and the mutators of :mod:`repro.graph.incremental` patch it
    through deltas instead of rebuilding it.
    """

    __slots__ = ("u", "v", "weight", "keys", "triangles")

    def __init__(self, compiled: "CompiledUnipartiteGraph") -> None:
        graph = compiled.source
        keys = pair_keys(graph.u, graph.v)
        order = np.argsort(keys)
        self.u = graph.u[order]
        self.v = graph.v[order]
        self.weight = graph.weight[order]
        self.keys = keys[order]
        self.triangles = self.through(compiled)

    def through(
        self, compiled: "CompiledUnipartiteGraph", seeds=None
    ) -> np.ndarray:
        """The triangles through the edges at positions ``seeds``.

        ``None`` seeds every edge.  A triangle holding several seeds is
        reported once, from its lowest seed; each column reads (seed,
        its partner at one endpoint, its partner at the other).  A
        seed ``(a, b)`` expands the wedges ``(x, w)`` of its
        lower-degree endpoint ``x`` through ``compiled``'s symmetric
        CSR; with every edge seeded, only the wedges ``w > b`` of
        ``a``'s ascending row are expanded, since ``(a, b)`` is the
        lowest edge of every triangle ``a < b < w``.  Membership of
        the closing edge is one ``searchsorted`` over ``keys``.
        """
        m = len(self.keys)
        every = seeds is None
        if every:
            seeds = np.arange(m)
            near_end, far_end = self.u, self.v
            starts = seeds + 1
            counts = np.searchsorted(self.u, self.u, side="right") - starts
            flat = self.v
        else:
            seeds = np.unique(np.asarray(seeds, dtype=np.int64))
            a, b = self.u[seeds], self.v[seeds]
            indptr = compiled.indptr
            near_end = np.where(
                indptr[a + 1] - indptr[a] <= indptr[b + 1] - indptr[b], a, b
            )
            far_end = a + b - near_end
            starts = indptr[near_end]
            counts = indptr[near_end + 1] - starts
            flat = compiled.neighbors
        ends = np.cumsum(counts)
        parts = [np.empty((3, 0), dtype=np.int32)]
        lo = 0
        while lo < len(seeds):
            hi = max(
                lo + 1,
                int(np.searchsorted(
                    ends, ends[lo] - counts[lo] + _WEDGE_CHUNK, side="right"
                )),
            )
            chunk = counts[lo:hi]
            at = np.repeat(np.arange(lo, hi), chunk)
            index = np.arange(int(chunk.sum())) + np.repeat(
                starts[lo:hi] - (np.cumsum(chunk) - chunk), chunk
            )
            seed, w, y = seeds[at], flat[index], far_end[at]
            near = index if every else self._find(near_end[at], w)
            far = self._find(y, w)
            keep = (w != y) & (far >= 0)
            if not every:
                # A lower seed in the same triangle reports it instead.
                for partner in (near, far):
                    keep &= (partner > seed) | (_lookup(seeds, partner) < 0)
            parts.append(
                np.stack([seed[keep], near[keep], far[keep]]).astype(np.int32)
            )
            lo = hi
        return np.concatenate(parts, axis=1)

    def _find(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Positions of the edges ``{x, y}``, ``-1`` where absent."""
        return _lookup(
            self.keys, pair_keys(np.minimum(x, y), np.maximum(x, y))
        )


def _lookup(sorted_values: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Position of each of ``values`` in ``sorted_values``, ``-1``
    where absent."""
    found = np.minimum(
        np.searchsorted(sorted_values, values), len(sorted_values) - 1
    )
    return np.where(sorted_values[found] == values, found, -1)


class CompiledUnipartiteGraph(CompiledEdgeGraph):
    """Shared, immutable precomputation over one unipartite graph.

    Construction performs the two edge sorts (global descending and
    the symmetric CSR sort); per-threshold selections and clustering
    kernel state are computed on first use and cached.  Assumes the
    source graph's edge arrays are never mutated afterwards, except
    through the in-place mutators of :mod:`repro.graph.incremental`.
    """

    __slots__ = (
        "n_nodes",
        "u_sorted",
        "v_sorted",
        "indptr",
        "neighbors",
        "neighbor_weights",
    )

    SELECTION = UniEdgeSelection

    def __init__(self, graph: "UnipartiteGraph") -> None:
        super().__init__(graph)
        self.n_nodes = graph.n_nodes
        u, v, weight = graph.u, graph.v, graph.weight
        self.u_sorted = u[self.order]
        self.v_sorted = v[self.order]
        # Symmetric CSR: every edge appears under both endpoints.
        self.indptr, self.neighbors, self.neighbor_weights = csr(
            np.concatenate([u, v]),
            np.concatenate([v, u]),
            np.concatenate([weight, weight]),
            self.n_nodes,
        )

    def triangles(self) -> TriangleBase:
        """The graph's :class:`TriangleBase`, built on first use and
        cached in ``kernel_cache`` (the one entry a mutation patches
        instead of dropping)."""
        base = self.kernel_cache.get("triangles")
        if base is None:
            base = self.kernel_cache["triangles"] = TriangleBase(self)
        return base


class UnipartiteGraph(EdgeGraph):
    """A weighted undirected graph ``G = (V, E)`` over one collection.

    Edges are three parallel numpy arrays (``u``, ``v``, ``weight``)
    with the canonical orientation ``u < v`` — self loops and duplicate
    edges are rejected, matching the (deduplicating) networkx
    prototype.  Like :class:`~repro.graph.bipartite.SimilarityGraph`,
    the edge arrays are immutable once :meth:`compiled` has run; derive
    new graphs instead of editing in place.
    """

    __slots__ = ("n_nodes", "u", "v")

    SIZES = ("n_nodes",)
    ENDS = ("u", "v")
    INCLUSIVE = True
    COMPILED = CompiledUnipartiteGraph

    def __init__(
        self,
        n_nodes: int,
        u: Sequence[int] | np.ndarray,
        v: Sequence[int] | np.ndarray,
        weight: Sequence[float] | np.ndarray,
        name: str = "",
        validate: bool = True,
    ) -> None:
        super().__init__((n_nodes,), u, v, weight, name, validate)

    def _check_ends(self) -> None:
        if self.u.min() < 0 or self.v.max() >= self.n_nodes:
            raise ValueError("edge endpoint out of range")
        if not bool((self.u < self.v).all()):
            raise ValueError(
                "edges must be canonical (u < v, no self loops)"
            )
        keys = self.u * np.int64(self.n_nodes) + self.v
        if len(np.unique(keys)) != len(keys):
            raise ValueError("duplicate edges are not allowed")

    @classmethod
    def from_edges(
        cls,
        n_nodes: int,
        edges: Iterable[tuple[int, int, float]],
        name: str = "",
    ) -> "UnipartiteGraph":
        """Build a graph from ``(u, v, weight)`` triples.

        Endpoints are canonicalized to ``u < v``; like ``nx.Graph``,
        a repeated edge overwrites the earlier weight (last write
        wins) and self loops are rejected.
        """
        canonical: dict[tuple[int, int], float] = {}
        for a, b, weight in edges:
            if a == b:
                raise ValueError(f"self loop on node {a}")
            key = (a, b) if a < b else (b, a)
            canonical[key] = float(weight)
        if canonical:
            u, v = zip(*canonical)
            weight = tuple(canonical.values())
        else:
            u, v, weight = (), (), ()
        return cls(n_nodes, u, v, weight, name=name)

    @property
    def density(self) -> float:
        """Fraction of the ``n * (n - 1) / 2`` pair space realised."""
        pairs = self.n_nodes * (self.n_nodes - 1) // 2
        if pairs == 0:
            return 0.0
        return self.n_edges / pairs


def pairs_to_unipartite_graph(
    n_nodes: int,
    u: np.ndarray,
    v: np.ndarray,
    values: np.ndarray,
    name: str = "",
    normalize: bool = True,
    metadata: dict | None = None,
) -> UnipartiteGraph:
    """Build a :class:`UnipartiteGraph` from scored self-join pairs.

    The self-join analogue of
    :func:`~repro.pipeline.graph_builder.pairs_to_graph`, through the
    same builder (:meth:`~repro.graph.core.EdgeGraph.from_scores`):
    only the strict upper triangle survives (``u < v`` — the diagonal
    is the trivial self similarity, and the lower triangle is the same
    pair seen from the other side, so asymmetric measures such as
    Monge-Elkan are read in ``u -> v`` direction), positive scores are
    kept, clipped to ``[0, 1]`` and min-max normalized.  Dense
    row-major pairs and blocked candidates sorted by ``(u, v)`` emit
    the same edge order, so blocked self-join graphs deduplicate and
    order edges exactly like their dense counterparts.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    return UnipartiteGraph.from_scores(
        (n_nodes,),
        u,
        v,
        values,
        keep=u < v,
        name=name,
        normalize=normalize,
        metadata=metadata,
    )
