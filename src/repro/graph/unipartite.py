"""The unipartite (Dirty-ER) similarity graph and its compiled form.

Dirty ER resolves duplicates *within* one collection, so its
similarity graph is not bipartite: nodes are ``0 .. n-1`` of a single
collection and an edge ``(u, v)`` (stored canonically with ``u < v``)
carries the similarity of two profiles of that collection.  Clusters
may hold any number of profiles, which is why the consumers of this
graph are the clustering algorithms of
:mod:`repro.extensions.dirty_er` rather than the bipartite matchers.

:class:`CompiledUnipartiteGraph` mirrors
:class:`repro.graph.compiled.CompiledGraph` exactly one layer down:

* one **descending-weight edge permutation** (ties by ascending
  ``(u, v)``), so "all edges at or above threshold ``t``" is a prefix
  slice located by one binary search through
  :func:`repro.graph.selection.prefix_length` — never a per-call mask;
* **symmetric CSR adjacency** (each edge appears under both
  endpoints), every node's run sorted by descending weight with ties
  by ascending neighbour;
* cached per-threshold :class:`UniEdgeSelection` views shared by all
  clustering algorithms of a sweep, plus a ``kernel_cache`` for
  threshold-level derived state (component labels, adjacency bitsets).

The Dirty-ER literature prunes with ``sim >= t`` (the networkx
prototype, now a test oracle, always did), so selections here default
to **inclusive** semantics — still resolved by
:mod:`repro.graph.selection`, never locally.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.graph.selection import prefix_length, selection_mask

__all__ = [
    "UnipartiteGraph",
    "CompiledUnipartiteGraph",
    "UniEdgeSelection",
    "pairs_to_unipartite_graph",
]


class UnipartiteGraph:
    """A weighted undirected graph ``G = (V, E)`` over one collection.

    Edges are three parallel numpy arrays (``u``, ``v``, ``weight``)
    with the canonical orientation ``u < v`` — self loops and duplicate
    edges are rejected, matching the (deduplicating) networkx
    prototype.  Like :class:`~repro.graph.bipartite.SimilarityGraph`,
    the edge arrays are immutable once :meth:`compiled` has run; derive
    new graphs instead of editing in place.
    """

    __slots__ = (
        "n_nodes",
        "u",
        "v",
        "weight",
        "name",
        "metadata",
        "_compiled",
    )

    def __init__(
        self,
        n_nodes: int,
        u: Sequence[int] | np.ndarray,
        v: Sequence[int] | np.ndarray,
        weight: Sequence[float] | np.ndarray,
        name: str = "",
        validate: bool = True,
    ) -> None:
        if n_nodes < 0:
            raise ValueError("node count must be non-negative")
        self.n_nodes = int(n_nodes)
        self.u = np.asarray(u, dtype=np.int64)
        self.v = np.asarray(v, dtype=np.int64)
        self.weight = np.asarray(weight, dtype=np.float64)
        self.name = name
        self.metadata: dict = {}
        self._compiled: "CompiledUnipartiteGraph | None" = None
        if validate:
            self._validate()

    def __getstate__(self):
        return (
            self.n_nodes,
            self.u,
            self.v,
            self.weight,
            self.name,
            self.metadata,
        )

    def __setstate__(self, state) -> None:
        (
            self.n_nodes,
            self.u,
            self.v,
            self.weight,
            self.name,
            self.metadata,
        ) = state
        self._compiled = None

    def _validate(self) -> None:
        if not (len(self.u) == len(self.v) == len(self.weight)):
            raise ValueError("edge arrays must have equal length")
        if len(self.u) == 0:
            return
        if self.u.min() < 0 or self.v.max() >= self.n_nodes:
            raise ValueError("edge endpoint out of range")
        if not bool((self.u < self.v).all()):
            raise ValueError(
                "edges must be canonical (u < v, no self loops)"
            )
        if np.isnan(self.weight).any():
            raise ValueError("edge weights contain NaN")
        if self.weight.min() < 0.0 or self.weight.max() > 1.0 + 1e-9:
            raise ValueError("edge weights must lie in [0, 1]")
        keys = self.u * np.int64(self.n_nodes) + self.v
        if len(np.unique(keys)) != len(keys):
            raise ValueError("duplicate edges are not allowed")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def n_edges(self) -> int:
        return int(len(self.weight))

    @property
    def density(self) -> float:
        """Fraction of the ``n * (n - 1) / 2`` pair space realised."""
        pairs = self.n_nodes * (self.n_nodes - 1) // 2
        if pairs == 0:
            return 0.0
        return self.n_edges / pairs

    def __len__(self) -> int:
        return self.n_edges

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" {self.name!r}" if self.name else ""
        return (
            f"UnipartiteGraph(n={self.n_nodes}, m={self.n_edges}{label})"
        )

    def edges(self) -> Iterator[tuple[int, int, float]]:
        for a, b, w in zip(self.u, self.v, self.weight):
            yield int(a), int(b), float(w)

    # ------------------------------------------------------------------
    # Compiled form
    # ------------------------------------------------------------------
    def compiled(self) -> "CompiledUnipartiteGraph":
        """The compiled form, built once and cached on the graph."""
        if self._compiled is None:
            self._compiled = CompiledUnipartiteGraph(self)
        return self._compiled

    def release_compiled(self) -> None:
        """Drop the cached compiled form (frees the derived arrays)."""
        self._compiled = None

    def prune(
        self, threshold: float, inclusive: bool = True
    ) -> "UnipartiteGraph":
        """A new graph keeping the edges selected at ``threshold``.

        Inclusive (``>=``) by default — the Dirty-ER convention; the
        comparison is resolved by
        :func:`repro.graph.selection.selection_mask`.
        """
        mask = selection_mask(self.weight, threshold, inclusive)
        pruned = UnipartiteGraph(
            self.n_nodes,
            self.u[mask],
            self.v[mask],
            self.weight[mask],
            name=self.name,
            validate=False,
        )
        pruned.metadata = dict(self.metadata)
        return pruned


class CompiledUnipartiteGraph:
    """Shared, immutable precomputation over one unipartite graph.

    Construction performs the two edge sorts (global descending and
    the symmetric CSR sort); per-threshold selections and clustering
    kernel state are computed on first use and cached.  Assumes the
    source graph's edge arrays are never mutated afterwards.
    """

    __slots__ = (
        "source",
        "n_nodes",
        "n_edges",
        "order",
        "u_sorted",
        "v_sorted",
        "weight_sorted",
        "weight_ascending",
        "indptr",
        "neighbors",
        "neighbor_weights",
        "kernel_cache",
        "_selections",
    )

    def __init__(self, graph: UnipartiteGraph) -> None:
        self.source = graph
        self.n_nodes = graph.n_nodes
        self.n_edges = graph.n_edges

        u, v, weight = graph.u, graph.v, graph.weight
        # Descending weight, ties by ascending (u, v); stable, so any
        # exact tie keeps the input order (inputs are duplicate-free).
        self.order = np.lexsort((v, u, -weight))
        self.u_sorted = u[self.order]
        self.v_sorted = v[self.order]
        self.weight_sorted = weight[self.order]
        self.weight_ascending = np.ascontiguousarray(self.weight_sorted[::-1])

        # Symmetric CSR: every edge appears under both endpoints, each
        # node's run sorted by (-weight, neighbour).
        endpoints = np.concatenate([u, v])
        others = np.concatenate([v, u])
        doubled = np.concatenate([weight, weight])
        csr_order = np.lexsort((others, -doubled, endpoints))
        self.indptr = self._indptr(endpoints[csr_order], self.n_nodes)
        self.neighbors = others[csr_order]
        self.neighbor_weights = doubled[csr_order]

        #: Scratch space for clustering kernels that cache
        #: threshold-level derived state (component labels, bitsets).
        self.kernel_cache: dict = {}
        self._selections: dict[tuple[float, bool], UniEdgeSelection] = {}

    @staticmethod
    def _indptr(sorted_nodes: np.ndarray, n: int) -> np.ndarray:
        indptr = np.zeros(n + 1, dtype=np.int64)
        if n:
            counts = np.bincount(sorted_nodes, minlength=n)
            np.cumsum(counts, out=indptr[1:])
        return indptr

    @property
    def name(self) -> str:
        return self.source.name

    @property
    def metadata(self) -> dict:
        return self.source.metadata

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledUnipartiteGraph(n={self.n_nodes}, m={self.n_edges})"
        )

    def select(
        self, threshold: float, inclusive: bool = True
    ) -> "UniEdgeSelection":
        """The cached edge selection at ``(threshold, inclusive)``.

        Inclusive (``>=``) by default, matching the Dirty-ER pruning
        convention; the count is one binary search through
        :func:`repro.graph.selection.prefix_length`.
        """
        key = (float(threshold), bool(inclusive))
        selection = self._selections.get(key)
        if selection is None:
            count = prefix_length(self.weight_ascending, threshold, inclusive)
            selection = UniEdgeSelection(self, key[0], key[1], count)
            self._selections[key] = selection
        return selection


class UniEdgeSelection:
    """The edges of one compiled unipartite graph above one threshold.

    The selected edges are the prefix ``[0:count)`` of the compiled
    descending-weight permutation.  Derived views are lazy and cached
    on the selection: the scipy CSR adjacency (for
    ``csgraph.connected_components`` and the GECG matmuls) and the
    per-node Python-int adjacency bitsets the clique kernels intersect.
    """

    __slots__ = (
        "compiled",
        "threshold",
        "inclusive",
        "count",
        "_sparse",
        "_bitsets",
        "_component_labels",
    )

    def __init__(
        self,
        compiled: CompiledUnipartiteGraph,
        threshold: float,
        inclusive: bool,
        count: int,
    ) -> None:
        self.compiled = compiled
        self.threshold = threshold
        self.inclusive = inclusive
        self.count = count
        self._sparse = None
        self._bitsets: list[int] | None = None
        self._component_labels: np.ndarray | None = None

    # -- selected edge arrays (descending weight) ----------------------
    @property
    def u(self) -> np.ndarray:
        return self.compiled.u_sorted[: self.count]

    @property
    def v(self) -> np.ndarray:
        return self.compiled.v_sorted[: self.count]

    @property
    def weight(self) -> np.ndarray:
        return self.compiled.weight_sorted[: self.count]

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        op = ">=" if self.inclusive else ">"
        return (
            f"UniEdgeSelection(w {op} {self.threshold}, {self.count} of "
            f"{self.compiled.n_edges} edges)"
        )

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
    :func:`~repro.pipeline.graph_builder.pairs_to_graph`: only the
    strict upper triangle survives (``u < v`` — the diagonal is the
    trivial self similarity, and the lower triangle is the same pair
    seen from the other side, so asymmetric measures such as
    Monge-Elkan are read in ``u -> v`` direction), positive scores are
    kept, clipped to ``[0, 1]`` and min-max normalized.  Dense
    row-major pairs and blocked candidates sorted by ``(u, v)`` emit
    the same edge order, so blocked self-join graphs deduplicate and
    order edges exactly like their dense counterparts.
    """
    from repro.graph.normalize import min_max_normalize_array

    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    keep = (u < v) & (values > 0.0)
    u, v, weights = u[keep], v[keep], np.clip(values[keep], 0.0, 1.0)
    if normalize and len(weights):
        weights = min_max_normalize_array(weights)
    graph = UnipartiteGraph(n_nodes, u, v, weights, name=name, validate=False)
    if metadata:
        graph.metadata = dict(metadata)
    return graph
