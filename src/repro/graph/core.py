"""The edge-graph core both similarity-graph kinds build on.

A similarity graph is two endpoint arrays and a weight array over
dense integer nodes, plus a name and provenance metadata.  The
bipartite :class:`~repro.graph.bipartite.SimilarityGraph` and the
Dirty-ER :class:`~repro.graph.unipartite.UnipartiteGraph` differ in
their attribute names, endpoint checks, CSR layout and one
convention, the default threshold comparison (strict ``>`` for
matching, inclusive ``>=`` for clustering).  This module writes the
rest once: :class:`EdgeGraph` (storage, shared checks, pickling,
derived graphs, the scored-pairs builder, the compiled cache),
:class:`CompiledEdgeGraph` (the descending-weight permutation and the
cached selections), :func:`csr` (the CSR build) and
:class:`PrefixSelection` (one selection).

Each kind declares its node-count and endpoint attribute names
(``SIZES``, ``ENDS``), its default comparison (``INCLUSIVE``) and its
compiled and selection classes; the kind-specific views
(``left_sorted``, ``u_sorted``, ``indptr`` ...) live on the
subclasses.  The comparison itself is resolved by
:mod:`repro.graph.selection`, never here.
"""

from __future__ import annotations

from typing import Iterator, TypeVar

import numpy as np

from repro.graph.normalize import min_max_normalize_array
from repro.graph.selection import prefix_length, selection_mask

__all__ = ["CompiledEdgeGraph", "EdgeGraph", "PrefixSelection", "csr"]

G = TypeVar("G", bound="EdgeGraph")


class EdgeGraph:
    """Weighted edges over dense integer nodes, in parallel arrays.

    Subclasses fix ``SIZES`` (the node-count attributes) and ``ENDS``
    (the two endpoint arrays), each in constructor order, so every
    kind is built as ``cls(*sizes, a, b, weight, name=..., validate=...)``;
    ``INCLUSIVE`` is the kind's default threshold comparison and
    ``COMPILED`` its compiled form.  The edge arrays are immutable
    once :meth:`compiled` has run: derive new graphs instead of
    editing in place.
    """

    __slots__ = ("weight", "name", "metadata", "_compiled")

    SIZES: tuple[str, ...]
    ENDS: tuple[str, str]
    INCLUSIVE: bool
    COMPILED: type["CompiledEdgeGraph"]

    def __init__(
        self, sizes, a, b, weight, name: str, validate: bool
    ) -> None:
        if min(sizes) < 0:
            raise ValueError("node counts must be non-negative")
        for attr, n in zip(self.SIZES, sizes):
            setattr(self, attr, int(n))
        for attr, ends in zip(self.ENDS, (a, b)):
            setattr(self, attr, np.asarray(ends, dtype=np.int64))
        self.weight = np.asarray(weight, dtype=np.float64)
        self.name = name
        self.metadata: dict = {}
        self._compiled: CompiledEdgeGraph | None = None
        if validate:
            self._validate()

    @classmethod
    def from_scores(
        cls: type[G],
        sizes: tuple[int, ...],
        a: np.ndarray,
        b: np.ndarray,
        values: np.ndarray,
        keep: np.ndarray | None = None,
        name: str = "",
        normalize: bool = True,
        metadata: dict | None = None,
    ) -> G:
        """The graph of scored pairs, built once.

        Pairs scoring at or below zero are dropped (as is any pair
        ``keep`` rules out), the retained scores are clipped to
        ``[0, 1]`` and, with ``normalize``, min-max normalized over
        the retained edges — the paper's rule for every graph.
        """
        values = np.asarray(values, dtype=np.float64)
        positive = values > 0.0
        keep = positive if keep is None else keep & positive
        weights = np.clip(values[keep], 0.0, 1.0)
        if normalize:
            weights = min_max_normalize_array(weights)
        graph = cls(
            *sizes,
            np.asarray(a)[keep],
            np.asarray(b)[keep],
            weights,
            name=name,
            validate=False,
        )
        if metadata:
            graph.metadata = dict(metadata)
        return graph

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------
    @property
    def sizes(self) -> tuple[int, ...]:
        """The node counts, in constructor order."""
        return tuple(getattr(self, attr) for attr in self.SIZES)

    def ends(self) -> tuple[np.ndarray, np.ndarray]:
        """The two endpoint arrays, in constructor order."""
        return getattr(self, self.ENDS[0]), getattr(self, self.ENDS[1])

    def _validate(self) -> None:
        a, b = self.ends()
        if not (len(a) == len(b) == len(self.weight)):
            raise ValueError("edge arrays must have equal length")
        if len(a) == 0:
            return
        self._check_ends()
        if np.isnan(self.weight).any():
            raise ValueError("edge weights contain NaN")
        if self.weight.min() < 0.0 or self.weight.max() > 1.0 + 1e-9:
            raise ValueError("edge weights must lie in [0, 1]")

    def _check_ends(self) -> None:
        """Raise unless the (non-empty) endpoint arrays are valid."""
        raise NotImplementedError

    # Pickling drops the compiled cache; workers rebuild it locally.
    def __getstate__(self):
        return (
            *self.sizes, *self.ends(), self.weight, self.name, self.metadata
        )

    def __setstate__(self, state) -> None:
        *sizes, a, b, weight, name, metadata = state
        EdgeGraph.__init__(self, sizes, a, b, weight, name, False)
        self.metadata = metadata

    @property
    def n_edges(self) -> int:
        """Number of edges ``m = |E|``."""
        return int(len(self.weight))

    def __len__(self) -> int:
        return self.n_edges

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" {self.name!r}" if self.name else ""
        shape = "x".join(map(str, self.sizes))
        return f"{type(self).__name__}({shape}, m={self.n_edges}{label})"

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate over edges as ``(a, b, weight)`` triples."""
        a, b = self.ends()
        for i, j, w in zip(a, b, self.weight):
            yield int(i), int(j), float(w)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def with_edges(self: G, a, b, weight) -> G:
        """A graph of this kind over the same nodes, name and metadata
        (copied) holding the given edges, unvalidated."""
        graph = type(self)(
            *self.sizes, a, b, weight, name=self.name, validate=False
        )
        graph.metadata = dict(self.metadata)
        return graph

    def subgraph_by_edge_indices(self: G, indices: np.ndarray) -> G:
        """Return a graph restricted to the given edge indices (or
        boolean edge mask), in their order."""
        a, b = self.ends()
        return self.with_edges(a[indices], b[indices], self.weight[indices])

    def prune(
        self: G, threshold: float, inclusive: bool | None = None
    ) -> G:
        """Return a new graph keeping the edges selected at ``threshold``.

        ``inclusive`` defaults to the kind's convention: strict
        (``weight > threshold``) for bipartite matching — most of the
        paper's pseudocode discards "all edges with a weight lower
        than the similarity threshold" with ``sim > t`` — and
        inclusive (``>=``) for Dirty-ER clustering.  The comparison
        is resolved by :func:`repro.graph.selection.selection_mask`,
        the same helper the compiled prefix slicing uses.
        """
        if inclusive is None:
            inclusive = self.INCLUSIVE
        mask = selection_mask(self.weight, threshold, inclusive)
        return self.subgraph_by_edge_indices(mask)

    # ------------------------------------------------------------------
    # Compiled form
    # ------------------------------------------------------------------
    def compiled(self) -> "CompiledEdgeGraph":
        """The compiled form (sorted edge permutation, CSR adjacency,
        cached threshold selections), built once and cached.

        Every artifact that used to be rebuilt per ``match`` or
        ``cluster`` call lives on the compiled graph, so all
        algorithms and all thresholds of a sweep share one copy.
        """
        if self._compiled is None:
            self._compiled = self.COMPILED(self)
        return self._compiled

    def release_compiled(self) -> None:
        """Drop the cached compiled form.

        The compiled form and its cached selections reference each
        other; clearing the selections first lets reference counting
        free the derived arrays as soon as no caller holds the
        compiled form, instead of at the next cyclic collection.
        """
        compiled, self._compiled = self._compiled, None
        if compiled is not None:
            compiled._selections.clear()


def _indptr(nodes: np.ndarray, n: int) -> np.ndarray:
    """CSR row pointers of ``n`` nodes, given each entry's node."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    if n:
        np.cumsum(np.bincount(nodes, minlength=n), out=indptr[1:])
    return indptr


def csr(
    nodes: np.ndarray, neighbours: np.ndarray, weights: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR adjacency ``(indptr, neighbours, weights)`` over ``n`` nodes.

    Sorting the entries by ``(node, -weight, neighbour)`` makes each
    node's run descend by weight with ties by ascending neighbour —
    the order of the legacy per-node adjacency lists, and the order
    in which a threshold selection is a prefix of every run.
    """
    order = np.lexsort((neighbours, -weights, nodes))
    return _indptr(nodes, n), neighbours[order], weights[order]


class CompiledEdgeGraph:
    """Shared, immutable precomputation over one edge graph.

    Construction sorts the edges once by descending weight, ties by
    ascending ``(a, b)`` endpoints — stable on full ties, so duplicate
    edges keep their input order — so "all edges above ``t``" is the
    prefix located by one binary search through
    :func:`repro.graph.selection.prefix_length`.  Subclasses add the
    sorted endpoint arrays and their CSR adjacency; per-threshold
    selections and kernel state are computed on first use and cached.
    Assumes the source graph's edge arrays are never mutated
    afterwards (the in-place mutators of :mod:`repro.graph.incremental`
    keep every array consistent themselves).
    """

    __slots__ = (
        "source",
        "n_edges",
        "order",
        "weight_sorted",
        "weight_ascending",
        "kernel_cache",
        "_selections",
    )

    SELECTION: type["PrefixSelection"]

    def __init__(self, graph: EdgeGraph) -> None:
        self.source = graph
        self.n_edges = graph.n_edges
        a, b = graph.ends()
        self.order = np.lexsort((b, a, -graph.weight))
        self.weight_sorted = graph.weight[self.order]
        self.weight_ascending = np.ascontiguousarray(self.weight_sorted[::-1])
        #: Scratch space for matcher and clustering kernels that cache
        #: derived state (RCA's assignment passes, component labels).
        self.kernel_cache: dict = {}
        self._selections: dict[tuple[float, bool], PrefixSelection] = {}

    @property
    def name(self) -> str:
        return self.source.name

    @property
    def metadata(self) -> dict:
        return self.source.metadata

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shape = "x".join(map(str, self.source.sizes))
        return f"{type(self).__name__}({shape}, m={self.n_edges})"

    def select(
        self, threshold: float, inclusive: bool | None = None
    ) -> "PrefixSelection":
        """The cached edge selection at ``(threshold, inclusive)``.

        The compiled counterpart of :meth:`EdgeGraph.prune`, with the
        same default comparison: the selected edges are the first
        ``k`` of the descending-weight permutation, found by one
        binary search through :func:`repro.graph.selection.prefix_length`.
        """
        if inclusive is None:
            inclusive = self.source.INCLUSIVE
        key = (float(threshold), bool(inclusive))
        selection = self._selections.get(key)
        if selection is None:
            count = prefix_length(self.weight_ascending, threshold, inclusive)
            selection = self.SELECTION(self, key[0], key[1], count)
            self._selections[key] = selection
        return selection


class PrefixSelection:
    """The edges of one compiled graph at one threshold.

    The selected edges are the prefix ``[0:count)`` of the compiled
    descending-weight permutation.  Subclasses name the selected
    endpoint arrays and list their lazily derived views in ``VIEWS``;
    :meth:`drop_views` resets them when an in-place update moves
    ``count``.
    """

    __slots__ = ("compiled", "threshold", "inclusive", "count")

    VIEWS: tuple[str, ...] = ()

    def __init__(
        self,
        compiled: CompiledEdgeGraph,
        threshold: float,
        inclusive: bool,
        count: int,
    ) -> None:
        self.compiled = compiled
        self.threshold = threshold
        self.inclusive = inclusive
        self.count = count
        self.drop_views()

    def drop_views(self) -> None:
        """Forget every lazily derived view of the selection."""
        for attr in self.VIEWS:
            setattr(self, attr, None)

    @property
    def weight(self) -> np.ndarray:
        return self.compiled.weight_sorted[: self.count]

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        op = ">=" if self.inclusive else ">"
        return (
            f"{type(self).__name__}(w {op} {self.threshold}, {self.count}"
            f" of {self.compiled.n_edges} edges)"
        )
