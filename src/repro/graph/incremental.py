"""Incremental updates for the compiled unipartite graph.

The compiled form (:class:`~repro.graph.unipartite.CompiledUnipartiteGraph`)
was rebuild-only: one new record invalidated every sort, CSR run and
cached threshold selection.  This module makes it *updatable* — the
substrate of the streaming layer (:mod:`repro.pipeline.streaming`).

Three rules govern every mutation:

* **Delta merge, never re-sort.**  An insert sorts only the delta
  (``O(d log d)``) and merges it into the descending-weight edge
  permutation and into the symmetric CSR by one structured-key
  ``searchsorted`` plus one ``np.insert`` (``O(m + d log m)`` — a
  memmove, not an ``O(m log m)`` sort).  Deletes mirror the same
  positions with ``np.delete``.  Because the sort keys are total
  (``(-weight, endpoints)``), the merged arrays are **bit-identical
  to a fresh compile** of the updated edge set — the property
  ``tests/graph/test_incremental.py`` proves by hypothesis.
* **Source stays consistent.**  The mutators patch the source
  graph's edge arrays (append on insert, delete on delete) and the
  ``order`` permutation alongside, so provenance stays exact
  mid-stream.
* **Selections invalidate only when crossed.**  A cached
  :class:`~repro.graph.unipartite.UniEdgeSelection` is a prefix view
  of the descending permutation; a delta edge strictly below its
  threshold lands *after* the prefix and leaves the view untouched.
  Only selections whose threshold the delta crosses update their
  ``count`` (by the delta's own prefix length — no re-search) and
  drop their lazy caches.

The mutators additionally maintain the cached GECG triangle-incidence
base (``kernel_cache["gecg_base"]``) in place: new triangles are
enumerated only around the delta edges, old triangle edge-indices are
remapped by rank, and the derived edge-to-incidence index
(``"gecg_entries"``) is dropped for lazy rebuild.  Every other
``kernel_cache`` entry is threshold-level derived state and is
cleared.
"""

from __future__ import annotations

import numpy as np

from repro.graph.selection import prefix_length
from repro.graph.unipartite import CompiledUnipartiteGraph

__all__ = ["add_uni_nodes", "delete_uni_edges", "insert_uni_edges"]

_EDGE_KEY = np.dtype(
    [("w", np.float64), ("a", np.int64), ("b", np.int64)]
)


def _edge_keys(weight: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Structured total-order keys for ``(-weight, a, b)`` sorting."""
    keys = np.empty(len(weight), dtype=_EDGE_KEY)
    keys["w"] = -weight
    keys["a"] = a
    keys["b"] = b
    return keys


_CSR_KEY = np.dtype(
    [("n", np.int64), ("w", np.float64), ("b", np.int64)]
)


def _csr_key_values(
    nodes: np.ndarray, weights: np.ndarray, neighbors: np.ndarray
):
    keys = np.empty(len(nodes), dtype=_CSR_KEY)
    keys["n"] = nodes
    keys["w"] = -weights
    keys["b"] = neighbors
    return keys


def _csr_keys(
    indptr: np.ndarray, weights: np.ndarray, neighbors: np.ndarray
):
    """Structured keys of a CSR laid out ``(node, -weight, neighbour)``."""
    nodes = np.repeat(
        np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr)
    )
    return _csr_key_values(nodes, weights, neighbors), nodes


def _as_delta(
    a, b, weight
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    a = np.atleast_1d(np.asarray(a, dtype=np.int64))
    b = np.atleast_1d(np.asarray(b, dtype=np.int64))
    weight = np.atleast_1d(np.asarray(weight, dtype=np.float64))
    if not (len(a) == len(b) == len(weight)):
        raise ValueError("delta edge arrays must have equal length")
    if len(weight):
        if np.isnan(weight).any():
            raise ValueError("delta weights contain NaN")
        if weight.min() < 0.0 or weight.max() > 1.0 + 1e-9:
            raise ValueError("delta weights must lie in [0, 1]")
    return a, b, weight


def _csr_insert(
    indptr: np.ndarray,
    neighbors: np.ndarray,
    weights: np.ndarray,
    d_node: np.ndarray,
    d_nbr: np.ndarray,
    d_w: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge delta entries into one CSR side, preserving the
    ``(node, -weight, neighbour)`` run order."""
    order = np.lexsort((d_nbr, -d_w, d_node))
    d_node, d_nbr, d_w = d_node[order], d_nbr[order], d_w[order]
    keys, _ = _csr_keys(indptr, weights, neighbors)
    positions = np.searchsorted(
        keys, _csr_key_values(d_node, d_w, d_nbr), side="right"
    )
    new_neighbors = np.insert(neighbors, positions, d_nbr)
    new_weights = np.insert(weights, positions, d_w)
    new_indptr = indptr.copy()
    new_indptr[1:] += np.cumsum(
        np.bincount(d_node, minlength=len(indptr) - 1)
    )
    return new_indptr, new_neighbors, new_weights


def _csr_delete(
    indptr: np.ndarray,
    neighbors: np.ndarray,
    weights: np.ndarray,
    d_node: np.ndarray,
    d_nbr: np.ndarray,
    d_w: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    keys, _ = _csr_keys(indptr, weights, neighbors)
    positions = np.searchsorted(
        keys, _csr_key_values(d_node, d_w, d_nbr), side="left"
    )
    if (
        positions.max(initial=-1) >= len(neighbors)
        or not np.array_equal(neighbors[positions], d_nbr)
        or not np.array_equal(weights[positions], d_w)
    ):
        raise ValueError("edge to delete not present in CSR")
    new_neighbors = np.delete(neighbors, positions)
    new_weights = np.delete(weights, positions)
    new_indptr = indptr.copy()
    new_indptr[1:] -= np.cumsum(
        np.bincount(d_node, minlength=len(indptr) - 1)
    )
    return new_indptr, new_neighbors, new_weights


def _insert_sorted(compiled: CompiledUnipartiteGraph, d_u, d_v, d_w):
    """Merge a canonical delta into the descending-weight edge
    permutation and append it to the source graph, in place.

    ``order`` is patched so provenance indices stay exact.  Returns the
    delta's weights in descending order for the selection update.
    """
    graph = compiled.source
    order = np.lexsort((d_v, d_u, -d_w))
    su, sv, sw = d_u[order], d_v[order], d_w[order]
    keys = _edge_keys(
        compiled.weight_sorted, compiled.u_sorted, compiled.v_sorted
    )
    positions = np.searchsorted(keys, _edge_keys(sw, su, sv), side="right")
    compiled.u_sorted = np.insert(compiled.u_sorted, positions, su)
    compiled.v_sorted = np.insert(compiled.v_sorted, positions, sv)
    compiled.weight_sorted = np.insert(
        compiled.weight_sorted, positions, sw
    )
    compiled.weight_ascending = np.ascontiguousarray(
        compiled.weight_sorted[::-1]
    )
    compiled.order = np.insert(
        compiled.order, positions, graph.n_edges + order
    )
    graph.u = np.concatenate([graph.u, d_u])
    graph.v = np.concatenate([graph.v, d_v])
    graph.weight = np.concatenate([graph.weight, d_w])
    compiled.n_edges = graph.n_edges
    return sw


def _delete_sorted(compiled: CompiledUnipartiteGraph, d_u, d_v, d_w):
    """Remove a canonical delta from the descending-weight edge
    permutation and from the source graph, in place.

    The inverse of :func:`_insert_sorted`: surviving provenance
    indices shift down by the number of deleted source rows below
    them.  Returns the delta sorted like the permutation,
    ``(u, v, weight)``, for the CSR and selection updates.
    """
    graph = compiled.source
    order = np.lexsort((d_v, d_u, -d_w))
    su, sv, sw = d_u[order], d_v[order], d_w[order]
    old_u, old_v = compiled.u_sorted, compiled.v_sorted
    positions = np.searchsorted(
        _edge_keys(compiled.weight_sorted, old_u, old_v),
        _edge_keys(sw, su, sv),
        side="left",
    )
    if (
        positions.max(initial=-1) >= compiled.n_edges
        or not np.array_equal(old_u[positions], su)
        or not np.array_equal(old_v[positions], sv)
        or not np.array_equal(compiled.weight_sorted[positions], sw)
    ):
        raise ValueError("edge to delete not present in graph")
    removed = np.sort(compiled.order[positions])

    compiled.u_sorted = np.delete(old_u, positions)
    compiled.v_sorted = np.delete(old_v, positions)
    compiled.weight_sorted = np.delete(compiled.weight_sorted, positions)
    compiled.weight_ascending = np.ascontiguousarray(
        compiled.weight_sorted[::-1]
    )
    kept = np.delete(compiled.order, positions)
    compiled.order = kept - np.searchsorted(removed, kept, side="left")

    graph.u = np.delete(graph.u, removed)
    graph.v = np.delete(graph.v, removed)
    graph.weight = np.delete(graph.weight, removed)
    compiled.n_edges = graph.n_edges
    return su, sv, sw


def _csr_weights(
    indptr: np.ndarray,
    neighbors: np.ndarray,
    weights: np.ndarray,
    nodes: np.ndarray,
    nbrs: np.ndarray,
) -> np.ndarray:
    """Look up each ``(node, neighbour)`` edge's weight via the node's
    CSR run (a repeated pair resolves to its highest weight first)."""
    out = np.empty(len(nodes), dtype=np.float64)
    for k, (node, nbr) in enumerate(zip(nodes.tolist(), nbrs.tolist())):
        start, stop = indptr[node], indptr[node + 1]
        hits = np.nonzero(neighbors[start:stop] == nbr)[0]
        if len(hits) == 0:
            raise ValueError(f"edge ({node}, {nbr}) not in graph")
        out[k] = weights[start + hits[0]]
    return out


def _delta_prefix(weights_desc: np.ndarray, threshold: float,
                  inclusive: bool) -> int:
    """How many delta edges a ``(threshold, inclusive)`` view admits."""
    ascending = np.ascontiguousarray(weights_desc[::-1])
    return prefix_length(ascending, threshold, inclusive)


#: The lazy per-threshold caches of a ``UniEdgeSelection``.
_SELECTION_LAZY = ("_sparse", "_bitsets", "_component_labels")


def _update_selections(
    selections: dict, weights_desc: np.ndarray, sign: int
) -> None:
    """Patch cached selections in place: counts move by the delta's own
    prefix length; lazy caches drop only when the delta crossed."""
    for (threshold, inclusive), selection in selections.items():
        passing = _delta_prefix(weights_desc, threshold, inclusive)
        if passing:
            selection.count += sign * passing
            for name in _SELECTION_LAZY:
                setattr(selection, name, None)


def _canonical_uni_delta(u, v, weight):
    d_u, d_v, d_w = _as_delta(u, v, weight)
    lo = np.minimum(d_u, d_v)
    hi = np.maximum(d_u, d_v)
    if len(lo) and bool((lo == hi).any()):
        raise ValueError("self loops are not allowed")
    return lo, hi, d_w


def _uni_edge_exists(
    compiled: CompiledUnipartiteGraph, u: int, v: int
) -> bool:
    start, stop = compiled.indptr[u], compiled.indptr[u + 1]
    return bool((compiled.neighbors[start:stop] == v).any())


def insert_uni_edges(
    compiled: CompiledUnipartiteGraph, u, v, weight
) -> None:
    """Insert edges into a compiled unipartite graph, in place.

    Endpoints are canonicalized to ``u < v``; duplicates of existing
    edges are rejected (the graph's invariant).  The delta merges into
    the descending-weight permutation and the symmetric CSR, cached
    selections move by their crossing counts, and a cached GECG
    triangle base is maintained incrementally — never re-enumerated.
    """
    d_u, d_v, d_w = _canonical_uni_delta(u, v, weight)
    if len(d_u) == 0:
        return
    if d_u.min() < 0 or d_v.max() >= compiled.n_nodes:
        raise ValueError("delta endpoint out of range")
    for a, b in zip(d_u.tolist(), d_v.tolist()):
        if _uni_edge_exists(compiled, a, b):
            raise ValueError(f"edge ({a}, {b}) already in graph")
    keys = d_u * np.int64(max(compiled.n_nodes, 1)) + d_v
    if len(np.unique(keys)) != len(keys):
        raise ValueError("duplicate edges in delta")

    sw = _insert_sorted(compiled, d_u, d_v, d_w)
    # Symmetric CSR: every delta edge lands under both endpoints.
    compiled.indptr, compiled.neighbors, compiled.neighbor_weights = (
        _csr_insert(
            compiled.indptr,
            compiled.neighbors,
            compiled.neighbor_weights,
            np.concatenate([d_u, d_v]),
            np.concatenate([d_v, d_u]),
            np.concatenate([d_w, d_w]),
        )
    )
    _update_selections(compiled._selections, sw, +1)
    _patch_gecg_base(compiled, d_u, d_v, d_w, inserted=True)


def delete_uni_edges(
    compiled: CompiledUnipartiteGraph, u, v, weight=None
) -> None:
    """Delete edges from a compiled unipartite graph, in place."""
    if weight is None:
        raw_u = np.atleast_1d(np.asarray(u, dtype=np.int64))
        raw_v = np.atleast_1d(np.asarray(v, dtype=np.int64))
        d_u = np.minimum(raw_u, raw_v)
        d_v = np.maximum(raw_u, raw_v)
        d_w = _csr_weights(
            compiled.indptr, compiled.neighbors, compiled.neighbor_weights,
            d_u, d_v,
        )
    else:
        d_u, d_v, d_w = _canonical_uni_delta(u, v, weight)
    if len(d_u) == 0:
        return
    pair_keys = d_u * np.int64(max(compiled.n_nodes, 1)) + d_v
    if len(np.unique(pair_keys)) != len(pair_keys):
        raise ValueError("duplicate edges in delete delta")
    su, sv, sw = _delete_sorted(compiled, d_u, d_v, d_w)
    compiled.indptr, compiled.neighbors, compiled.neighbor_weights = (
        _csr_delete(
            compiled.indptr,
            compiled.neighbors,
            compiled.neighbor_weights,
            np.concatenate([su, sv]),
            np.concatenate([sv, su]),
            np.concatenate([sw, sw]),
        )
    )
    _update_selections(compiled._selections, sw, -1)
    _patch_gecg_base(compiled, d_u, d_v, d_w, inserted=False)


def add_uni_nodes(compiled: CompiledUnipartiteGraph, count: int) -> None:
    """Grow the node set by ``count`` isolated nodes, in place.

    Cached selection counts stay valid (isolated nodes admit no edges),
    but their node-count-shaped lazy views must re-derive.
    """
    if count < 0:
        raise ValueError("node count must be non-negative")
    compiled.n_nodes += count
    compiled.source.n_nodes += count
    compiled.indptr = np.concatenate(
        [
            compiled.indptr,
            np.full(count, compiled.indptr[-1], dtype=compiled.indptr.dtype),
        ]
    )
    for selection in compiled._selections.values():
        for name in _SELECTION_LAZY:
            setattr(selection, name, None)
    # The triangle base is edge-indexed and survives node growth;
    # everything else in the kernel cache is cleared defensively.
    base = compiled.kernel_cache.pop("gecg_base", None)
    compiled.kernel_cache.clear()
    if base is not None:
        compiled.kernel_cache["gecg_base"] = base


# ======================================================================
# GECG triangle-base maintenance
# ======================================================================
def _patch_gecg_base(
    compiled: CompiledUnipartiteGraph,
    d_u: np.ndarray,
    d_v: np.ndarray,
    d_w: np.ndarray,
    inserted: bool,
) -> None:
    """Keep ``kernel_cache['gecg_base']`` exact across a delta.

    The base holds every triangle of the graph as three parallel
    edge-index arrays over the canonical ascending ``(u, v)`` edge
    order.  An insert shifts old indices by their rank among the
    delta's insertion points and enumerates *only* the triangles
    containing a delta edge (common CSR neighbours of its endpoints);
    a delete drops the incidences touching a removed edge and shifts
    the survivors down.  Gains are integer triangle counts, so the
    patched base reproduces the from-scratch enumeration exactly.
    All other kernel-cache entries are threshold-level state and are
    cleared; the derived edge-to-incidence index rebuilds lazily.
    """
    base = compiled.kernel_cache.get("gecg_base")
    compiled.kernel_cache.clear()
    if base is None:
        return
    edge_u, edge_v, weights, edges_at, other_a, other_b = base

    # Ascending-(u, v) delta order and its positions among the edges.
    order = np.lexsort((d_v, d_u))
    su, sv, sw = d_u[order], d_v[order], d_w[order]
    existing = _edge_keys(
        np.zeros(len(edge_u)), edge_u, edge_v
    )
    delta_keys = _edge_keys(np.zeros(len(su)), su, sv)

    if inserted:
        positions = np.searchsorted(existing, delta_keys, side="left")
        shift = np.searchsorted(positions, edges_at, side="right")
        edges_at = edges_at + shift
        other_a = other_a + np.searchsorted(
            positions, other_a, side="right"
        )
        other_b = other_b + np.searchsorted(
            positions, other_b, side="right"
        )
        edge_u = np.insert(edge_u, positions, su)
        edge_v = np.insert(edge_v, positions, sv)
        weights = np.insert(weights, positions, sw)

        triangles: set[tuple[int, int, int]] = set()
        for a, b in zip(su.tolist(), sv.tolist()):
            common = np.intersect1d(
                _uni_neighbors(compiled, a), _uni_neighbors(compiled, b)
            )
            for w in common.tolist():
                triangles.add(tuple(sorted((a, b, w))))
        if triangles:
            triples = sorted(triangles)
            lookup = _edge_keys(
                np.zeros(len(edge_u)), edge_u, edge_v
            )
            e1 = _find_edges(lookup, [(x, y) for x, y, _ in triples])
            e2 = _find_edges(lookup, [(x, z) for x, _, z in triples])
            e3 = _find_edges(lookup, [(y, z) for _, y, z in triples])
            edges_at = np.concatenate([edges_at, e1, e2, e3])
            other_a = np.concatenate([other_a, e2, e1, e1])
            other_b = np.concatenate([other_b, e3, e3, e2])
    else:
        positions = np.searchsorted(existing, delta_keys, side="left")
        gone = np.zeros(len(edge_u), dtype=bool)
        gone[positions] = True
        keep = ~(gone[edges_at] | gone[other_a] | gone[other_b])
        edges_at = edges_at[keep]
        other_a = other_a[keep]
        other_b = other_b[keep]
        edges_at = edges_at - np.searchsorted(
            positions, edges_at, side="left"
        )
        other_a = other_a - np.searchsorted(
            positions, other_a, side="left"
        )
        other_b = other_b - np.searchsorted(
            positions, other_b, side="left"
        )
        edge_u = np.delete(edge_u, positions)
        edge_v = np.delete(edge_v, positions)
        weights = np.delete(weights, positions)

    compiled.kernel_cache["gecg_base"] = (
        edge_u, edge_v, weights, edges_at, other_a, other_b
    )


def _uni_neighbors(
    compiled: CompiledUnipartiteGraph, node: int
) -> np.ndarray:
    start, stop = compiled.indptr[node], compiled.indptr[node + 1]
    return compiled.neighbors[start:stop]


def _find_edges(lookup, pairs) -> np.ndarray:
    a = np.asarray([p[0] for p in pairs], dtype=np.int64)
    b = np.asarray([p[1] for p in pairs], dtype=np.int64)
    query = _edge_keys(np.zeros(len(a)), a, b)
    found = np.searchsorted(lookup, query, side="left")
    return found
