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

The mutators additionally patch the cached GECG triangle base
(:class:`~repro.graph.unipartite.TriangleBase`, the ``"triangles"``
entry of ``kernel_cache``) in place: an insert shifts the stored edge
positions past the delta's insertion points and appends the triangles
through the delta edges (:meth:`~repro.graph.unipartite.TriangleBase.through`
seeded with them), a delete drops the triangles holding a deleted edge
and shifts the survivors down, and node growth leaves it as it is.
Every other ``kernel_cache`` entry is threshold-level derived state
and is cleared.
"""

from __future__ import annotations

import numpy as np

from repro.graph.selection import check_non_negative_int, prefix_length
from repro.graph.unipartite import CompiledUnipartiteGraph, pair_keys

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


def _edge_positions(
    compiled: CompiledUnipartiteGraph, d_u: np.ndarray, d_v: np.ndarray
) -> np.ndarray:
    """Each canonical delta edge's position in the descending edge
    order, or -1 where the graph lacks it.

    One stable argsort of the compiled edges' :func:`pair_keys` and one
    ``searchsorted`` of the delta's; a repeated pair resolves to its
    highest-weight copy, the first in descending order.
    """
    keys = pair_keys(compiled.u_sorted, compiled.v_sorted)
    wanted = pair_keys(d_u, d_v)
    positions = np.full(len(wanted), -1, dtype=np.intp)
    if len(keys):
        order = np.argsort(keys, kind="stable")
        slots = np.searchsorted(keys, wanted, sorter=order)
        slots = order[np.minimum(slots, len(keys) - 1)]
        found = keys[slots] == wanted
        positions[found] = slots[found]
    return positions


def _delta_prefix(weights_desc: np.ndarray, threshold: float,
                  inclusive: bool) -> int:
    """How many delta edges a ``(threshold, inclusive)`` view admits."""
    ascending = np.ascontiguousarray(weights_desc[::-1])
    return prefix_length(ascending, threshold, inclusive)


def _update_selections(
    selections: dict, weights_desc: np.ndarray, sign: int
) -> None:
    """Patch cached selections in place: counts move by the delta's own
    prefix length; lazy caches drop only when the delta crossed."""
    for (threshold, inclusive), selection in selections.items():
        passing = _delta_prefix(weights_desc, threshold, inclusive)
        if passing:
            selection.count += sign * passing
            selection.drop_views()


def _canonical_uni_delta(u, v, weight):
    d_u, d_v, d_w = _as_delta(u, v, weight)
    lo = np.minimum(d_u, d_v)
    hi = np.maximum(d_u, d_v)
    if len(lo) and bool((lo == hi).any()):
        raise ValueError("self loops are not allowed")
    return lo, hi, d_w


def _check_endpoints(compiled: CompiledUnipartiteGraph, d_u, d_v) -> None:
    if d_u.min() < 0 or d_v.max() >= compiled.n_nodes:
        raise ValueError("delta endpoint out of range")


def insert_uni_edges(
    compiled: CompiledUnipartiteGraph, u, v, weight
) -> None:
    """Insert edges into a compiled unipartite graph, in place.

    Endpoints are canonicalized to ``u < v``; duplicates of existing
    edges are rejected (the graph's invariant).  The delta merges into
    the descending-weight permutation and the symmetric CSR, cached
    selections move by their crossing counts, and a cached GECG
    triangle base is patched — never re-enumerated.
    """
    d_u, d_v, d_w = _canonical_uni_delta(u, v, weight)
    if len(d_u) == 0:
        return
    _check_endpoints(compiled, d_u, d_v)
    present = np.flatnonzero(_edge_positions(compiled, d_u, d_v) >= 0)
    if len(present):
        k = present[0]
        raise ValueError(f"edge ({d_u[k]}, {d_v[k]}) already in graph")
    keys = pair_keys(d_u, d_v)
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
    _patch_triangles(compiled, d_u, d_v, d_w, inserted=True)


def delete_uni_edges(
    compiled: CompiledUnipartiteGraph, u, v, weight=None
) -> None:
    """Delete edges from a compiled unipartite graph, in place."""
    if weight is None:
        raw_u = np.atleast_1d(np.asarray(u, dtype=np.int64))
        raw_v = np.atleast_1d(np.asarray(v, dtype=np.int64))
        d_u = np.minimum(raw_u, raw_v)
        d_v = np.maximum(raw_u, raw_v)
    else:
        d_u, d_v, d_w = _canonical_uni_delta(u, v, weight)
    if len(d_u) == 0:
        return
    _check_endpoints(compiled, d_u, d_v)
    if weight is None:
        positions = _edge_positions(compiled, d_u, d_v)
        missing = np.flatnonzero(positions < 0)
        if len(missing):
            k = missing[0]
            raise ValueError(f"edge ({d_u[k]}, {d_v[k]}) not in graph")
        d_w = compiled.weight_sorted[positions]
    keys = pair_keys(d_u, d_v)
    if len(np.unique(keys)) != len(keys):
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
    _patch_triangles(compiled, d_u, d_v, d_w, inserted=False)


def add_uni_nodes(compiled: CompiledUnipartiteGraph, count: int) -> None:
    """Grow the node set by ``count`` isolated nodes, in place.

    Cached selection counts stay valid (isolated nodes admit no edges),
    but their node-count-shaped lazy views must re-derive.
    """
    count = check_non_negative_int("node count", count)
    compiled.n_nodes += count
    compiled.source.n_nodes += count
    compiled.indptr = np.concatenate(
        [
            compiled.indptr,
            np.full(count, compiled.indptr[-1], dtype=compiled.indptr.dtype),
        ]
    )
    for selection in compiled._selections.values():
        selection.drop_views()
    # The triangle base is edge-indexed and survives node growth.
    _clear_kernel_cache(compiled)


# ======================================================================
# GECG triangle-base maintenance
# ======================================================================
def _clear_kernel_cache(compiled: CompiledUnipartiteGraph):
    """Clear ``kernel_cache`` but for the triangle base, returned."""
    base = compiled.kernel_cache.pop("triangles", None)
    compiled.kernel_cache.clear()
    if base is not None:
        compiled.kernel_cache["triangles"] = base
    return base


def _patch_triangles(
    compiled: CompiledUnipartiteGraph,
    d_u: np.ndarray,
    d_v: np.ndarray,
    d_w: np.ndarray,
    inserted: bool,
) -> None:
    """Keep the cached :class:`~repro.graph.unipartite.TriangleBase`
    exact across a delta.

    Stored triangles hold edge positions in the canonical ascending
    ``(u, v)`` order.  An insert shifts every stored position past the
    delta's insertion points, then appends the triangles through the
    delta edges in the grown graph; a delete drops the triangles that
    hold a deleted edge and shifts the survivors down.  Gains are
    integer triangle counts, so the patched base scores exactly like a
    fresh build.  Every other kernel-cache entry is cleared.
    """
    base = _clear_kernel_cache(compiled)
    if base is None:
        return
    order = np.lexsort((d_v, d_u))
    keys = pair_keys(d_u[order], d_v[order])
    positions = np.searchsorted(base.keys, keys)
    triangles = base.triangles
    if inserted:
        for column in triangles:
            column += np.searchsorted(positions, column, side="right")
        base.u = np.insert(base.u, positions, d_u[order])
        base.v = np.insert(base.v, positions, d_v[order])
        base.weight = np.insert(base.weight, positions, d_w[order])
        base.keys = np.insert(base.keys, positions, keys)
        fresh = base.through(compiled, positions + np.arange(len(keys)))
        base.triangles = np.concatenate([triangles, fresh], axis=1)
    else:
        gone = np.zeros(len(base.keys), dtype=bool)
        gone[positions] = True
        triangles = triangles[:, ~gone[triangles].any(axis=0)]
        for column in triangles:
            column -= np.searchsorted(positions, column)
        base.u = np.delete(base.u, positions)
        base.v = np.delete(base.v, positions)
        base.weight = np.delete(base.weight, positions)
        base.keys = np.delete(base.keys, positions)
        base.triangles = triangles
