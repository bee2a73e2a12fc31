"""Incremental Dirty-ER clustering over an updatable compiled graph.

The batch clusterers of :mod:`repro.extensions.dirty_er` recompute a
whole partition per call.  Streaming ingestion arrives one small delta
at a time, and a delta can only change the clusters of the connected
components it touches — so :class:`IncrementalClusterer` maintains

* **connected components** under a union-find (insert = union of the
  delta's passing edges; delete = one bounded reconnectivity sweep
  over the affected component's members), and
* a **per-component cluster cache** for the clique algorithms
  (MCC/EMCC): components untouched by the delta keep their cached
  clusters, touched ones re-run
  :func:`repro.extensions.dirty_er._cluster_component` — the *same*
  body the batch driver runs per component, so the maintained
  partition is identical cluster-for-cluster to a batch call.

GECG is a global objective (one flip can cascade across components),
so its maintainer reruns the compiled kernel, whose incrementality
lives one layer down: the triangle base that
:mod:`repro.graph.incremental` patches through every delta, and a
±1 gain update per flip of the edges sharing a triangle with it.

The clusterer observes the *graph mutators*, it does not call them:
feed every ``insert_uni_edges`` / ``delete_uni_edges`` /
``add_uni_nodes`` delta to the matching method here after mutating
the compiled graph.
"""

from __future__ import annotations

import numpy as np

from repro.extensions.dirty_er import (
    DIRTY_ALGORITHM_CODES,
    DirtyClusterer,
    _cluster_component,
)
from repro.graph.selection import selection_mask
from repro.graph.unipartite import CompiledUnipartiteGraph

__all__ = ["IncrementalClusterer"]


class IncrementalClusterer:
    """Maintains one algorithm's partition across graph deltas.

    Parameters
    ----------
    clusterer:
        A :class:`~repro.extensions.dirty_er.DirtyClusterer` or an
        algorithm code (``CC`` / ``MCC`` / ``EMCC`` / ``GECG``).
    compiled:
        The updatable compiled unipartite graph.  Its *current* edges
        seed the maintained connectivity.
    threshold:
        The clustering threshold; selections use the Dirty-ER
        inclusive (``>=``) convention.
    """

    def __init__(
        self,
        clusterer: DirtyClusterer | str,
        compiled: CompiledUnipartiteGraph,
        threshold: float,
    ) -> None:
        if isinstance(clusterer, str):
            clusterer = DirtyClusterer(clusterer.upper())
        if clusterer.code not in DIRTY_ALGORITHM_CODES:  # pragma: no cover
            raise ValueError(f"unknown algorithm {clusterer.code!r}")
        self.clusterer = clusterer
        self.compiled = compiled
        self.threshold = float(threshold)
        self._parent: dict[int, int] = {}
        self._members: dict[int, set[int]] = {
            node: {node} for node in range(compiled.n_nodes)
        }
        self._cache: dict[int, list[set[int]]] = {}
        selection = compiled.select(self.threshold, inclusive=True)
        self._union_edges(selection.u, selection.v)

    # ------------------------------------------------------------------
    # Union-find over threshold-passing edges
    # ------------------------------------------------------------------
    def _find(self, node: int) -> int:
        root = node
        parent = self._parent
        while root in parent:
            root = parent[root]
        while node != root:  # path compression
            ahead = parent[node]
            parent[node] = root
            node = ahead
        return root

    def _union_edges(self, u: np.ndarray, v: np.ndarray) -> None:
        for a, b in zip(u.tolist(), v.tolist()):
            ra, rb = self._find(a), self._find(b)
            self._cache.pop(ra, None)
            self._cache.pop(rb, None)
            if ra == rb:
                continue
            if len(self._members[ra]) < len(self._members[rb]):
                ra, rb = rb, ra
            self._parent[rb] = ra
            self._members[ra].update(self._members.pop(rb))

    def _passing(self, weight: np.ndarray) -> np.ndarray:
        return selection_mask(weight, self.threshold, inclusive=True)

    # ------------------------------------------------------------------
    # Delta observers (call after the graph mutator)
    # ------------------------------------------------------------------
    def insert(self, u, v, weight) -> None:
        """Observe inserted edges (after ``insert_uni_edges``)."""
        u = np.atleast_1d(np.asarray(u, dtype=np.int64))
        v = np.atleast_1d(np.asarray(v, dtype=np.int64))
        weight = np.atleast_1d(np.asarray(weight, dtype=np.float64))
        passing = self._passing(weight)
        self._union_edges(u[passing], v[passing])

    def delete(self, u, v, weight) -> None:
        """Observe deleted edges (after ``delete_uni_edges``).

        Union-find cannot split, so each affected component re-derives
        its connectivity with one sweep over its (already small)
        member set against the post-delete selection bitsets.
        """
        u = np.atleast_1d(np.asarray(u, dtype=np.int64))
        v = np.atleast_1d(np.asarray(v, dtype=np.int64))
        weight = np.atleast_1d(np.asarray(weight, dtype=np.float64))
        passing = self._passing(weight)
        roots = {self._find(int(node)) for node in u[passing]}
        roots |= {self._find(int(node)) for node in v[passing]}
        if not roots:
            return
        adjacency = self.compiled.select(
            self.threshold, inclusive=True
        ).adjacency_bitsets()
        for root in roots:
            members = self._members.pop(root)
            self._cache.pop(root, None)
            for node in members:
                self._parent.pop(node, None)
            seen: set[int] = set()
            for start in sorted(members):
                if start in seen:
                    continue
                component = {start}
                frontier = [start]
                while frontier:
                    node = frontier.pop()
                    for nbr in _bits(adjacency[node]):
                        if nbr in members and nbr not in component:
                            component.add(nbr)
                            frontier.append(nbr)
                seen |= component
                self._members[start] = component
                for node in component:
                    if node != start:
                        self._parent[node] = start

    def add_nodes(self, count: int) -> None:
        """Observe node growth (after ``add_uni_nodes``)."""
        n = self.compiled.n_nodes
        for node in range(n - count, n):
            self._members[node] = {node}

    # ------------------------------------------------------------------
    # The maintained partition
    # ------------------------------------------------------------------
    def partition(self) -> list[set[int]]:
        """The current partition, identical to a batch
        ``cluster_compiled`` call on the current graph."""
        code = self.clusterer.code
        if code == "GECG":
            # Global objective: the incrementality is the patched
            # triangle base + per-flip gain updates inside the kernel.
            return self.clusterer.cluster_compiled(
                self.compiled, self.threshold
            )
        if code == "CC":
            return [set(members) for members in self._members.values()]
        attach = (
            self.clusterer.attachment_fraction if code == "EMCC" else None
        )
        adjacency = None
        clusters: list[set[int]] = []
        for root, members in self._members.items():
            if len(members) == 1:
                clusters.append(set(members))
                continue
            cached = self._cache.get(root)
            if cached is None:
                if adjacency is None:
                    adjacency = self.compiled.select(
                        self.threshold, inclusive=True
                    ).adjacency_bitsets()
                mask = 0
                for node in members:
                    mask |= 1 << node
                cached = _cluster_component(adjacency, mask, attach)
                self._cache[root] = cached
            clusters.extend(set(cluster) for cluster in cached)
        return clusters


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
