"""Clustering algorithms for Dirty ER (single-collection resolution).

In Dirty ER one collection contains duplicates of itself, so the
similarity graph is *not* bipartite and clusters may hold any number
of profiles.  The paper's related-work section sketches three recent
methods (beyond plain connected components):

* **Maximum Clique Clustering (MCC)** — ignore edge weights and
  repeatedly remove the maximum clique (with its vertices) until all
  nodes are assigned;
* **Extended Maximum Clique Clustering (EMCC)** — generalizes MCC:
  each removed maximal clique is enlarged with outside vertices
  adjacent to at least a minimum portion of its members;
* **Global Edge Consistency Gain (GECG)** — start from the
  thresholded edge labelling and iteratively flip the label of the
  edge whose flip most increases the number of label-consistent
  triangles; clusters are the components of match-labelled edges.

Every algorithm has two entry points, mirroring the bipartite
matchers' convention:

* ``<algorithm>(graph, threshold)`` — the public API over a
  :class:`~repro.graph.unipartite.UnipartiteGraph`; compiles the graph
  implicitly (cached on the graph) and runs the compiled kernel;
* ``<algorithm>_compiled(view, threshold)`` — the sweep-native kernel
  over a :class:`~repro.graph.unipartite.CompiledUnipartiteGraph`:
  cached threshold selections, ``scipy.sparse.csgraph`` components,
  Python-int adjacency *bitsets* for the clique growth, and the GECG
  triangle-consistency gain: three ``bincount`` calls over the
  graph's cached triangle base, then a ±1 update per flip of the
  edges sharing a triangle with the flipped edge.

Determinism note: the networkx prototype delegated clique selection to
``nx.max_weight_clique``, whose result among equal-size cliques is an
implementation detail.  The kernels use one *canonical* rule — the
maximum-cardinality maximal clique, ties broken by the
lexicographically smallest sorted vertex list — and GECG breaks gain
ties by ascending ``(u, v)`` edge order.  The prototype's bodies, with
the same rules, are frozen as test oracles
(``tests/oracles/dirty_er.py``), and the kernels reproduce them
partition for partition, not just up to tie choices.
"""

from __future__ import annotations

import numpy as np

from repro.graph.selection import check_non_negative_int, selection_mask
from repro.graph.unipartite import CompiledUnipartiteGraph, UnipartiteGraph

__all__ = [
    "DirtyClusterer",
    "DIRTY_ALGORITHM_CODES",
    "create_clusterer",
    "connected_components_clusters",
    "connected_components_clusters_compiled",
    "maximum_clique_clustering",
    "maximum_clique_clustering_compiled",
    "extended_maximum_clique_clustering",
    "extended_maximum_clique_clustering_compiled",
    "global_edge_consistency_gain",
    "global_edge_consistency_gain_compiled",
]


# ======================================================================
# Compiled kernels (CSR / bitsets / triangle base)
# ======================================================================
def _labels_to_clusters(labels: np.ndarray) -> list[set[int]]:
    """Group node indices by component label into cluster sets."""
    clusters: dict[int, set[int]] = {}
    for node, label in enumerate(labels.tolist()):
        members = clusters.get(label)
        if members is None:
            clusters[label] = {node}
        else:
            members.add(node)
    return list(clusters.values())


def _iter_bits(mask: int):
    """Set bit positions of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def connected_components_clusters_compiled(
    compiled: CompiledUnipartiteGraph, threshold: float
) -> list[set[int]]:
    """Compiled CC: one cached ``csgraph.connected_components`` call."""
    selection = compiled.select(threshold, inclusive=True)
    return _labels_to_clusters(selection.component_labels())


def _canonical_max_clique_bits(
    adjacency: list[int], candidates: int
) -> list[int]:
    """The canonical maximum clique inside ``candidates`` (a bitset).

    Bron-Kerbosch with pivoting over Python-int bitsets: candidate
    filtering is one ``&`` per recursion step regardless of degree.
    Among the enumerated maximal cliques the largest wins, with size
    ties broken by the lexicographically smallest sorted vertex list —
    the canonical rule of the module docstring.  The size-bound prune
    is strict (``<``), so equal-size cliques are still visited for the
    lexicographic comparison.
    """
    best_size = 0
    best: list[int] | None = None

    def expand(chosen: list[int], p: int, x: int) -> None:
        nonlocal best_size, best
        if p == 0:
            if x == 0:  # maximal: compare under (size, lex) canon
                size = len(chosen)
                candidate = sorted(chosen)
                if size > best_size or (
                    size == best_size
                    and best is not None
                    and candidate < best
                ):
                    best_size, best = size, candidate
            return
        p_count = p.bit_count()
        if len(chosen) + p_count < best_size:
            return
        # Pivot from P (a valid Bron-Kerbosch pivot choice), stopping
        # early once no node can beat the best degree seen.
        pivot, pivot_degree = -1, -1
        scan = p
        while scan:
            low = scan & -scan
            node = low.bit_length() - 1
            scan ^= low
            degree = (p & adjacency[node]).bit_count()
            if degree > pivot_degree:
                pivot, pivot_degree = node, degree
                if degree >= p_count - 1:
                    break
        branch = p & ~adjacency[pivot]
        while branch:
            low = branch & -branch
            node = low.bit_length() - 1
            branch ^= low
            chosen.append(node)
            expand(chosen, p & adjacency[node], x & adjacency[node])
            chosen.pop()
            p ^= low
            x |= low

    expand([], candidates, 0)
    return best or []


def _component_masks(selection) -> list[int]:
    """Bitset per connected component of the selection, by min node."""
    labels = selection.component_labels()
    masks: dict[int, int] = {}
    for node, label in enumerate(labels.tolist()):
        masks[label] = masks.get(label, 0) | (1 << node)
    return [masks[label] for label in sorted(masks, key=lambda l: masks[l] & -masks[l])]


def _cluster_component(
    adjacency: list[int],
    component: int,
    attach_fraction: float | None,
) -> list[set[int]]:
    """Canonical clique removal inside one component (a node bitset).

    The shared per-component body of MCC (``attach_fraction is None``)
    and EMCC.  Depends exclusively on ``adjacency`` restricted to
    ``component``, so the partition of a component does not depend on
    the rest of the graph.
    """
    clusters: list[set[int]] = []
    alive = component
    while True:
        clique = _canonical_max_clique_bits(adjacency, alive)
        if len(clique) < 2:
            break
        cluster_mask = 0
        for node in clique:
            cluster_mask |= 1 << node
        if attach_fraction is not None:
            required = max(1, int(round(attach_fraction * len(clique))))
            for node in _iter_bits(alive & ~cluster_mask):
                if (
                    adjacency[node] & cluster_mask
                ).bit_count() >= required:
                    cluster_mask |= 1 << node
        clusters.append(set(_iter_bits(cluster_mask)))
        alive &= ~cluster_mask
    clusters.extend({node} for node in _iter_bits(alive))
    return clusters


def _clique_removal_compiled(
    compiled: CompiledUnipartiteGraph,
    threshold: float,
    attach_fraction: float | None,
) -> list[set[int]]:
    """Shared MCC/EMCC driver: per-component canonical clique removal.

    Clusters removed from one component never touch another, so a
    global greedy clique-removal loop decomposes exactly into
    independent per-component loops — same partition, much smaller
    clique searches.
    """
    selection = compiled.select(threshold, inclusive=True)
    if selection.count == 0:
        return [{node} for node in range(compiled.n_nodes)]
    adjacency = selection.adjacency_bitsets()
    clusters: list[set[int]] = []
    for component in _component_masks(selection):
        clusters.extend(
            _cluster_component(adjacency, component, attach_fraction)
        )
    return clusters


def maximum_clique_clustering_compiled(
    compiled: CompiledUnipartiteGraph, threshold: float
) -> list[set[int]]:
    """Compiled MCC: bitset clique search per connected component."""
    return _clique_removal_compiled(compiled, threshold, None)


def extended_maximum_clique_clustering_compiled(
    compiled: CompiledUnipartiteGraph,
    threshold: float,
    attachment_fraction: float = 0.5,
) -> list[set[int]]:
    """Compiled EMCC: bitset clique search plus bitset attachment."""
    if not 0.0 < attachment_fraction <= 1.0:
        raise ValueError("attachment_fraction must be in (0, 1]")
    return _clique_removal_compiled(compiled, threshold, attachment_fraction)


def global_edge_consistency_gain_compiled(
    compiled: CompiledUnipartiteGraph,
    threshold: float,
    max_iterations: int = 100,
) -> list[set[int]]:
    """Compiled GECG: a ±1 gain update per flip over the triangle base.

    The triangles are enumerated once per graph
    (:meth:`~repro.graph.unipartite.CompiledUnipartiteGraph.triangles`,
    cached across the whole threshold sweep and patched in place by the
    incremental layer).  With 0/1 labels, an edge ``x``'s count of
    matched minus unmatched triangle partners is the sum of
    ``l_y + l_z - 1`` over its triangles ``(x, y, z)``: three
    ``bincount`` calls over the triangle columns.  Its flip gain is
    that count while ``x`` is unmatched and its negation while
    matched.  A flip that matches ``f`` raises the count of every edge
    sharing a triangle with ``f`` by exactly one (unmatching lowers
    it), and ``f``'s own gain negates, so each iteration touches only
    the triangles through ``f``.  Gains stay exact integers, and the
    flip sequence — first edge attaining the maximum positive gain in
    canonical ascending ``(u, v)`` order, via ``np.argmax`` — is that
    of a full recompute; clusters are the ``csgraph`` components of
    the match-labelled edges.
    """
    budget = check_non_negative_int("max_iterations", max_iterations)
    n = compiled.n_nodes
    m = compiled.n_edges
    if m == 0:
        return [{node} for node in range(n)]
    base = compiled.triangles()
    labels = selection_mask(base.weight, threshold, inclusive=True)
    member = labels[base.triangles].view(np.int8)
    # Per triangle, l_x + l_y + l_z - 1; an edge's term drops its own l.
    partners = member.sum(axis=0, dtype=np.int8) - 1
    count = sum(
        np.bincount(edges, weights=partners - own, minlength=m)
        for edges, own in zip(base.triangles, member)
    ).astype(np.int64)
    gain = np.where(labels, -count, count)

    for _ in range(budget):
        flip = int(np.argmax(gain))
        if gain[flip] <= 0:
            break
        labels[flip] = not labels[flip]
        gain[flip] = -gain[flip]
        touched = base.through(compiled, [flip])[1:].ravel()
        step = 1 if labels[flip] else -1
        gain[touched] += np.where(labels[touched], -step, step)

    from scipy import sparse
    from scipy.sparse import csgraph

    matched_graph = sparse.coo_matrix(
        (np.ones(int(labels.sum())), (base.u[labels], base.v[labels])),
        shape=(n, n),
    )
    _, component = csgraph.connected_components(matched_graph, directed=False)
    return _labels_to_clusters(component.astype(np.int64))


# ======================================================================
# Public entry points (thin wrappers; compile implicitly)
# ======================================================================
def connected_components_clusters(
    graph: UnipartiteGraph, threshold: float
) -> list[set[int]]:
    """Transitive closure of the pruned graph (clusters of any size)."""
    return connected_components_clusters_compiled(
        graph.compiled(), threshold
    )


def maximum_clique_clustering(
    graph: UnipartiteGraph, threshold: float
) -> list[set[int]]:
    """MCC: iteratively remove the canonical maximum clique."""
    return maximum_clique_clustering_compiled(graph.compiled(), threshold)


def extended_maximum_clique_clustering(
    graph: UnipartiteGraph,
    threshold: float,
    attachment_fraction: float = 0.5,
) -> list[set[int]]:
    """EMCC: remove canonical maximal cliques, then enlarge them."""
    return extended_maximum_clique_clustering_compiled(
        graph.compiled(), threshold, attachment_fraction
    )


def global_edge_consistency_gain(
    graph: UnipartiteGraph,
    threshold: float,
    max_iterations: int = 100,
) -> list[set[int]]:
    """GECG: flip edge labels to maximize triangle consistency."""
    return global_edge_consistency_gain_compiled(
        graph.compiled(), threshold, max_iterations
    )


# ======================================================================
# Clusterer registry (the dirty counterpart of matching.registry)
# ======================================================================
#: The four Dirty-ER clustering algorithms, in evaluation order.
DIRTY_ALGORITHM_CODES: tuple[str, ...] = ("CC", "MCC", "EMCC", "GECG")


class DirtyClusterer:
    """One Dirty-ER clustering algorithm with its parameters.

    The clustering counterpart of :class:`repro.matching.base.Matcher`:
    ``cluster`` is the thin public entry point (compiles implicitly)
    and ``cluster_compiled`` is sweep-native.  The parameters are
    checked here, as the EMCC and GECG kernels check them too:
    ``attachment_fraction`` (EMCC) must lie in ``(0, 1]`` and
    ``max_iterations`` (GECG) must be a non-negative integer.
    """

    def __init__(
        self,
        code: str,
        attachment_fraction: float = 0.5,
        max_iterations: int = 100,
    ) -> None:
        if code not in DIRTY_ALGORITHM_CODES:
            raise ValueError(
                f"unknown dirty-ER algorithm {code!r}; expected one of "
                f"{DIRTY_ALGORITHM_CODES}"
            )
        # ``not`` of the chained comparison also rejects NaN.
        if not 0.0 < attachment_fraction <= 1.0:
            raise ValueError(
                "attachment_fraction must lie in (0, 1], got "
                f"{attachment_fraction!r}"
            )
        self.code = code
        self.attachment_fraction = attachment_fraction
        self.max_iterations = check_non_negative_int(
            "max_iterations", max_iterations
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DirtyClusterer({self.code})"

    def cluster(
        self, graph: UnipartiteGraph, threshold: float
    ) -> list[set[int]]:
        return self.cluster_compiled(graph.compiled(), threshold)

    def cluster_compiled(
        self, compiled: CompiledUnipartiteGraph, threshold: float
    ) -> list[set[int]]:
        if self.code == "CC":
            return connected_components_clusters_compiled(compiled, threshold)
        if self.code == "MCC":
            return maximum_clique_clustering_compiled(compiled, threshold)
        if self.code == "EMCC":
            return extended_maximum_clique_clustering_compiled(
                compiled, threshold, self.attachment_fraction
            )
        return global_edge_consistency_gain_compiled(
            compiled, threshold, self.max_iterations
        )


def create_clusterer(code: str, **params) -> DirtyClusterer:
    """Instantiate a clusterer by algorithm code (``CC`` .. ``GECG``)."""
    return DirtyClusterer(code.upper(), **params)
