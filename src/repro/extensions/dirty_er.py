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
  triangle-consistency gain as two sparse matmuls per iteration.

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

import numbers

import numpy as np

from repro.graph.selection import selection_mask
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
# Compiled kernels (CSR / bitsets / sparse matmul)
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
    and EMCC — also the unit of work of the incremental layer
    (:mod:`repro.extensions.incremental`), which re-runs it only for
    components a delta touched.  Depends exclusively on ``adjacency``
    restricted to ``component``, so batch and incremental calls over
    the same component are identical cluster-for-cluster.
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


def _gecg_base(compiled: CompiledUnipartiteGraph):
    """Threshold-independent GECG state, cached per compiled graph.

    Holds the canonical ascending ``(u, v)`` edge order, the weights
    in that order, and the **triangle incidence arrays**: every
    triangle ``a < b < w`` of the graph (enumerated once, from its
    lowest edge ``(a, b)`` and common neighbours ``w > b``) as three
    parallel edge-index arrays.  A triangle touches three gain
    entries, so the incidence is stored pre-concatenated as
    ``(edge, other1, other2)`` triples — one ``bincount`` per label
    predicate scores every edge of every triangle per iteration.
    """
    base = compiled.kernel_cache.get("gecg_base")
    if base is None:
        graph = compiled.source
        order = np.lexsort((graph.v, graph.u))
        edge_u = graph.u[order]
        edge_v = graph.v[order]
        u_list, v_list = edge_u.tolist(), edge_v.tolist()
        edge_index = {
            pair: position
            for position, pair in enumerate(zip(u_list, v_list))
        }
        neighbour_sets: list[set[int]] = [
            set() for _ in range(compiled.n_nodes)
        ]
        for a, b in zip(u_list, v_list):
            neighbour_sets[a].add(b)
            neighbour_sets[b].add(a)
        tri_e1: list[int] = []
        tri_e2: list[int] = []
        tri_e3: list[int] = []
        for position, (a, b) in enumerate(zip(u_list, v_list)):
            for w in neighbour_sets[a] & neighbour_sets[b]:
                if w > b:  # a < b < w: each triangle exactly once
                    tri_e1.append(position)
                    tri_e2.append(edge_index[(a, w)])
                    tri_e3.append(edge_index[(b, w)])
        e1 = np.asarray(tri_e1, dtype=np.int64)
        e2 = np.asarray(tri_e2, dtype=np.int64)
        e3 = np.asarray(tri_e3, dtype=np.int64)
        # Every (edge, its two triangle partners) incidence, flattened.
        edges_at = np.concatenate([e1, e2, e3])
        other_a = np.concatenate([e2, e1, e1])
        other_b = np.concatenate([e3, e3, e2])
        base = (edge_u, edge_v, graph.weight[order], edges_at, other_a, other_b)
        compiled.kernel_cache["gecg_base"] = base
    return base


def _gecg_entries(
    compiled: CompiledUnipartiteGraph, edges_at: np.ndarray, m: int
):
    """Edge-to-incidence CSR over the triangle base, cached.

    Groups the flattened triangle incidence rows by their ``edges_at``
    edge: ``entry_order[indptr[e]:indptr[e + 1]]`` are the rows whose
    scored edge is ``e``.  This is what lets an iteration recompute
    gains for only the edges sharing a triangle with the last flip.
    Derived from the triangle base, so the incremental layer drops it
    (and this rebuilds lazily) whenever the base is patched.
    """
    entries = compiled.kernel_cache.get("gecg_entries")
    if entries is None:
        entry_order = np.argsort(edges_at, kind="stable")
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(edges_at, minlength=m), out=indptr[1:])
        entries = (entry_order, indptr)
        compiled.kernel_cache["gecg_entries"] = entries
    return entries


def global_edge_consistency_gain_compiled(
    compiled: CompiledUnipartiteGraph,
    threshold: float,
    max_iterations: int = 100,
) -> list[set[int]]:
    """Compiled GECG: incrementally maintained triangle-consistency gain.

    The triangles are enumerated once per graph (cached across the
    whole threshold sweep, and patched in place by the incremental
    layer).  The initial gain of every edge — ``#`` of incident
    triangles whose other two edges are both matched versus both
    unmatched — is two ``bincount`` calls over the triangle incidence;
    each subsequent iteration then recomputes gains *only for the
    edges sharing a triangle with the flipped edge* (the flipped
    edge's own gain just negates: its incident labels are unchanged),
    instead of rescoring the full graph.  The maintained gain array is
    exactly the full recompute, so the flip sequence — first edge
    attaining the maximum positive gain in canonical ascending
    ``(u, v)`` order, via ``np.argmax`` — is unchanged from a
    full-recompute kernel; clusters are the ``csgraph`` components of
    the match-labelled edges.
    """
    n = compiled.n_nodes
    m = compiled.n_edges
    if m == 0:
        return [{node} for node in range(n)]
    edge_u, edge_v, weights, edges_at, other_a, other_b = _gecg_base(compiled)
    entry_order, entry_indptr = _gecg_entries(compiled, edges_at, m)
    labels = selection_mask(weights, threshold, inclusive=True).copy()

    la = labels[other_a]
    lb = labels[other_b]
    both_matched = np.bincount(
        edges_at, weights=(la & lb).astype(np.float64), minlength=m
    )
    both_unmatched = np.bincount(
        edges_at, weights=(~la & ~lb).astype(np.float64), minlength=m
    )
    gain = np.where(
        labels,
        both_unmatched - both_matched,
        both_matched - both_unmatched,
    )

    for _ in range(max_iterations):
        if gain.max() <= 0:
            break
        flip = int(np.argmax(gain))
        labels[flip] = not labels[flip]
        # Only edges in a triangle with ``flip`` see different incident
        # labels; ``flip`` itself keeps its counts and negates.
        gain[flip] = -gain[flip]
        rows = entry_order[entry_indptr[flip] : entry_indptr[flip + 1]]
        affected = np.unique(
            np.concatenate([other_a[rows], other_b[rows]])
        )
        if len(affected):
            starts = entry_indptr[affected]
            counts = entry_indptr[affected + 1] - starts
            group = np.repeat(np.arange(len(affected)), counts)
            within = np.arange(int(counts.sum())) - np.repeat(
                np.cumsum(counts) - counts, counts
            )
            arows = entry_order[starts[group] + within]
            la = labels[other_a[arows]]
            lb = labels[other_b[arows]]
            matched = np.bincount(
                group,
                weights=(la & lb).astype(np.float64),
                minlength=len(affected),
            )
            unmatched = np.bincount(
                group,
                weights=(~la & ~lb).astype(np.float64),
                minlength=len(affected),
            )
            gain[affected] = np.where(
                labels[affected], unmatched - matched, matched - unmatched
            )

    if not labels.any():
        return [{node} for node in range(n)]
    from scipy import sparse
    from scipy.sparse import csgraph

    matched_graph = sparse.csr_matrix(
        (
            np.ones(int(labels.sum()) * 2),
            (
                np.concatenate([edge_u[labels], edge_v[labels]]),
                np.concatenate([edge_v[labels], edge_u[labels]]),
            ),
        ),
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
    checked once, here: ``attachment_fraction`` (EMCC) must lie in
    ``(0, 1]`` and ``max_iterations`` (GECG) must be a non-negative
    integer.
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
        if (
            not isinstance(max_iterations, numbers.Integral)
            or isinstance(max_iterations, bool)
            or max_iterations < 0
        ):
            raise ValueError(
                "max_iterations must be a non-negative integer, got "
                f"{max_iterations!r}"
            )
        self.code = code
        self.attachment_fraction = attachment_fraction
        self.max_iterations = int(max_iterations)

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
