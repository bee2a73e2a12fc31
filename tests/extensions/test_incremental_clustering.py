"""Clustering a mutated graph must equal clustering a fresh compile.

Streams random edge deltas through the graph mutators and runs every
batch kernel (``DirtyClusterer.cluster_compiled``) on the live
compiled graph after each delta, so the cached threshold selections
and their lazy views are built before the next delta patches them.
Each partition must equal the kernel's on a from-scratch compile of
the same edge set.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extensions.dirty_er import (
    DIRTY_ALGORITHM_CODES,
    DirtyClusterer,
)
from repro.graph.incremental import (
    add_uni_nodes,
    delete_uni_edges,
    insert_uni_edges,
)
from repro.graph.unipartite import UnipartiteGraph

N_NODES = 8
THRESHOLD = 0.5
WEIGHTS = (0.1, 0.25, 0.5, 0.75, 0.9)


def canonical(clusters) -> list[tuple[int, ...]]:
    return sorted(tuple(sorted(cluster)) for cluster in clusters)


@st.composite
def edge_stream(draw):
    pairs = [
        (u, v) for u in range(N_NODES) for v in range(u + 1, N_NODES)
    ]
    chosen = draw(
        st.lists(
            st.tuples(st.sampled_from(pairs), st.sampled_from(WEIGHTS)),
            max_size=len(pairs),
            unique_by=lambda entry: entry[0],
        )
    )
    batch_size = draw(st.integers(1, 5))
    return chosen, batch_size


def partitions(compiled) -> dict[str, list[tuple[int, ...]]]:
    return {
        code: canonical(
            DirtyClusterer(code).cluster_compiled(compiled, THRESHOLD)
        )
        for code in DIRTY_ALGORITHM_CODES
    }


def fresh_partitions(n_nodes, edges) -> dict[str, list[tuple[int, ...]]]:
    graph = UnipartiteGraph(
        n_nodes,
        [u for (u, _), _ in edges],
        [v for (_, v), _ in edges],
        [w for _, w in edges],
    )
    return partitions(graph.compiled())


def as_arrays(edges):
    u = np.asarray([pair[0] for pair, _ in edges], dtype=np.int64)
    v = np.asarray([pair[1] for pair, _ in edges], dtype=np.int64)
    w = np.asarray([weight for _, weight in edges], dtype=np.float64)
    return u, v, w


@settings(max_examples=40, deadline=None)
@given(stream=edge_stream())
def test_streamed_inserts_match_batch(stream):
    edges, batch_size = stream
    compiled = UnipartiteGraph(N_NODES, [], [], []).compiled()
    partitions(compiled)
    for at in range(0, len(edges), batch_size):
        insert_uni_edges(compiled, *as_arrays(edges[at : at + batch_size]))
        expected = fresh_partitions(N_NODES, edges[: at + batch_size])
        assert partitions(compiled) == expected, at


@settings(max_examples=40, deadline=None)
@given(stream=edge_stream(), data=st.data())
def test_deletes_match_batch(stream, data):
    edges, _ = stream
    compiled = UnipartiteGraph(N_NODES, [], [], []).compiled()
    u, v, w = as_arrays(edges)
    insert_uni_edges(compiled, u, v, w)
    assert partitions(compiled) == fresh_partitions(N_NODES, edges)
    drop = data.draw(
        st.lists(
            st.integers(0, max(len(edges) - 1, 0)),
            max_size=len(edges),
            unique=True,
        )
        if edges
        else st.just([])
    )
    if drop:
        delete_uni_edges(compiled, u[drop], v[drop], w[drop])
    survivors = [
        entry for at, entry in enumerate(edges) if at not in set(drop)
    ]
    assert partitions(compiled) == fresh_partitions(N_NODES, survivors)


def test_node_growth_is_observed():
    compiled = UnipartiteGraph(2, [0], [1], [0.9]).compiled()
    partitions(compiled)
    add_uni_nodes(compiled, 2)
    insert_uni_edges(compiled, [2], [3], [0.8])
    edges = [((0, 1), 0.9), ((2, 3), 0.8)]
    expected = fresh_partitions(4, edges)
    assert partitions(compiled) == expected
    assert expected == {
        code: [(0, 1), (2, 3)] for code in DIRTY_ALGORITHM_CODES
    }
