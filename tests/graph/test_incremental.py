"""Tests for the incremental compiled-graph layer (repro.graph.incremental).

The load-bearing property is *batch equivalence*: a compiled
unipartite graph mutated in place by the delta-merge operators must be
bit-identical — edge permutation, CSR adjacency, provenance ``order``
and cached threshold selections — to a fresh compile of the same edge
set, and its patched GECG triangle base must equal a fresh build.  The
hypothesis properties below prove it for random insert,
insert-then-delete and insert-delete-grow-insert sequences, including
weight ties.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.incremental import (
    add_uni_nodes,
    delete_uni_edges,
    insert_uni_edges,
)
from repro.graph.unipartite import CompiledUnipartiteGraph, UnipartiteGraph

WEIGHTS = (0.1, 0.25, 0.5, 0.75, 0.9)
THRESHOLDS = ((0.25, True), (0.25, False), (0.5, True), (0.8, False))


def assert_unipartite_equal(
    actual: CompiledUnipartiteGraph, expected: CompiledUnipartiteGraph
) -> None:
    for name in (
        "order",
        "u_sorted",
        "v_sorted",
        "weight_sorted",
        "weight_ascending",
        "indptr",
        "neighbors",
        "neighbor_weights",
    ):
        np.testing.assert_array_equal(
            getattr(actual, name), getattr(expected, name), err_msg=name
        )
    assert actual.n_edges == expected.n_edges
    assert actual.n_nodes == expected.n_nodes


def assert_selections_fresh(compiled) -> None:
    """Every cached selection must agree with a from-scratch count."""
    for (threshold, inclusive), selection in compiled._selections.items():
        fresh = type(compiled)(compiled.source)
        expected = fresh.select(threshold, inclusive)
        assert selection.count == expected.count, (threshold, inclusive)


def unipartite_parts(draw):
    pairs = [(u, v) for u in range(7) for v in range(u + 1, 7)]
    chosen = draw(
        st.lists(
            st.tuples(
                st.sampled_from(pairs),
                st.sampled_from(WEIGHTS),
                st.booleans(),
            ),
            max_size=len(pairs),
            unique_by=lambda entry: entry[0],
        )
    )
    base = [(u, v, w) for (u, v), w, in_base in chosen if in_base]
    delta = [(u, v, w) for (u, v), w, in_base in chosen if not in_base]
    return base, delta


uni_splits = st.composite(unipartite_parts)()


def uni(edges, n_nodes: int = 7) -> UnipartiteGraph:
    u = [e[0] for e in edges]
    v = [e[1] for e in edges]
    w = [e[2] for e in edges]
    return UnipartiteGraph(n_nodes, u, v, w)


def columns(edges):
    return [e[0] for e in edges], [e[1] for e in edges], [e[2] for e in edges]


def assert_triangles_equal(patched, fresh) -> None:
    """Canonical edge arrays exact; triangle multisets equal (a patch
    appends triangles, so their order and column order may differ)."""
    for name in ("u", "v", "weight", "keys"):
        np.testing.assert_array_equal(
            getattr(patched, name), getattr(fresh, name), err_msg=name
        )
    assert patched.triangles.dtype == np.int32

    def multiset(base):
        return sorted(map(tuple, np.sort(base.triangles, axis=0).T.tolist()))

    assert multiset(patched) == multiset(fresh)


@st.composite
def grow_steps(draw):
    """Base edges, a first insert, a subset of both to delete, a node
    growth and a second insert that may reach the new nodes."""
    extra = draw(st.integers(min_value=0, max_value=3))
    n = 7 + extra
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(
        st.lists(
            st.tuples(
                st.sampled_from(pairs),
                st.sampled_from(WEIGHTS),
                st.integers(min_value=0, max_value=2),
            ),
            max_size=len(pairs),
            unique_by=lambda entry: entry[0],
        )
    )
    # Stage 0: base, 1: first insert, 2: second insert (after growth).
    stages: list[list] = [[], [], []]
    for (u, v), w, stage in chosen:
        stages[2 if v >= 7 else stage].append((u, v, w))
    base, first, second = stages
    doomed = draw(
        st.lists(
            st.booleans(),
            min_size=len(base + first),
            max_size=len(base + first),
        )
    )
    delete = [e for e, gone in zip(base + first, doomed) if gone]
    kept = [e for e, gone in zip(base + first, doomed) if not gone]
    return base, first, delete, extra, second, kept


class TestUnipartiteIncremental:
    @settings(max_examples=60, deadline=None)
    @given(split=uni_splits)
    def test_insert_matches_fresh_compile(self, split):
        base, delta = split
        compiled = uni(base).compiled()
        for threshold, inclusive in THRESHOLDS:
            compiled.select(threshold, inclusive)
        insert_uni_edges(
            compiled,
            [e[0] for e in delta],
            [e[1] for e in delta],
            [e[2] for e in delta],
        )
        fresh = CompiledUnipartiteGraph(uni(base + delta))
        assert_unipartite_equal(compiled, fresh)
        assert_selections_fresh(compiled)

    @settings(max_examples=60, deadline=None)
    @given(split=uni_splits)
    def test_insert_then_delete_round_trips(self, split):
        base, delta = split
        compiled = uni(base).compiled()
        for threshold, inclusive in THRESHOLDS:
            compiled.select(threshold, inclusive)
        us = [e[0] for e in delta]
        vs = [e[1] for e in delta]
        ws = [e[2] for e in delta]
        insert_uni_edges(compiled, us, vs, ws)
        delete_uni_edges(compiled, us, vs, ws)
        assert_unipartite_equal(compiled, CompiledUnipartiteGraph(uni(base)))
        assert_selections_fresh(compiled)

    @settings(max_examples=40, deadline=None)
    @given(split=uni_splits)
    def test_gecg_base_maintained_incrementally(self, split):
        base, delta = split
        compiled = uni(base).compiled()
        primed = compiled.triangles()
        insert_uni_edges(compiled, *columns(delta))
        assert compiled.kernel_cache["triangles"] is primed
        fresh = CompiledUnipartiteGraph(uni(base + delta)).triangles()
        assert_triangles_equal(primed, fresh)

    @settings(max_examples=60, deadline=None)
    @given(steps=grow_steps())
    def test_gecg_base_survives_deletes_and_node_growth(self, steps):
        """insert -> delete a subset -> add_uni_nodes -> insert patches
        the one base and ends equal to a fresh build."""
        base, first, delete, extra, second, kept = steps
        compiled = uni(base).compiled()
        primed = compiled.triangles()
        insert_uni_edges(compiled, *columns(first))
        delete_uni_edges(compiled, *columns(delete))
        add_uni_nodes(compiled, extra)
        insert_uni_edges(compiled, *columns(second))
        assert compiled.kernel_cache["triangles"] is primed
        n = 7 + extra
        expected = CompiledUnipartiteGraph(uni(kept + second, n))
        assert_unipartite_equal(compiled, expected)
        assert_triangles_equal(primed, expected.triangles())

    def test_insert_duplicate_edge_raises(self):
        compiled = uni([(0, 1, 0.5)]).compiled()
        with pytest.raises(ValueError, match="already in graph"):
            insert_uni_edges(compiled, [1], [0], [0.75])
        # The message names the first present edge in delta order.
        compiled = uni([(0, 1, 0.5), (1, 2, 0.9)]).compiled()
        with pytest.raises(ValueError, match=r"edge \(1, 2\) already"):
            insert_uni_edges(compiled, [3, 2, 1], [4, 1, 0], [0.1] * 3)

    def test_delete_resolves_weights_from_csr(self):
        compiled = uni([(0, 1, 0.5), (1, 2, 0.9)]).compiled()
        delete_uni_edges(compiled, [2], [1])
        assert_unipartite_equal(
            compiled, CompiledUnipartiteGraph(uni([(0, 1, 0.5)]))
        )

    def test_uncrossed_selection_keeps_lazy_caches(self):
        compiled = uni([(0, 1, 0.9), (1, 2, 0.5), (2, 3, 0.25)]).compiled()
        high = compiled.select(0.75, inclusive=False)
        low = compiled.select(0.1, inclusive=False)
        high_bitsets = high.adjacency_bitsets()
        low_bitsets = low.adjacency_bitsets()
        insert_uni_edges(compiled, [4], [5], [0.5])
        # The 0.5 delta never enters the w > 0.75 prefix: the cached
        # bitsets must survive untouched (same object).
        assert high.adjacency_bitsets() is high_bitsets
        assert high.count == 1
        # The crossed selection re-derives.
        assert low.adjacency_bitsets() is not low_bitsets
        assert low.count == 4

    def test_delete_missing_edge_raises(self):
        compiled = uni([(0, 1, 0.5)]).compiled()
        with pytest.raises(ValueError, match="not present"):
            delete_uni_edges(compiled, [0], [1], [0.75])
        with pytest.raises(ValueError, match="not in graph"):
            delete_uni_edges(compiled, [1], [2])
        # The message names the first missing edge in delta order.
        compiled = uni([(0, 1, 0.5), (1, 2, 0.9)], 6).compiled()
        with pytest.raises(ValueError, match=r"edge \(3, 5\) not in"):
            delete_uni_edges(compiled, [1, 5, 2], [0, 3, 4])

    def test_rejects_out_of_range_endpoints(self):
        compiled = uni([(0, 1, 0.5)]).compiled()
        with pytest.raises(ValueError, match="out of range"):
            insert_uni_edges(compiled, [7], [0], [0.5])

    @pytest.mark.parametrize("count", [2.5, True, -1, "2"])
    def test_add_nodes_rejects_non_integer_counts(self, count):
        compiled = uni([(0, 1, 0.5), (1, 2, 0.9)], 3).compiled()
        with pytest.raises(ValueError, match="non-negative integer"):
            add_uni_nodes(compiled, count)
        expected = CompiledUnipartiteGraph(uni([(0, 1, 0.5), (1, 2, 0.9)], 3))
        assert_unipartite_equal(compiled, expected)
        assert compiled.source.n_nodes == 3

    def test_add_nodes_accepts_numpy_integer_counts(self):
        compiled = uni([(0, 1, 0.5)], 3).compiled()
        add_uni_nodes(compiled, np.int64(2))
        assert (compiled.n_nodes, type(compiled.n_nodes)) == (5, int)
        assert len(compiled.indptr) == 6

    @pytest.mark.parametrize("weight", [None, [0.5]])
    def test_delete_rejects_out_of_range_endpoints(self, weight):
        compiled = uni([(0, 1, 0.5), (1, 2, 0.9)], 3).compiled()
        with pytest.raises(ValueError, match="out of range"):
            delete_uni_edges(compiled, [5], [6], weight)
        expected = CompiledUnipartiteGraph(uni([(0, 1, 0.5), (1, 2, 0.9)], 3))
        assert_unipartite_equal(compiled, expected)

    def test_node_growth_then_insert(self):
        compiled = uni([(0, 1, 0.5)]).compiled()
        add_uni_nodes(compiled, 3)
        insert_uni_edges(compiled, [9], [8], [0.75])
        fresh = CompiledUnipartiteGraph(
            UnipartiteGraph(10, [0, 8], [1, 9], [0.5, 0.75])
        )
        assert_unipartite_equal(compiled, fresh)
