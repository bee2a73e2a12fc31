"""Tests for the incremental compiled-graph layer (repro.graph.incremental).

The load-bearing property is *batch equivalence*: a compiled
unipartite graph mutated in place by the delta-merge operators must be
bit-identical — edge permutation, CSR adjacency, provenance ``order``
and cached threshold selections — to a fresh compile of the same edge
set.  The hypothesis properties below prove it for random insert and
insert-then-delete batches, including weight ties.
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


def uni(edges) -> UnipartiteGraph:
    u = [e[0] for e in edges]
    v = [e[1] for e in edges]
    w = [e[2] for e in edges]
    return UnipartiteGraph(7, u, v, w)


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
        from repro.extensions.dirty_er import _gecg_base

        base, delta = split
        compiled = uni(base).compiled()
        _gecg_base(compiled)  # prime the triangle cache
        insert_uni_edges(
            compiled,
            [e[0] for e in delta],
            [e[1] for e in delta],
            [e[2] for e in delta],
        )
        patched = compiled.kernel_cache["gecg_base"]
        fresh = _gecg_base(CompiledUnipartiteGraph(uni(base + delta)))
        # Canonical edge order and weights match exactly.
        for a, b in zip(patched[:3], fresh[:3]):
            np.testing.assert_array_equal(a, b)
        # Incidence entries may be appended in a different order; the
        # triangle multiset (and hence every bincount gain) is equal.
        patched_tris = sorted(
            zip(*(np.sort(np.stack(patched[3:]), axis=0).tolist()))
        )
        fresh_tris = sorted(
            zip(*(np.sort(np.stack(fresh[3:]), axis=0).tolist()))
        )
        assert patched_tris == fresh_tris

    def test_insert_duplicate_edge_raises(self):
        compiled = uni([(0, 1, 0.5)]).compiled()
        with pytest.raises(ValueError, match="already in graph"):
            insert_uni_edges(compiled, [1], [0], [0.75])

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

    def test_rejects_out_of_range_endpoints(self):
        compiled = uni([(0, 1, 0.5)]).compiled()
        with pytest.raises(ValueError, match="out of range"):
            insert_uni_edges(compiled, [7], [0], [0.5])

    def test_node_growth_then_insert(self):
        compiled = uni([(0, 1, 0.5)]).compiled()
        add_uni_nodes(compiled, 3)
        insert_uni_edges(compiled, [9], [8], [0.75])
        fresh = CompiledUnipartiteGraph(
            UnipartiteGraph(10, [0, 8], [1, 9], [0.5, 0.75])
        )
        assert_unipartite_equal(compiled, fresh)
