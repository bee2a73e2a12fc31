"""Behaviour both graph kinds share through the edge-graph core.

Every test runs on the bipartite and the unipartite kind: freeing the
compiled form on release, rejecting NaN thresholds, and the one file
codec, whose on-disk layout (npz members, dtypes, header) is pinned so
corpus caches and run journals written before any refactor keep
loading.
"""

from __future__ import annotations

import gc
import json
import math
import weakref

import numpy as np
import pytest

from repro.extensions.dirty_er import DIRTY_ALGORITHM_CODES, DirtyClusterer
from repro.graph import prefix_length, selection_mask
from repro.graph.bipartite import SimilarityGraph
from repro.graph.io import load_graph, save_graph
from repro.graph.unipartite import UnipartiteGraph
from repro.matching.registry import PAPER_ALGORITHM_CODES, create_matcher
from repro.pipeline import streaming


def bipartite_graph(seed=0, n_left=12, n_right=10, m=60):
    rng = np.random.default_rng(seed)
    return SimilarityGraph(
        n_left,
        n_right,
        rng.integers(0, n_left, m),
        rng.integers(0, n_right, m),
        np.round(rng.random(m), 2),
        name="bipartite",
    )


def unipartite_graph(seed=0, n=14, m=40):
    rng = np.random.default_rng(seed)
    pairs = {
        (int(a), int(b))
        for a, b in rng.integers(0, n, (3 * m, 2))
        if a < b
    }
    u, v = np.array(sorted(pairs)[:m]).T
    return UnipartiteGraph(
        n, u, v, np.round(rng.random(len(u)), 2), name="unipartite"
    )


MAKERS = {"bipartite": bipartite_graph, "unipartite": unipartite_graph}


def _run(kind: str, algorithm: str | None, compiled, threshold: float):
    if algorithm is None:
        compiled.select(threshold)
    elif kind == "bipartite":
        create_matcher(algorithm).match_compiled(compiled, threshold)
    else:
        DirtyClusterer(algorithm).cluster_compiled(compiled, threshold)


@pytest.fixture
def gc_disabled():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class TestReleaseCompiled:
    """``release_compiled`` frees the compiled form by reference count:
    its selections point back at it, and a cycle would hold every
    derived array until the next cyclic collection."""

    @pytest.mark.parametrize(
        "kind, algorithm",
        [
            ("bipartite", None),
            *[("bipartite", code) for code in PAPER_ALGORITHM_CODES],
            ("unipartite", None),
            *[("unipartite", code) for code in DIRTY_ALGORITHM_CODES],
        ],
    )
    def test_frees_without_cyclic_gc(self, kind, algorithm, gc_disabled):
        graph = MAKERS[kind]()
        compiled = graph.compiled()
        for threshold in (0.3, 0.6):
            _run(kind, algorithm, compiled, threshold)
        order = weakref.ref(compiled.order)
        del compiled
        graph.release_compiled()
        assert order() is None
        assert graph.compiled().select(0.3).count == int(
            selection_mask(graph.weight, 0.3, graph.INCLUSIVE).sum()
        )


class TestNanThreshold:
    def test_helpers_name_the_threshold(self):
        weights = np.array([0.2, 0.5, 0.9])
        with pytest.raises(ValueError, match="nan"):
            selection_mask(weights, float("nan"))
        with pytest.raises(ValueError, match="nan"):
            prefix_length(weights, float("nan"), inclusive=True)

    @pytest.mark.parametrize("kind", sorted(MAKERS))
    def test_select_and_prune_reject_nan(self, kind):
        graph = MAKERS[kind]()
        compiled = graph.compiled()
        for _ in range(3):
            with pytest.raises(ValueError, match="nan"):
                compiled.select(float("nan"))
        assert compiled._selections == {}
        with pytest.raises(ValueError, match="nan"):
            graph.prune(math.nan)

    def test_replay_stream_rejects_nan(self, monkeypatch):
        def probe(self, text):
            raise AssertionError("probed before the threshold check")

        monkeypatch.setattr(streaming.BlockingIndex, "probe", probe)
        with pytest.raises(ValueError, match="nan"):
            streaming.replay_stream(
                ["alpha beta", "alpha gamma", "beta gamma"],
                measure="jaccard",
                blocking="tokens",
                threshold=float("nan"),
            )


#: The parent layout of each kind: npz members with their dtypes, and
#: the header keys in file order.
LAYOUTS = {
    "bipartite": (
        dict(header="uint8", left="int64", right="int64", weight="float64"),
        ["version", "n_left", "n_right", "name", "metadata"],
    ),
    "unipartite": (
        dict(header="uint8", u="int64", v="int64", weight="float64"),
        ["version", "kind", "n_nodes", "name", "metadata"],
    ),
}


def _header(path) -> dict:
    with np.load(path, allow_pickle=False) as bundle:
        return json.loads(bytes(bundle["header"]).decode("utf-8"))


def _write_by_hand(path, header: dict, **arrays) -> None:
    np.savez_compressed(
        path,
        header=np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8
        ),
        **arrays,
    )


class TestFileFormat:
    @pytest.mark.parametrize("kind", sorted(MAKERS))
    def test_save_graph_layout(self, kind, tmp_path):
        graph = MAKERS[kind]()
        graph.metadata = {"dataset": "d1", "function": "jaccard"}
        path = tmp_path / "graph.npz"
        save_graph(graph, path)
        members, keys = LAYOUTS[kind]
        with np.load(path, allow_pickle=False) as bundle:
            assert {
                name: str(bundle[name].dtype) for name in bundle.files
            } == members
            assert bundle.files == list(members)
        header = _header(path)
        assert list(header) == keys
        expected = dict(version=1, name=graph.name, metadata=graph.metadata)
        if kind == "bipartite":
            expected.update(n_left=graph.n_left, n_right=graph.n_right)
        else:
            expected.update(kind="unipartite", n_nodes=graph.n_nodes)
        assert header == expected

    def test_loads_parent_bipartite_file(self, tmp_path):
        path = tmp_path / "graph_0000.npz"
        _write_by_hand(
            path,
            dict(
                version=1,
                n_left=3,
                n_right=2,
                name="d1:f",
                metadata={"dataset": "d1"},
            ),
            left=np.array([0, 2], dtype=np.int64),
            right=np.array([1, 0], dtype=np.int64),
            weight=np.array([0.25, 1.0]),
        )
        graph = load_graph(path)
        assert type(graph) is SimilarityGraph
        assert (graph.n_left, graph.n_right) == (3, 2)
        assert (graph.name, graph.metadata) == ("d1:f", {"dataset": "d1"})
        assert list(graph.edges()) == [(0, 1, 0.25), (2, 0, 1.0)]

    def test_loads_parent_unipartite_file(self, tmp_path):
        path = tmp_path / "graph_0000.npz"
        _write_by_hand(
            path,
            dict(
                version=1,
                kind="unipartite",
                n_nodes=4,
                name="d1+self:f",
                metadata={"dataset": "d1+self"},
            ),
            u=np.array([0, 1], dtype=np.int64),
            v=np.array([3, 2], dtype=np.int64),
            weight=np.array([0.5, 0.75]),
        )
        graph = load_graph(path)
        assert type(graph) is UnipartiteGraph
        assert graph.n_nodes == 4
        assert graph.name == "d1+self:f"
        assert graph.metadata == {"dataset": "d1+self"}
        assert list(graph.edges()) == [(0, 3, 0.5), (1, 2, 0.75)]

    @pytest.mark.parametrize("kind", sorted(MAKERS))
    def test_roundtrip_keeps_the_class(self, kind, tmp_path):
        graph = MAKERS[kind]()
        path = tmp_path / "graph.npz"
        save_graph(graph, path)
        loaded = load_graph(path)
        assert type(loaded) is type(graph)
        assert loaded.sizes == graph.sizes
        assert loaded.name == graph.name
        for ours, theirs in zip(loaded.ends(), graph.ends()):
            assert np.array_equal(ours, theirs)
        assert np.array_equal(loaded.weight, graph.weight)

    @pytest.mark.parametrize(
        "header, named",
        [
            ({"version": 1, "kind": "tripartite"}, "'tripartite'"),
            ({"version": 2, "n_left": 1, "n_right": 1}, "2"),
            ({"version": 7, "kind": "unipartite", "n_nodes": 1}, "7"),
        ],
    )
    def test_rejects_unknown_kind_or_version(self, header, named, tmp_path):
        path = tmp_path / "graph.npz"
        _write_by_hand(path, header, weight=np.array([0.5]))
        with pytest.raises(ValueError, match=named):
            load_graph(path)
