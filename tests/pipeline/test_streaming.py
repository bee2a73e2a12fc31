"""The stream replay driver must reproduce the batch path bit-for-bit.

Batch equivalence is the tentpole guarantee of the incremental tier:
whatever the seed or batch size, the final compiled graph views and
every maintained partition must equal a single batch build over the
same records.  The synthetic corpora below share enough tokens to
produce dense candidate sets, weight ties and non-trivial clusters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import dataset_spec, generate_dataset
from repro.extensions.dirty_er import DIRTY_ALGORITHM_CODES, DirtyClusterer
from repro.graph.incremental import delete_uni_edges
from repro.graph.unipartite import UnipartiteGraph
from repro.pipeline.streaming import (
    COMPILED_VIEWS,
    batch_reference,
    canonical_clusters,
    replay_stream,
    stream_report,
)

MEASURE = "jaccard"
BLOCKING = "tokens"
THRESHOLD = 0.4


def corpus(n: int, seed: int) -> list[str]:
    rng = np.random.default_rng(seed)
    words = [
        "alpha", "beta", "gamma", "delta", "omega",
        "sigma", "kappa", "lambda",
    ]
    return [
        " ".join(rng.choice(words, size=int(rng.integers(2, 5))))
        for _ in range(n)
    ]


def replay(texts, **overrides):
    options = dict(
        measure=MEASURE,
        blocking=BLOCKING,
        threshold=THRESHOLD,
        seed=7,
        batch_size=13,
    )
    options.update(overrides)
    return replay_stream(texts, **options)


class TestBatchEquivalence:
    def test_report_is_fully_identical(self):
        texts = corpus(60, seed=11)
        report = stream_report(replay(texts), texts)
        assert report["graph_identical"], report["views"]
        assert all(report["partitions_identical"].values()), report
        assert report["n_edges"] == report["n_edges_batch"] > 0

    def test_invariant_to_batch_size_and_seed(self):
        texts = corpus(45, seed=3)
        reference = batch_reference(
            texts, measure=MEASURE, blocking=BLOCKING
        ).compiled()
        partitions = None
        for batch_size, seed in ((1, 0), (7, 99), (64, 7)):
            result = replay(texts, batch_size=batch_size, seed=seed)
            for name in COMPILED_VIEWS:
                np.testing.assert_array_equal(
                    getattr(result.compiled, name),
                    getattr(reference, name),
                    err_msg=f"{name} (batch_size={batch_size})",
                )
            streamed = result.partitions()
            if partitions is None:
                partitions = streamed
            assert streamed == partitions, (batch_size, seed)

    def test_pairs_scored_exactly_once(self):
        texts = corpus(50, seed=5)
        result = replay(texts, batch_size=9)
        reference = batch_reference(
            texts, measure=MEASURE, blocking=BLOCKING
        )
        # Every strict-upper-triangle candidate cell is scored once:
        # the batch candidate set minus diagonal and mirrored cells.
        pairs = {
            (int(u), int(v))
            for u, v in zip(result.compiled.source.u,
                            result.compiled.source.v)
        }
        expected = {
            (int(u), int(v))
            for u, v in zip(reference.u, reference.v)
        }
        assert pairs == expected
        assert result.n_edges == len(expected)

    def test_rebuild_probe_records_halfway_state(self):
        texts = corpus(40, seed=2)
        result = replay(texts, batch_size=6, rebuild_probe=True)
        assert result.rebuild_seconds is not None
        assert result.probe_records >= result.n_records // 2
        assert 0.0 <= result.probe_update_seconds <= result.update_seconds


class TestStreamDeletes:
    def test_partitions_follow_deletes_on_the_live_graph(self):
        """Deletes after a replay: the partitions and every compiled
        view equal a fresh compile of the surviving edges."""
        dataset = generate_dataset(
            dataset_spec("d4", scale=0.05, max_pairs=5_000), seed=42
        )
        texts = dataset.left.texts() + dataset.right.texts()
        # 0.3 leaves non-singleton clusters for all four algorithms.
        result = replay(texts, threshold=0.3, seed=42, batch_size=16)
        source = result.compiled.source
        # Copies: the deletes patch the source arrays in place.
        u, v, w = (
            np.array(column) for column in (source.u, source.v, source.weight)
        )
        doomed = np.random.default_rng(5).permutation(len(u))
        doomed = doomed[: len(u) // 3]
        alive = np.ones(len(u), dtype=bool)
        result.partitions()  # caches the selections the deletes update
        for chunk in np.array_split(doomed, 3):
            delete_uni_edges(result.compiled, u[chunk], v[chunk])
            alive[chunk] = False
            fresh = UnipartiteGraph(
                result.n_records, u[alive], v[alive], w[alive]
            ).compiled()
            for name in COMPILED_VIEWS:
                np.testing.assert_array_equal(
                    getattr(result.compiled, name),
                    getattr(fresh, name),
                    err_msg=name,
                )
            streamed = result.partitions()
            assert sorted(streamed) == sorted(DIRTY_ALGORITHM_CODES)
            for code in DIRTY_ALGORITHM_CODES:
                expected = canonical_clusters(
                    DirtyClusterer(code).cluster_compiled(fresh, 0.3)
                )
                assert streamed[code] == expected, code
                assert any(len(cluster) > 1 for cluster in expected), code


class TestValidation:
    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithms"):
            replay(corpus(10, seed=1), algorithms=("CC", "BOGUS"))

    def test_rejects_mismatched_values(self):
        with pytest.raises(ValueError, match="parallel"):
            replay_stream(
                ["a", "b"],
                ["a"],
                measure=MEASURE,
                blocking=BLOCKING,
                threshold=THRESHOLD,
            )

    @pytest.mark.parametrize("batch_size", [0, -5])
    def test_rejects_non_positive_batch_size(self, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            replay(corpus(10, seed=1), batch_size=batch_size)

    def test_subset_of_algorithms(self):
        texts = corpus(30, seed=4)
        result = replay(texts, algorithms=("cc",))
        assert result.algorithms == ("CC",)
        assert set(result.partitions()) == {"CC"}


def test_canonical_clusters_is_order_free():
    assert canonical_clusters([{2, 1}, {0}]) == [(0,), (1, 2)]
    assert canonical_clusters([{0}, {1, 2}]) == [(0,), (1, 2)]
