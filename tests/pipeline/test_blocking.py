"""Blocking layer: candidate quality, admissibility and bit-identity.

Three property guarantees (hypothesis):

* blocked scoring equals the dense matrix on every retained cell,
* the prefix filter's upper bounds are admissible — no pair at or
  above the threshold token-set Jaccard is ever pruned,
* candidate sets are invariant under the kernel thread count.

Plus deterministic coverage of spec parsing/canonicalization, the
:class:`CandidateSet` API, the artifact-store codec, corpus cache-key
semantics and the CLI surface.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.datasets.generator import CleanCleanDataset, DatasetSpec
from repro.datasets.profile import EntityCollection, EntityProfile
from repro.pipeline.blocking import (
    BlockingIndex,
    CandidateSet,
    build_blocking_index,
    build_candidate_set,
    canonical_blocking,
    parse_blocking_spec,
)
from repro.pipeline.engine import SimilarityEngine
from repro.pipeline.graph_builder import pairs_to_graph
from repro.pipeline.kernels import kernel_threads
from repro.pipeline.similarity_functions import SimilarityFunctionSpec
from repro.pipeline.workbench import GraphCorpusConfig, generate_dirty_corpus
from repro.textsim.tokenize import tokens

strings = st.lists(
    st.text(alphabet="abcde _", min_size=1, max_size=12).filter(str.strip),
    min_size=1,
    max_size=8,
)


def _dataset(lefts, rights) -> CleanCleanDataset:
    """Minimal clean-clean dataset over explicit attribute values."""
    spec = DatasetSpec(
        code="t0",
        domain="synthetic",
        n_left=len(lefts),
        n_right=len(rights),
        n_duplicates=0,
        schema_attributes=("name",),
    )
    return CleanCleanDataset(
        spec=spec,
        left=EntityCollection(
            name="left",
            profiles=[
                EntityProfile(f"L{i}", {"name": v} if v else {})
                for i, v in enumerate(lefts)
            ],
        ),
        right=EntityCollection(
            name="right",
            profiles=[
                EntityProfile(f"R{j}", {"name": v} if v else {})
                for j, v in enumerate(rights)
            ],
        ),
        ground_truth=set(),
    )


def _measure_spec(measure: str) -> SimilarityFunctionSpec:
    return SimilarityFunctionSpec(
        family="schema_based_syntactic",
        details={"attribute": "name", "measure": measure},
        name=measure,
    )


def _assert_blocked_equals_dense(dense, blocked, spec):
    """Blocked edges are exactly the positive dense cells among the
    candidates, in candidate order, with bitwise-equal scores."""
    [whole] = dense.score([spec])
    matrix = np.zeros(dense.shape())
    matrix[whole.left, whole.right] = whole.values
    [scores] = blocked.score([spec])
    candidates = blocked.cache.candidate_set(blocked.blocking)
    cells = matrix[candidates.left, candidates.right]
    positive = cells > 0.0
    assert np.array_equal(scores.left, candidates.left[positive])
    assert np.array_equal(scores.right, candidates.right[positive])
    assert np.array_equal(scores.values, cells[positive]), spec.name


class TestBlockedEqualsDense:
    # One measure per artifact path: alignment DP (plan), Jaro
    # (encoded), token matrix and the Monge-Elkan token grid.
    MEASURES = ("levenshtein", "jaro", "cosine_tokens", "monge_elkan")

    @given(lefts=strings, rights=strings)
    @settings(max_examples=25, deadline=None)
    def test_retained_cells_bitwise_equal(self, lefts, rights):
        dataset = _dataset(lefts, rights)
        dense = SimilarityEngine(dataset)
        blocked = SimilarityEngine(dataset, blocking="tokens:max_df=1")
        for measure in self.MEASURES:
            spec = _measure_spec(measure)
            _assert_blocked_equals_dense(dense, blocked, spec)

    def test_fallback_families_gather_dense_cells(self):
        dataset = _dataset(
            ["alpha beta", "beta gamma", "delta"],
            ["alpha gamma", "beta", "epsilon delta"],
        )
        dense = SimilarityEngine(dataset)
        blocked = SimilarityEngine(dataset, blocking="tokens:max_df=1")
        spec = SimilarityFunctionSpec(
            family="schema_agnostic_syntactic",
            details={
                "model": "vector", "unit": "char", "n": 2,
                "measure": "cosine_tf",
            },
            name="vector",
        )
        _assert_blocked_equals_dense(dense, blocked, spec)


class TestPrefixAdmissibility:
    @given(
        lefts=strings,
        rights=strings,
        threshold=st.sampled_from((0.2, 0.4, 0.6, 0.8, 1.0)),
    )
    @settings(max_examples=50, deadline=None)
    def test_no_qualifying_pair_is_pruned(self, lefts, rights, threshold):
        candidates = build_candidate_set(
            lefts, rights, f"prefix:threshold={threshold}"
        )
        retained = set(
            zip(candidates.left.tolist(), candidates.right.tolist())
        )
        for i, x in enumerate(lefts):
            x_tokens = set(tokens(x))
            for j, y in enumerate(rights):
                y_tokens = set(tokens(y))
                if not x_tokens or not y_tokens:
                    continue
                jaccard = len(x_tokens & y_tokens) / len(x_tokens | y_tokens)
                if jaccard >= threshold:
                    assert (i, j) in retained, (
                        f"pruned ({x!r}, {y!r}) with Jaccard "
                        f"{jaccard:.3f} >= {threshold}"
                    )


class TestDeterminism:
    @given(lefts=strings, rights=strings)
    @settings(max_examples=20, deadline=None)
    def test_invariant_under_thread_count(self, lefts, rights):
        spec = "tokens:max_df=1+minhash:bands=4,perms=8"
        base = build_candidate_set(lefts, rights, spec)
        with kernel_threads(3):
            threaded = build_candidate_set(lefts, rights, spec)
        assert np.array_equal(base.left, threaded.left)
        assert np.array_equal(base.right, threaded.right)
        assert base.stats == threaded.stats

    def test_engine_scores_invariant_under_threads(self):
        dataset = _dataset(
            ["alpha beta", "gamma delta", "alpha gamma"],
            ["alpha delta", "beta gamma", "alpha beta"],
        )
        serial = SimilarityEngine(dataset, blocking="tokens:max_df=1")
        threaded = SimilarityEngine(
            dataset, threads=3, blocking="tokens:max_df=1"
        )
        for measure in ("levenshtein", "monge_elkan"):
            spec = _measure_spec(measure)
            [a] = serial.score([spec])
            [b] = threaded.score([spec])
            assert np.array_equal(a.left, b.left)
            assert np.array_equal(a.values, b.values)


class TestProbeEqualsBatchRow:
    """The query-time index/batch equivalence the service rests on:
    for every left record the :class:`BlockingIndex` was built over,
    a single-record probe returns exactly the candidates the batch
    :class:`CandidateSet` yields for that row."""

    SPECS = (
        "tokens:max_df=0.5,q=0",
        "tokens:q=3,max_df=0.4",
        "prefix:threshold=0.4",
        "prefix:threshold=0.8",
        "minhash:bands=4,perms=8",
        "tokens+prefix:threshold=0.3+minhash:bands=2,perms=4",
    )

    @given(lefts=strings, rights=strings)
    @settings(max_examples=25, deadline=None)
    def test_probe_rows_match_batch_rows(self, lefts, rights):
        for spec in self.SPECS:
            candidates = build_candidate_set(lefts, rights, spec)
            index = build_blocking_index(lefts, rights, spec)
            for i, text in enumerate(lefts):
                batch_row = np.sort(
                    candidates.right[candidates.left == i]
                ).astype(np.int64)
                assert np.array_equal(index.probe(text), batch_row), (
                    spec,
                    i,
                    text,
                )

    @given(lefts=strings, rights=strings)
    @settings(max_examples=20, deadline=None)
    def test_probe_output_is_sorted_unique_and_bounded(
        self, lefts, rights
    ):
        index = build_blocking_index(
            lefts, rights, "tokens+minhash:bands=2,perms=4"
        )
        for text in (*lefts, "completely novel record", ""):
            ids = index.probe(text)
            assert ids.dtype == np.int64
            assert np.array_equal(ids, np.unique(ids))
            if ids.shape[0]:
                assert 0 <= ids[0] and ids[-1] < index.n_indexed

    def test_index_freezes_corpus_statistics(self):
        """Probing never mutates the index: the same query returns the
        same candidates regardless of what was probed in between."""
        lefts = ["alpha beta", "beta gamma", "delta"]
        rights = ["alpha gamma", "beta", "epsilon delta"]
        index = build_blocking_index(lefts, rights, "tokens")
        before = index.probe("alpha beta")
        for noise in ("zzz", "beta beta beta", "", "alpha"):
            index.probe(noise)
        assert np.array_equal(index.probe("alpha beta"), before)

    def test_novel_query_tokens_act_as_rarest(self):
        """An unseen token gets df=1 (what a batch containing the query
        would compute), so a prefix probe keeps it in the prefix and
        still recovers in-corpus candidates through shared tokens."""
        rights = ["alpha beta", "beta gamma"]
        index = build_blocking_index(
            ["alpha beta"], rights, "prefix:threshold=0.4"
        )
        # "unseen alpha" : 2 tokens at t=0.4 -> prefix keeps both, and
        # "alpha" still reaches right record 0 through the postings.
        assert 0 in index.probe("unseen alpha").tolist()

    def test_engine_memoizes_probe_index(self):
        engine = SimilarityEngine(
            _dataset(["alpha beta", "gamma"], ["alpha", "beta gamma"]),
            blocking="tokens",
        )
        spec = canonical_blocking("tokens")
        first = engine.cache.probe_index(spec)
        assert isinstance(first, BlockingIndex)
        assert engine.cache.probe_index(spec) is first
        assert engine.cache.build_counts[("probe_index", spec)] == 1

    def test_build_matches_canonical_scheme(self):
        index = build_blocking_index(["a"], ["a"], "tokens")
        assert index.scheme == canonical_blocking("tokens")
        assert index.n_indexed == 1


class TestIngest:
    """Warm-index growth: posting lists extend in place, the frozen
    build-time statistics don't move.  For the statistics-free schemes
    an ingest-grown index probes exactly like a from-scratch build
    over the grown collection."""

    @given(lefts=strings, rights=strings, extra=strings)
    @settings(max_examples=20, deadline=None)
    def test_minhash_ingest_probes_like_full_build(
        self, lefts, rights, extra
    ):
        spec = "minhash:bands=4,perms=8"
        grown = build_blocking_index(lefts, rights, spec)
        ids = grown.ingest(extra)
        assert ids.tolist() == list(
            range(len(rights), len(rights) + len(extra))
        )
        full = build_blocking_index(lefts, rights + extra, spec)
        assert grown.n_indexed == full.n_indexed
        for text in (*lefts, *extra, "novel record", ""):
            assert np.array_equal(grown.probe(text), full.probe(text))

    @given(lefts=strings, rights=strings, extra=strings)
    @settings(max_examples=20, deadline=None)
    def test_tokens_ingest_without_stop_tokens_matches_full_build(
        self, lefts, rights, extra
    ):
        # max_df=1.0 disables the stop-token filter, the only place
        # the tokens scheme consults corpus statistics — so ingest
        # must reproduce a full rebuild bit-for-bit.
        spec = "tokens:max_df=1.0"
        grown = build_blocking_index(lefts, rights, spec)
        grown.ingest(extra)
        full = build_blocking_index(lefts, rights + extra, spec)
        for text in (*lefts, *extra, "novel record"):
            assert np.array_equal(grown.probe(text), full.probe(text))

    @given(lefts=strings, rights=strings, extra=strings)
    @settings(max_examples=20, deadline=None)
    def test_ingest_is_monotone_and_discoverable(
        self, lefts, rights, extra
    ):
        # Composite spec including the df-dependent prefix scheme:
        # old candidates never change (frozen statistics), additions
        # are only ever new ids, and every ingested record is
        # discoverable by probing its own text.
        spec = "tokens+prefix:threshold=0.3"
        index = build_blocking_index(lefts, rights, spec)
        before = {text: index.probe(text) for text in lefts}
        ids = index.ingest(extra)
        for text in lefts:
            after = index.probe(text)
            old = after[after < len(rights)]
            assert np.array_equal(old, before[text])
        for record_id, text in zip(ids.tolist(), extra):
            if tokens(text):
                assert record_id in index.probe(text).tolist()

    def test_empty_ingest_is_a_noop(self):
        index = build_blocking_index(["alpha"], ["alpha beta"], "tokens")
        before = index.probe("alpha")
        assert index.ingest([]).shape == (0,)
        assert index.n_indexed == 1
        assert np.array_equal(index.probe("alpha"), before)


class TestSpecParsing:
    def test_defaults_are_canonicalized(self):
        assert canonical_blocking("tokens") == "tokens:max_df=0.5,q=0"
        assert canonical_blocking("tokens") == canonical_blocking(
            "tokens:q=0,max_df=0.5"
        )

    def test_scheme_order_and_duplicates_normalize(self):
        assert canonical_blocking("tokens+minhash") == canonical_blocking(
            "minhash+tokens"
        )
        assert canonical_blocking("tokens+tokens") == canonical_blocking(
            "tokens"
        )

    @pytest.mark.parametrize(
        "spec",
        [
            "",
            "unknown",
            "tokens:bogus=1",
            "tokens:max_df=0",
            "tokens:max_df=1.5",
            "tokens:q=1",
            "prefix:threshold=0",
            "prefix:threshold=1.5",
            "minhash:bands=0",
            "minhash:bands=3,perms=8",
        ],
    )
    def test_invalid_specs_are_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_blocking_spec(spec)


class TestCandidateSet:
    def test_union_deduplicates(self):
        a = build_candidate_set(["x y", "z"], ["x", "y"], "tokens")
        b = build_candidate_set(["x y", "z"], ["x", "y"], "prefix:threshold=0.1")
        union = a.union(b)
        folded = union.left * union.n_right + union.right
        assert len(np.unique(folded)) == union.n_pairs

    def test_empty_truth_recall_is_one(self):
        candidates = build_candidate_set(["a"], ["b"], "tokens")
        assert candidates.recall(set()) == 1.0

    def test_reduction_on_empty_candidates(self):
        candidates = CandidateSet(
            n_left=3,
            n_right=4,
            scheme="tokens:max_df=0.5,q=0",
            left=np.array([], dtype=np.intp),
            right=np.array([], dtype=np.intp),
            stats={},
        )
        assert candidates.reduction == 12.0

    def test_store_roundtrip(self, tmp_path):
        from repro.pipeline.store import ArtifactStore

        dataset = _dataset(
            ["alpha beta", "gamma"], ["alpha", "beta gamma"]
        )
        key = ("synthetic", 1.0, 100, 42)
        first = SimilarityEngine(
            dataset,
            store=ArtifactStore(tmp_path),
            dataset_key=key,
            blocking="tokens:max_df=1",
        )
        built = first.cache.candidate_set(first.blocking)
        second = SimilarityEngine(
            dataset,
            store=ArtifactStore(tmp_path),
            dataset_key=key,
            blocking="tokens:max_df=1",
        )
        loaded = second.cache.candidate_set(second.blocking)
        assert np.array_equal(built.left, loaded.left)
        assert np.array_equal(built.right, loaded.right)
        assert built.scheme == loaded.scheme
        assert built.stats == loaded.stats


class TestCorpusIntegration:
    def test_cache_key_unchanged_without_blocking(self):
        config = GraphCorpusConfig(datasets=("d1",), seed=7)
        assert config.cache_key() == GraphCorpusConfig(
            datasets=("d1",), seed=7, blocking=None
        ).cache_key()

    def test_cache_key_changes_with_blocking(self):
        config = GraphCorpusConfig(datasets=("d1",), seed=7)
        blocked = GraphCorpusConfig(
            datasets=("d1",), seed=7, blocking="tokens"
        )
        respelled = GraphCorpusConfig(
            datasets=("d1",), seed=7, blocking="tokens:q=0,max_df=0.5"
        )
        assert blocked.cache_key() != config.cache_key()
        assert blocked.cache_key() == respelled.cache_key()

    def test_dirty_corpus_accepts_blocking(self):
        """The self-join corpus mirrors the clean-clean semantics: a
        blocked dirty graph's edges are a subset of the dense dirty
        graph's, restricted to upper-triangle candidate pairs."""
        config = GraphCorpusConfig(
            datasets=("d1",),
            families=("schema_based_syntactic",),
            seed=7,
            schema_based_measures=("levenshtein",),
            max_attributes=1,
        )
        dense = generate_dirty_corpus(config)
        blocked = generate_dirty_corpus(config, blocking="tokens")
        assert len(dense) == len(blocked)
        for a, b in zip(dense, blocked):
            assert b.graph.metadata["blocking"].startswith("tokens")
            assert b.candidate_reduction >= 1.0
            dense_pairs = set(zip(a.graph.u.tolist(), a.graph.v.tolist()))
            blocked_pairs = set(
                zip(b.graph.u.tolist(), b.graph.v.tolist())
            )
            assert blocked_pairs <= dense_pairs
            assert (b.graph.u < b.graph.v).all()

    def test_pairs_to_graph_drops_nonpositive_scores(self):
        graph = pairs_to_graph(
            2,
            3,
            np.array([0, 0, 1]),
            np.array([0, 1, 2]),
            np.array([0.5, 0.0, -0.1]),
            normalize=False,
        )
        assert graph.n_edges == 1


class TestCli:
    def test_block_reports_quality(self, capsys):
        rc = main(
            [
                "block", "d1", "--scale", "0.05", "--max-pairs", "1000",
                "--blocking", "tokens",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "reduction" in out
        assert "recall" in out

    def test_store_ls_json(self, tmp_path, capsys):
        rc = main(
            [
                "store", "ls", "--json",
                "--artifact-store", str(tmp_path / "none"),
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["n_entries"] == 0
        assert payload["entries"] == []
        assert "quarantine" in payload
