"""Blocking layer: candidate quality, admissibility and bit-identity.

Property guarantees (hypothesis):

* batch candidate sets and single-record probes equal a brute-force
  oracle per scheme, raw per-scheme counts included,
* blocked scoring equals the dense matrix on every retained cell,
* the prefix filter's upper bounds are admissible — no pair at or
  above the threshold token-set Jaccard is ever pruned,
* one multi-record ingest equals record-by-record ingests.

Plus digests pinning catalog candidate sets and deterministic coverage
of spec parsing/canonicalization, the :class:`CandidateSet` API, the
artifact-store codec, corpus cache-key semantics and the CLI surface.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.datasets import dataset_spec, generate_dataset
from repro.datasets.generator import CleanCleanDataset, DatasetSpec
from repro.datasets.profile import EntityCollection, EntityProfile
from repro.pipeline.blocking import (
    BlockingIndex,
    CandidateSet,
    build_candidate_set,
    canonical_blocking,
    parse_blocking_spec,
)
from repro.pipeline.engine import SimilarityEngine
from repro.pipeline.graph_builder import pairs_to_graph
from repro.pipeline.similarity_functions import SimilarityFunctionSpec
from repro.pipeline.workbench import GraphCorpusConfig, generate_dirty_corpus
from repro.textsim.tokenize import character_ngrams, tokens

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


def _oracle_keys(text: str, q: int) -> set[str]:
    if q:
        return set(character_ngrams(text, q)) if text else set()
    return set(tokens(text))


def _oracle_tokens(lefts, rights, q, max_df):
    """``tokens``: a pair shares a key whose document frequency over
    both collections is at most ``max_df`` times the record count."""
    left_keys = [_oracle_keys(text, q) for text in lefts]
    right_keys = [_oracle_keys(text, q) for text in rights]
    df = Counter(key for keys in left_keys + right_keys for key in keys)
    limit = Fraction(str(max_df)) * (len(lefts) + len(rights))
    hits = {}
    for i, x in enumerate(left_keys):
        for j, y in enumerate(right_keys):
            shared = sum(df[key] <= limit for key in x & y)
            if shared:
                hits[i, j] = shared
    return hits


def _oracle_prefix(lefts, rights, threshold):
    """``prefix``: the left record's ``|x| - ceil(t|x|) + 1`` rarest
    tokens (df over both collections, ties by text) meet the right
    record's tokens, and ``min(|x|, |y|) >= t * max(|x|, |y|)``."""
    left_keys = [_oracle_keys(text, 0) for text in lefts]
    right_keys = [_oracle_keys(text, 0) for text in rights]
    df = Counter(key for keys in left_keys + right_keys for key in keys)
    t = Fraction(str(threshold))
    hits = {}
    for i, x in enumerate(left_keys):
        if not x:
            continue
        required = max(math.ceil(t * len(x)), 1)
        by_rarity = sorted(x, key=lambda key: (df[key], key))
        prefix = by_rarity[: len(x) - required + 1]
        for j, y in enumerate(right_keys):
            shared = sum(key in y for key in prefix)
            if shared and min(len(x), len(y)) >= t * max(len(x), len(y)):
                hits[i, j] = shared
    return hits


def _oracle_minhash(lefts, rights, perms, bands, seed):
    """``minhash``: the two token sets' signatures, from the seeded
    multiply-add draws over blake2b token hashes, agree on a band."""
    rng = np.random.default_rng(seed)
    high = np.iinfo(np.uint64).max
    mul = [int(m) | 1 for m in rng.integers(1, high, perms, np.uint64)]
    add = [int(a) for a in rng.integers(0, high, perms, np.uint64)]

    def signature(text):
        values = [
            int.from_bytes(
                hashlib.blake2b(key.encode(), digest_size=8).digest(), "big"
            )
            for key in _oracle_keys(text, 0)
        ]
        if not values:
            return None
        return [
            min((m * value + a) % 2**64 for value in values)
            for m, a in zip(mul, add)
        ]

    rows = perms // bands
    left_signatures = [signature(text) for text in lefts]
    right_signatures = [signature(text) for text in rights]
    hits = {}
    for i, x in enumerate(left_signatures):
        for j, y in enumerate(right_signatures):
            if x is None or y is None:
                continue
            shared = sum(
                x[b * rows : (b + 1) * rows] == y[b * rows : (b + 1) * rows]
                for b in range(bands)
            )
            if shared:
                hits[i, j] = shared
    return hits


def _oracle(lefts, rights, spec):
    """Brute-force ``(sorted candidate pairs, stats)`` for ``spec``."""
    pairs = set()
    stats = []
    for scheme in parse_blocking_spec(spec):
        params = dict(scheme.params)
        if scheme.name == "tokens":
            hits = _oracle_tokens(lefts, rights, params["q"], params["max_df"])
        elif scheme.name == "prefix":
            hits = _oracle_prefix(lefts, rights, params["threshold"])
        else:
            hits = _oracle_minhash(
                lefts, rights, params["perms"], params["bands"],
                params["seed"],
            )
        pairs |= hits.keys()
        stats.append((f"{scheme.canonical}:pairs", sum(hits.values())))
    return sorted(pairs), tuple(stats)


class TestProbeEqualsBatchRow:
    """The batch candidate set and single-record probes against a
    brute-force oracle per scheme: for every left record the
    :class:`BlockingIndex` was built over, a probe returns exactly the
    oracle's row, and the batch :class:`CandidateSet` holds exactly
    the oracle's pairs and raw per-scheme counts."""

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
            pairs, stats = _oracle(lefts, rights, spec)
            candidates = build_candidate_set(lefts, rights, spec)
            assert candidates.stats == stats, spec
            assert candidates.left.dtype == np.intp
            assert candidates.right.dtype == np.intp
            built = list(
                zip(candidates.left.tolist(), candidates.right.tolist())
            )
            assert built == pairs, spec
            index = BlockingIndex.build(lefts, rights, spec)
            for i, text in enumerate(lefts):
                row = [j for left, j in pairs if left == i]
                assert index.probe(text).tolist() == row, (spec, i, text)

    @given(lefts=strings, rights=strings)
    @settings(max_examples=20, deadline=None)
    def test_probe_output_is_sorted_unique_and_bounded(
        self, lefts, rights
    ):
        index = BlockingIndex.build(
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
        index = BlockingIndex.build(lefts, rights, "tokens")
        before = index.probe("alpha beta")
        for noise in ("zzz", "beta beta beta", "", "alpha"):
            index.probe(noise)
        assert np.array_equal(index.probe("alpha beta"), before)

    def test_novel_query_tokens_act_as_rarest(self):
        """An unseen token gets df=1 (what a batch containing the query
        would compute), so a prefix probe keeps it in the prefix and
        still recovers in-corpus candidates through shared tokens."""
        rights = ["alpha beta", "beta gamma"]
        index = BlockingIndex.build(
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
        index = BlockingIndex.build(["a"], ["a"], "tokens")
        assert index.scheme == canonical_blocking("tokens")
        assert index.n_indexed == 1


class TestPinnedCandidateSets:
    """Catalog candidate sets pinned by digest.

    The digests of ``(left, right, scheme, stats)`` were recorded from
    the whole-collection vectorized join that built candidate sets
    before they were derived from index probes; cached corpora and
    stored ``candidate_set`` artifacts rest on them staying fixed.
    """

    @pytest.mark.parametrize(
        "code, spec, self_join, digest",
        [
            ("d2", "prefix", False, "607f863f8ae0ffb6635153f8c6d535af"),
            ("d3", "minhash", False, "89d648a84837786edbaea29d14954c16"),
            (
                "d8", "tokens+prefix+minhash", False,
                "768261ce3f2c538fd89b46b587ba0b2d",
            ),
            (
                "d4", "tokens:q=4,max_df=0.02", False,
                "bc58fb2bded8e797df117fff65399fc0",
            ),
            ("d4", "tokens", True, "8b1dfdbf9b098bb5b4ff055d62c502be"),
        ],
    )
    def test_digest(self, code, spec, self_join, digest):
        dataset = generate_dataset(
            dataset_spec(code, scale=0.1, max_pairs=80_000), seed=42
        )
        lefts, rights = dataset.left.texts(), dataset.right.texts()
        if self_join:
            lefts = rights = lefts + rights
        candidates = build_candidate_set(lefts, rights, spec)
        assert candidates.left.dtype == candidates.right.dtype == np.intp
        h = hashlib.blake2b(digest_size=16)
        for part in (candidates.left, candidates.right):
            h.update(part.astype(np.int64).tobytes())
            h.update(b"|")
        h.update(
            f"{candidates.n_left},{candidates.n_right},{candidates.scheme},"
            f"{candidates.stats!r}".encode()
        )
        assert h.hexdigest() == digest


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
        grown = BlockingIndex.build(lefts, rights, spec)
        ids = grown.ingest(extra)
        assert ids.tolist() == list(
            range(len(rights), len(rights) + len(extra))
        )
        full = BlockingIndex.build(lefts, rights + extra, spec)
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
        grown = BlockingIndex.build(lefts, rights, spec)
        grown.ingest(extra)
        full = BlockingIndex.build(lefts, rights + extra, spec)
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
        index = BlockingIndex.build(lefts, rights, spec)
        before = {text: index.probe(text) for text in lefts}
        ids = index.ingest(extra)
        for text in lefts:
            after = index.probe(text)
            old = after[after < len(rights)]
            assert np.array_equal(old, before[text])
        for record_id, text in zip(ids.tolist(), extra):
            if tokens(text):
                assert record_id in index.probe(text).tolist()

    @given(lefts=strings, rights=strings, extra=strings)
    @settings(max_examples=20, deadline=None)
    def test_one_batch_ingest_equals_record_by_record(
        self, lefts, rights, extra
    ):
        # One k-record ingest grows each touched posting list once;
        # the lists and probes must equal k one-record ingests.
        for spec in (
            "tokens:max_df=0.5",
            "tokens:q=3,max_df=0.4",
            "prefix:threshold=0.4",
            "minhash:bands=4,perms=8",
        ):
            batched = BlockingIndex.build(lefts, rights, spec)
            single = BlockingIndex.build(lefts, rights, spec)
            ids = batched.ingest(extra)
            for text in extra:
                single.ingest([text])
            assert ids.tolist() == list(range(len(rights), single.n_indexed))
            [grown], [stepped] = batched._probes, single._probes
            assert grown._postings.keys() == stepped._postings.keys()
            for key, posting in grown._postings.items():
                assert posting.dtype == np.int64
                assert np.array_equal(posting, stepped._postings[key])
            for text in (*lefts, *rights, *extra, "novel record"):
                assert np.array_equal(
                    batched.probe(text), single.probe(text)
                ), (spec, text)

    def test_empty_ingest_is_a_noop(self):
        index = BlockingIndex.build(["alpha"], ["alpha beta"], "tokens")
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
        blocked = generate_dirty_corpus(
            dataclasses.replace(config, blocking="tokens")
        )
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
