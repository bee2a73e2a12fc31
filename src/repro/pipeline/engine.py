"""Shared-artifact similarity engine.

The corpus workbench builds one similarity graph per similarity
function of the Section-4 taxonomy.  Naively each function
rebuilds every intermediate it needs — yet most intermediates are
shared by whole groups of functions:

* the 16 schema-based string measures of one attribute share the
  encoded code-point matrix (5 alignment measures) and the sparse
  token-count matrices (8 token measures) of that attribute's values;
* the 6 vector measures of one ``(unit, n)`` n-gram model share the
  n-gram profiles and vocabulary/DF statistics, and split into only
  two distinct :class:`~repro.vectorspace.VectorModel` weightings
  (``tf``/``tfidf``);
* the 4 graph measures of one ``(unit, n)`` model share the sparse
  entity n-gram graphs, whose construction dominates their cost;
* the 3 semantic measures of one ``(model, text-source)`` combination
  share the embedding model instance (and its token cache) plus the
  text/token embeddings.

:class:`ArtifactCache` memoizes these intermediates per dataset.
:meth:`SimilarityEngine.score` is the one scoring entry point of
every path — corpus shards dense or blocked, Table 7, the examples:
it scores a spec group over a row range — every cell, or the blocking
scheme's candidate cells — and returns each spec's raw positive edges
plus its stage timings and savings statistics (:class:`SpecScores`),
**bit-identical** on every positive cell to the direct path that
scored one spec from scratch (the ``compute_similarity_matrix``
oracle in ``tests/oracles/similarity.py``; the differential tests in
``tests/pipeline/test_engine.py`` assert exact equality for every
family, whole range and row ranges alike).

Cache keys and invalidation
---------------------------
Keys are flat tuples — ``("vector_model", unit, n, weighting)``,
``("entity_graphs", unit, n)``, ``("string_batch", attribute)``,
``("string_plan", attribute)`` plus the unique-universe artifacts
``("string_unique_encoded" | "string_unique_tokens" |
"string_token_grid", attribute)`` of the pairwise-kernel engine,
``("semantic_model", name)``, ``("text_embeddings", model, attribute)``
(``attribute is None`` marks the schema-agnostic text source), and —
when blocking is configured — ``("candidate_set", spec)`` /
``("sparse_plan", attribute, spec)`` where ``spec`` is the canonical
blocking string (see :mod:`repro.pipeline.blocking`) — so the
cache-hit tests can assert every key is built exactly once.  The cache
holds derived state of one *generated* dataset only; anything that
changes the generated data (dataset code, ``scale``, ``max_pairs``,
``seed``, noise configuration) must create a fresh
:class:`ArtifactCache`, which the workbench does by constructing one
engine per dataset per corpus run.

Persistence
-----------
Two layers persist across runs.  The graph corpus cache (keyed by
``GraphCorpusConfig.cache_key()``) stores finished *results*; the
:class:`~repro.pipeline.store.ArtifactStore` stores the expensive
*intermediates*.  A cache constructed with ``store=`` and
``dataset_key=(code, scale, max_pairs, seed)`` consults the store
before building any artifact whose kind has a registered codec
(:data:`repro.pipeline.store.STORE_KINDS`) and commits what it builds,
so a later run over the same generated dataset — even under a
different corpus config — loads embeddings, token matrices and entity
graphs instead of rebuilding them.  Loads count in ``load_counts``
(not ``build_counts``) and their wall-clock lands in ``miss_seconds``,
i.e. the ``artifact_seconds`` of :meth:`SimilarityEngine.score`.
Results are bit-identical with the store cold, warm or absent.

Parallelism
-----------
:func:`group_specs` partitions a spec list into contiguous
artifact-sharing groups.  The workbench farms each group's row-range
shards out to a process pool when its ``workers`` knob
(``GraphCorpusConfig.workers``, ``repro corpus --workers N``) exceeds
one.  Workers recreate the dataset deterministically from its spec, so
only the config, the specs and the row range cross the process
boundary, and the raw edges come back; ``workers`` never changes
results or cache keys — it only changes wall-clock.

Below the process level sits the pairwise-kernel engine
(:mod:`repro.pipeline.kernels`): the schema-based string measures run
deduplicated kernels over cache-sized row blocks, one block after
another, in whichever process scores the shard.
"""

from __future__ import annotations

import time
import warnings
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from repro.datasets.generator import CleanCleanDataset
from repro.embeddings.hashing import pool_rows
from repro.ngramgraph import (
    common_edge_matrix,
    entity_graph_matrices,
    pairwise_ratio_sum,
)
from repro.pipeline.batched_strings import (
    StringBatch,
    measure_input,
    schema_based_pairs,
    schema_based_rows,
)
from repro.pipeline.kernels import SparsePlan, row_chunk_size
from repro.pipeline.similarity_functions import (
    SimilarityFunctionSpec,
    graph_measure_matrix,
    make_semantic_model,
    semantic_matrix_from_embeddings,
    vector_measure_matrix,
    weighting_for_measure,
)
from repro.vectorspace import build_profile_space, build_vector_models

__all__ = [
    "ArtifactCache",
    "SimilarityEngine",
    "SpecScores",
    "SpecGroup",
    "group_key",
    "group_specs",
]


class ArtifactCache:
    """Memoized expensive intermediates of one generated dataset.

    Every artifact is built at most once per key (see the module
    docstring for the key vocabulary).  ``build_counts`` and
    ``build_seconds`` record each miss for the cache-hit tests and the
    per-stage timing attribution; ``miss_seconds`` is the running total
    of time spent acquiring artifacts (building or loading), which
    :meth:`SimilarityEngine.score` samples around each spec's scoring
    to split artifact cost from measure cost.

    With ``store`` (an :class:`~repro.pipeline.store.ArtifactStore`)
    and ``dataset_key`` (the ``(code, scale, max_pairs, seed)``
    identity of the generated dataset), persistable artifact kinds are
    loaded from disk when present — counted in ``load_counts`` — and
    committed to disk when built, extending the cache across runs.
    """

    def __init__(
        self,
        dataset: CleanCleanDataset,
        store=None,
        dataset_key: tuple | None = None,
    ) -> None:
        if store is not None and dataset_key is None:
            raise ValueError(
                "a persistent store needs the dataset_key identity "
                "(code, scale, max_pairs, seed)"
            )
        self.dataset = dataset
        self.store = store
        self.dataset_key = dataset_key
        self._warned_save_failure = False
        self._store: dict[tuple, object] = {}
        self.build_counts: Counter[tuple] = Counter()
        self.load_counts: Counter[tuple] = Counter()
        self.build_seconds: dict[tuple, float] = {}
        self._miss_seconds = 0.0

    @property
    def miss_seconds(self) -> float:
        """Total seconds spent building or loading artifacts so far."""
        return self._miss_seconds

    def get(self, key: tuple, builder):
        """The artifact under ``key``: memoized, loaded, or built.

        Resolution order — in-memory memo, then the persistent store
        (persistable kinds only), then ``builder()``; a fresh build is
        committed back to the store.  Either slow path's wall-clock
        counts toward ``miss_seconds``.
        """
        try:
            return self._store[key]
        except KeyError:
            pass
        start = time.perf_counter()
        nested_before = self._miss_seconds
        value = None
        if self.store is not None:
            value = self.store.load(self.dataset_key, key)
        loaded = value is not None
        if loaded:
            self.load_counts[key] += 1
        else:
            value = builder()
            self.build_counts[key] += 1
            if self.store is not None:
                try:
                    self.store.save(self.dataset_key, key, value)
                except Exception as error:
                    # The store is an optimization: a full disk, a
                    # racing cleanup or a codec edge case must not
                    # kill a run that already holds the built
                    # artifact (a store-less run would succeed).
                    # Warn once so a persistently broken store does
                    # not silently disable persistence.
                    if not self._warned_save_failure:
                        self._warned_save_failure = True
                        warnings.warn(
                            f"artifact store write failed for {key!r} "
                            f"({error}); this artifact was not "
                            "persisted (further store-write failures "
                            "in this run will not be reported)",
                            RuntimeWarning,
                            stacklevel=2,
                        )
        # Builders may recurse into the cache (e.g. text embeddings
        # pool the token embeddings); the nested get() already charged
        # its own time, so charge this key only the remainder — the
        # clock stays a wall-clock total under arbitrary nesting.
        elapsed = time.perf_counter() - start
        nested = self._miss_seconds - nested_before
        own = max(elapsed - nested, 0.0)
        self._store[key] = value
        if not loaded:
            self.build_seconds[key] = (
                self.build_seconds.get(key, 0.0) + own
            )
        self._miss_seconds += own
        return value

    # ---------------------------------------------------------- inputs
    def attribute_values(self, attribute: str) -> tuple[list[str], list[str]]:
        return self.get(
            ("values", attribute),
            lambda: (
                self.dataset.left.attribute_values(attribute),
                self.dataset.right.attribute_values(attribute),
            ),
        )

    def texts(self) -> tuple[list[str], list[str]]:
        return self.get(
            ("texts",),
            lambda: (self.dataset.left.texts(), self.dataset.right.texts()),
        )

    def _source(self, attribute: str | None) -> tuple[list[str], list[str]]:
        """Strings of a text source: an attribute or the full texts."""
        if attribute is None:
            return self.texts()
        return self.attribute_values(attribute)

    # ---------------------------------------------- schema-based batch
    def string_batch(self, attribute: str) -> StringBatch:
        lefts, rights = self.attribute_values(attribute)
        return self.get(
            ("string_batch", attribute), lambda: StringBatch(lefts, rights)
        )

    # ------------------------------------------------ candidate pairs
    def candidate_set(self, blocking: str):
        """The blocking candidate set for a (canonical) spec string.

        Built over the schema-agnostic texts (blocking is record-level,
        not attribute-level) and persisted through the store under the
        content key ``("candidate_set", spec)``, so reruns and sibling
        corpus configs sharing the generated dataset reuse it.
        """
        from repro.pipeline.blocking import build_candidate_set

        def build():
            lefts, rights = self.texts()
            return build_candidate_set(lefts, rights, blocking)

        return self.get(("candidate_set", blocking), build)

    def sparse_plan(self, attribute: str, blocking: str) -> SparsePlan:
        """Candidate-cell plan of one attribute's unique-value grid."""
        def build():
            candidates = self.candidate_set(blocking)
            batch = self.string_batch(attribute)
            return SparsePlan.build(
                batch.plan, candidates.left, candidates.right
            )

        return self.get(("sparse_plan", attribute, blocking), build)

    def probe_index(self, blocking: str):
        """The query-time :class:`~repro.pipeline.blocking.BlockingIndex`.

        Memoized but never persisted: the index is a dict-heavy probe
        structure cheap to rebuild from the dataset and expensive to
        serialize, and the serving layer builds it once per process at
        warmup anyway.
        """
        from repro.pipeline.blocking import BlockingIndex

        def build():
            lefts, rights = self.texts()
            return BlockingIndex.build(lefts, rights, blocking)

        return self.get(("probe_index", blocking), build)

    # -------------------------------------------------- vector models
    def profile_space(self, unit: str, n: int):
        texts_left, texts_right = self.texts()
        return self.get(
            ("profile_space", unit, n),
            lambda: build_profile_space(texts_left, texts_right, n, unit),
        )

    def vector_models(self, unit: str, n: int, weighting: str):
        # The profile space resolves inside the builder: a store hit
        # for both weightings of a (unit, n) model never extracts a
        # single n-gram profile.
        def build():
            texts_left, texts_right = self.texts()
            return build_vector_models(
                texts_left,
                texts_right,
                n=n,
                unit=unit,
                weighting=weighting,
                space=self.profile_space(unit, n),
            )

        return self.get(("vector_model", unit, n, weighting), build)

    # --------------------------------------------------- n-gram graphs
    def value_lists(self) -> tuple[list[list[str]], list[list[str]]]:
        return self.get(
            ("value_lists",),
            lambda: (
                self.dataset.left.value_lists(),
                self.dataset.right.value_lists(),
            ),
        )

    def entity_graphs(self, unit: str, n: int):
        def build():
            lists_left, lists_right = self.value_lists()
            return entity_graph_matrices(
                lists_left, lists_right, n=n, unit=unit
            )

        return self.get(("entity_graphs", unit, n), build)

    def graph_ratio_sums(self, unit: str, n: int) -> np.ndarray:
        """Pairwise ratio sums shared by Value/NormValue/Overall."""
        return self.get(
            ("graph_ratio", unit, n),
            lambda: pairwise_ratio_sum(*self.entity_graphs(unit, n)),
        )

    def graph_common_edges(self, unit: str, n: int) -> np.ndarray:
        """Common-edge counts shared by Containment/Overall."""
        return self.get(
            ("graph_common", unit, n),
            lambda: common_edge_matrix(*self.entity_graphs(unit, n)),
        )

    # ------------------------------------------------ semantic models
    def semantic_model(self, name: str):
        return self.get(
            ("semantic_model", name), lambda: make_semantic_model(name)
        )

    def text_embeddings(
        self, model_name: str, attribute: str | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stacked text embeddings, derived from the token embeddings.

        ``embed_texts`` is :func:`~repro.embeddings.hashing.pool_rows`
        of the token matrices (the row means, the zero vector for
        token-less texts), so pooling the cached token matrices is
        bit-identical to calling it — and one token-embedding pass
        serves all three semantic measures.  The model and token
        matrices resolve inside the builder, so a store hit serves the
        cosine/euclidean measures without instantiating a model or
        touching the token embeddings.
        """

        def build():
            model = self.semantic_model(model_name)
            return tuple(
                pool_rows(side, model.dim)
                for side in self.token_embeddings(model_name, attribute)
            )

        return self.get(("text_embeddings", model_name, attribute), build)

    def token_embeddings(
        self, model_name: str, attribute: str | None
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        def build():
            model = self.semantic_model(model_name)
            return tuple(map(model.embed_collection, self._source(attribute)))

        return self.get(("token_embeddings", model_name, attribute), build)

    def wmd_stats(self, model_name: str, attribute: str | None):
        """Per-text RWMD statistics (squared norms and weights)."""
        from repro.embeddings.wmd import token_stats

        token_left, token_right = self.token_embeddings(
            model_name, attribute
        )
        return self.get(
            ("wmd_stats", model_name, attribute),
            lambda: (
                [token_stats(matrix) for matrix in token_left],
                [token_stats(matrix) for matrix in token_right],
            ),
        )


@dataclass(frozen=True)
class SpecScores:
    """One spec's result of :meth:`SimilarityEngine.score`.

    ``left``/``right``/``values`` are the raw (unclipped) positive
    scores of the scored row range with absolute record indices, in
    row-major order (dense) or candidate order (blocked) — the order
    the full-range graph construction emits, so concatenating
    consecutive ranges reproduces the full edge stream.
    ``artifact_seconds`` is the time spent building or loading
    artifacts (zero on a warm cache) and ``score_seconds`` the rest of
    the spec's wall-clock.  ``dedup_ratio`` (scored unique cells per
    cell; 1.0 outside the string family) and ``candidate_reduction``
    (dense cells per candidate pair; 1.0 without blocking) describe
    the whole dataset, not the range.
    """

    left: np.ndarray
    right: np.ndarray
    values: np.ndarray
    artifact_seconds: float = 0.0
    score_seconds: float = 0.0
    dedup_ratio: float = 1.0
    candidate_reduction: float = 1.0

    @property
    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.left, self.right, self.values


class SimilarityEngine:
    """Scores similarity functions through an :class:`ArtifactCache`.

    Produces bit-identical results to the direct path that builds
    each spec's artifacts from scratch (the
    ``compute_similarity_matrix`` oracle in
    ``tests/oracles/similarity.py``) — same kernels, same inputs —
    while building every shared artifact once.  ``store``/``dataset_key`` (see :class:`ArtifactCache`)
    additionally persist the artifacts across runs; neither affects
    any produced score.

    With ``blocking`` (a spec string for
    :func:`~repro.pipeline.blocking.parse_blocking_spec`),
    :meth:`score` scores only the candidate pairs of the blocking
    scheme — the sparse path.
    """

    def __init__(
        self,
        dataset: CleanCleanDataset,
        cache: ArtifactCache | None = None,
        store=None,
        dataset_key: tuple | None = None,
        blocking: str | None = None,
    ) -> None:
        self.dataset = dataset
        if cache is None:
            cache = ArtifactCache(dataset, store=store, dataset_key=dataset_key)
        elif store is not None or dataset_key is not None:
            raise ValueError(
                "pass store/dataset_key to the ArtifactCache when "
                "supplying an explicit cache — they would otherwise "
                "be silently ignored"
            )
        self.cache = cache
        if blocking is not None:
            from repro.pipeline.blocking import canonical_blocking

            blocking = canonical_blocking(blocking)
        self.blocking = blocking

    def shape(self) -> tuple[int, int]:
        """``(n_left, n_right)`` record counts of the scored space."""
        texts_left, texts_right = self.cache.texts()
        return len(texts_left), len(texts_right)

    def score(
        self,
        specs,
        start: int = 0,
        stop: int | None = None,
    ) -> list[SpecScores]:
        """Per-spec :class:`SpecScores` of record rows ``[start, stop)``.

        The one scoring entry point: a dense run passes the whole
        range, a shard its row range, and an engine with ``blocking``
        scores only the candidate cells of the range.  ``specs`` is
        meant to be one artifact-sharing group (:func:`group_specs`):
        iteration is block-outer / spec-inner, so block-level
        intermediates are built once per block and peak memory stays
        at one dense block however many specs ride along.

        The string family scores any range from the cached,
        store-seeded :class:`StringBatch` — candidate cells directly
        under blocking, dense row chunks otherwise, with no grid
        alignment.  The vector, graph and semantic families evaluate
        whole cells of the absolute row-chunk grid
        (:func:`~repro.pipeline.kernels.row_chunk_size`) and keep the
        rows they own, because their BLAS reductions reproduce bit for
        bit only on the same blocks.  A block spanning every row —
        every dense whole-range call — uses the memoized (and stored)
        whole-grid artifacts.
        """
        candidates = None
        if self.blocking is not None:
            candidates = self.cache.candidate_set(self.blocking)
        n_left, n_right = self.shape()
        stop = n_left if stop is None else min(int(stop), n_left)
        start = min(max(int(start), 0), stop)
        strings = all(s.family == "schema_based_syntactic" for s in specs)
        if candidates is None and (start, stop) == (0, n_left):
            blocks = [(0, n_left)]
        elif candidates is not None and strings:
            blocks = [(start, stop)]
        else:
            blocks = _chunk_blocks(
                start, stop, row_chunk_size(n_right), n_left, not strings
            )
        parts: list[list[list[np.ndarray]]] = [[[], [], []] for _ in specs]
        clocks = [[0.0, 0.0] for _ in specs]
        for lo, hi in blocks:
            row_lo, row_hi = max(start, lo), min(stop, hi)
            pairs = None
            if candidates is not None:
                pair_lo, pair_hi = np.searchsorted(
                    candidates.left, [row_lo, row_hi]
                )
                if pair_lo == pair_hi:
                    continue
                pairs = (
                    candidates.left[pair_lo:pair_hi],
                    candidates.right[pair_lo:pair_hi],
                )
            scratch: dict = {}
            for index, spec in enumerate(specs):
                before = self.cache.miss_seconds
                begin = time.perf_counter()
                edges = self._block_edges(
                    spec, lo, hi, row_lo, row_hi, pairs, scratch
                )
                elapsed = time.perf_counter() - begin
                own = self.cache.miss_seconds - before
                clocks[index][0] += own
                clocks[index][1] += max(elapsed - own, 0.0)
                for part, array in zip(parts[index], edges):
                    part.append(array)
        return [
            SpecScores(
                *(
                    np.concatenate(part) if part else np.empty(0, dtype)
                    for part, dtype in zip(
                        spec_parts, (np.intp, np.intp, np.float64)
                    )
                ),
                artifact_seconds=artifact,
                score_seconds=scoring,
                **self._stats(spec, candidates),
            )
            for spec, spec_parts, (artifact, scoring) in zip(
                specs, parts, clocks
            )
        ]

    def _stats(self, spec: SimilarityFunctionSpec, candidates) -> dict:
        """Whole-dataset savings statistics of ``spec``."""
        stats = {}
        if candidates is not None:
            stats["candidate_reduction"] = candidates.reduction
        if spec.family == "schema_based_syntactic":
            attribute = spec.details["attribute"]
            plan = (
                self.cache.string_batch(attribute).plan
                if candidates is None
                else self.cache.sparse_plan(attribute, self.blocking)
            )
            stats["dedup_ratio"] = plan.dedup_ratio
        return stats

    def _block_edges(
        self,
        spec: SimilarityFunctionSpec,
        lo: int,
        hi: int,
        row_lo: int,
        row_hi: int,
        pairs,
        scratch: dict,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Positive edges of rows ``[row_lo, row_hi)`` from block ``[lo, hi)``.

        ``pairs`` holds the candidate cells of those rows under
        blocking (``None`` when dense): string specs score them
        directly, the other families gather them from the dense block.
        """
        if pairs is not None and spec.family == "schema_based_syntactic":
            pair_left, pair_right = pairs
            values = self._string_pair_values(spec, pair_left, pair_right)
        else:
            block = self._block_rows(spec, lo, hi, scratch)
            if pairs is None:
                sub = block[row_lo - lo : row_hi - lo]
                rows, cols = np.nonzero(sub > 0.0)
                return rows + row_lo, cols, sub[rows, cols]
            pair_left, pair_right = pairs
            values = block[pair_left - lo, pair_right]
        keep = values > 0.0
        return pair_left[keep], pair_right[keep], values[keep]

    def _string_pair_values(
        self,
        spec: SimilarityFunctionSpec,
        pair_left: np.ndarray,
        pair_right: np.ndarray,
    ) -> np.ndarray:
        """Candidate-cell scores of a string spec (memoized plan when
        the cells are the whole candidate set)."""
        attribute = spec.details["attribute"]
        measure = spec.details["measure"]
        batch = self._seed_schema_artifacts(attribute, measure)
        candidates = self.cache.candidate_set(self.blocking)
        if pair_left.shape[0] == candidates.n_pairs:
            plan = self.cache.sparse_plan(attribute, self.blocking)
        else:
            plan = SparsePlan.build(batch.plan, pair_left, pair_right)
        return schema_based_pairs(
            *self.cache.attribute_values(attribute), measure, plan, batch
        )

    def _block_rows(
        self,
        spec: SimilarityFunctionSpec,
        start: int,
        stop: int,
        scratch: dict,
    ) -> np.ndarray:
        """Dense rows ``[start, stop)`` of ``spec``'s matrix.

        Bitwise equal to the same rows of the full matrix for any
        range of a string spec (the cell kernels are per-cell exact)
        and for any block of the absolute row-chunk grid otherwise:
        the vector/graph reductions are row-local and the semantic
        gemms are chunked on exactly that grid.  ``scratch`` holds
        block-level intermediates shared by sibling specs scoring the
        same block; callers discard it between blocks to keep memory
        bounded.
        """
        if spec.family == "schema_based_syntactic":
            measure = spec.details["measure"]
            batch = self._seed_schema_artifacts(
                spec.details["attribute"], measure
            )
            return schema_based_rows(batch, measure, start, stop)
        if spec.family == "schema_agnostic_syntactic":
            if spec.details["model"] == "vector":
                return self._vector_rows(spec, start, stop)
            return self._graph_rows(spec, start, stop, scratch)
        if spec.family == "schema_based_semantic":
            return self._semantic_rows(
                spec, spec.details["attribute"], start, stop
            )
        return self._semantic_rows(spec, None, start, stop)

    def _vector_rows(
        self, spec: SimilarityFunctionSpec, start: int, stop: int
    ) -> np.ndarray:
        measure = spec.details["measure"]
        left, right = self.cache.vector_models(
            spec.details["unit"],
            spec.details["n"],
            weighting_for_measure(measure),
        )
        if (start, stop) != (0, left.matrix.shape[0]):
            # Row-slice the left model only; document frequencies and
            # the vocabulary stay collection-global (ARCS weights by
            # global DF).
            left = replace(
                left,
                matrix=left.matrix[start:stop],
                binary=left.binary[start:stop],
            )
        return vector_measure_matrix(left, right, measure)

    def _graph_rows(
        self, spec: SimilarityFunctionSpec, start: int, stop: int, scratch: dict
    ) -> np.ndarray:
        unit, n = spec.details["unit"], spec.details["n"]
        measure = spec.details["measure"]
        sparse_left, sparse_right = self.cache.entity_graphs(unit, n)
        needs_ratio = measure in ("value", "normalized_value", "overall")
        needs_common = measure in ("containment", "overall")
        ratio = common = None
        if (start, stop) == (0, sparse_left.shape[0]):
            rows_left = sparse_left
            if needs_ratio:
                ratio = self.cache.graph_ratio_sums(unit, n)
            if needs_common:
                common = self.cache.graph_common_edges(unit, n)
        else:
            rows_left = sparse_left[start:stop]
            if needs_ratio:
                key = ("graph_ratio", unit, n)
                if key not in scratch:
                    scratch[key] = pairwise_ratio_sum(rows_left, sparse_right)
                ratio = scratch[key]
            if needs_common:
                key = ("graph_common", unit, n)
                if key not in scratch:
                    scratch[key] = common_edge_matrix(rows_left, sparse_right)
                common = scratch[key]
        return graph_measure_matrix(
            rows_left, sparse_right, measure, ratio=ratio, common=common
        )

    def _semantic_rows(
        self,
        spec: SimilarityFunctionSpec,
        attribute: str | None,
        start: int,
        stop: int,
    ) -> np.ndarray:
        model_name = spec.details["model"]
        measure = spec.details["measure"]
        lefts, rights = self.cache._source(attribute)
        wmd_stats = None
        if measure == "wmd":
            token_left, token_right = self.cache.token_embeddings(
                model_name, attribute
            )
            stats_left, stats_right = self.cache.wmd_stats(
                model_name, attribute
            )
            embeddings = (token_left[start:stop], token_right)
            wmd_stats = (stats_left[start:stop], stats_right)
        else:
            text_left, text_right = self.cache.text_embeddings(
                model_name, attribute
            )
            embeddings = (text_left[start:stop], text_right)
        return semantic_matrix_from_embeddings(
            lefts[start:stop],
            rights,
            measure,
            embeddings[0],
            embeddings[1],
            wmd_stats=wmd_stats,
        )

    def _seed_schema_artifacts(self, attribute: str, measure: str):
        batch = self.cache.string_batch(attribute)
        # Materialize the measure's shared unique-universe artifacts
        # under the cache clock so their cost is attributed to the
        # artifact stage (the batch builds them lazily either way).
        # When an artifact arrives from the persistent store instead,
        # seed the batch's lazy slot with it so the kernels consume
        # the loaded arrays (see StringBatch.seed_artifact).
        self.cache.get(("string_plan", attribute), lambda: batch.plan)
        source = measure_input(measure)
        if source == "encoded":
            encoded = self.cache.get(
                ("string_unique_encoded", attribute),
                lambda: (
                    batch.unique_left_encoding,
                    batch.unique_right_encoding,
                ),
            )
            batch.seed_artifact("unique_left_encoding", encoded[0])
            batch.seed_artifact("unique_right_encoding", encoded[1])
        elif source == "tokens":
            token_sparse = self.cache.get(
                ("string_unique_tokens", attribute),
                lambda: batch.unique_token_sparse,
            )
            batch.seed_artifact("unique_token_sparse", token_sparse)
        elif source == "monge_elkan":
            grid = self.cache.get(
                ("string_token_grid", attribute),
                lambda: batch.monge_elkan_grid,
            )
            batch.seed_artifact("monge_elkan_grid", grid)
        return batch


def _chunk_blocks(
    start: int, stop: int, chunk: int, n_rows: int, aligned: bool
):
    """Blocks of at most ``chunk`` rows covering ``[start, stop)``.

    ``aligned`` yields whole cells ``[k*chunk, min((k+1)*chunk,
    n_rows))`` of the absolute chunk grid regardless of where the
    range starts or ends — callers keep the rows they own.  Evaluating
    only whole grid cells keeps every chunk-internal BLAS gemm bitwise
    identical to the blocks the unsharded chunked pass performs, which
    is what makes shard boundaries free to land on any row.  Otherwise
    the blocks start at ``start`` and stop at ``stop``.
    """
    lo = start - (start % chunk) if aligned else start
    while lo < stop:
        hi = min(lo + chunk, n_rows if aligned else stop)
        yield lo, hi
        lo = hi


@dataclass(frozen=True)
class SpecGroup:
    """A contiguous run of specs sharing their expensive artifacts."""

    key: tuple
    specs: tuple[SimilarityFunctionSpec, ...]


def group_key(spec: SimilarityFunctionSpec) -> tuple:
    """The artifact-sharing group a spec belongs to."""
    if spec.family == "schema_based_syntactic":
        return ("schema_based", spec.details["attribute"])
    if spec.family == "schema_agnostic_syntactic":
        return (
            spec.details["model"],
            spec.details["unit"],
            spec.details["n"],
        )
    if spec.family == "schema_based_semantic":
        return ("semantic", spec.details["model"], spec.details["attribute"])
    return ("semantic", spec.details["model"], None)


def group_specs(specs: list[SimilarityFunctionSpec]) -> list[SpecGroup]:
    """Partition ``specs`` into artifact-sharing groups.

    Groups keep first-seen key order and specs keep their relative
    order; because :func:`enumerate_function_specs` emits each group's
    specs contiguously, concatenating the groups reproduces the input
    order exactly — the corpus is invariant under grouping.
    """
    ordered: dict[tuple, list[SimilarityFunctionSpec]] = {}
    for spec in specs:
        ordered.setdefault(group_key(spec), []).append(spec)
    return [
        SpecGroup(key=key, specs=tuple(members))
        for key, members in ordered.items()
    ]
