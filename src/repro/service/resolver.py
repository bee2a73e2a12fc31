"""The service's resolution core: frozen indexes + query execution.

This module is the **index/query split** the serving layer forces on
the engine.  The batch pipeline treats a dataset as one throwaway
computation; a service instead pays the expensive parts once —
generate the dataset, load or build its artifacts through the
:class:`~repro.pipeline.engine.ArtifactCache` (hitting the persistent
:class:`~repro.pipeline.store.ArtifactStore` when one is configured),
and freeze the query-time :class:`~repro.pipeline.blocking.BlockingIndex`
— and then answers an unbounded stream of queries against the frozen
state.

* :class:`ResolverIndex` — the per-dataset frozen half: immutable
  after :meth:`ResolverIndex.build`, safe to probe from any number of
  concurrent requests.
* :class:`ResolverService` — the query half: stateless functions over
  the indexes.  :meth:`ResolverService.resolve_batch` scores *any*
  number of queries against a dataset in **one** kernel-engine pass
  (one :class:`~repro.pipeline.batched_strings.StringBatch`, one
  :class:`~repro.pipeline.kernels.SparsePlan`), which is what the
  micro-batch scheduler exploits to coalesce concurrent requests.

Per-pair scores are independent of which other queries share a pass
(every schema-based measure is computed per unique pair from exact
integer-valued statistics), so a coalesced batch returns bit-identical
scores to one-query-at-a-time execution — the property
``tests/service/test_coalescing.py`` and ``benchmarks/bench_service.py``
assert.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.datasets.catalog import dataset_spec
from repro.datasets.generator import CleanCleanDataset, generate_dataset
from repro.graph.bipartite import SimilarityGraph
from repro.matching.registry import ALGORITHM_CODES, create_matcher
from repro.pipeline.batched_strings import (
    ALIGNMENT_MEASURES,
    TOKEN_MATRIX_MEASURES,
    StringBatch,
    schema_based_matrix,
    schema_based_pairs,
)
from repro.pipeline.blocking import BlockingIndex, canonical_blocking
from repro.pipeline.engine import ArtifactCache
from repro.pipeline.kernels import SparsePlan
from repro.pipeline.store import ArtifactStore, dataset_store_key

__all__ = [
    "RESOLVE_MEASURES",
    "Match",
    "ResolverIndex",
    "ResolverService",
]

#: Every measure the service can score a pair with: the full
#: schema-based kernel family (token-matrix, alignment-DP, Jaro,
#: q-grams and Monge-Elkan).
RESOLVE_MEASURES: tuple[str, ...] = tuple(
    sorted(
        TOKEN_MATRIX_MEASURES
        + ALIGNMENT_MEASURES
        + ("jaro", "qgrams", "monge_elkan")
    )
)


@dataclass(frozen=True)
class Match:
    """One resolved candidate: indexed record id, text and score."""

    record_id: str
    text: str
    score: float

    def payload(self) -> dict:
        return {
            "id": self.record_id,
            "text": self.text,
            "score": self.score,
        }


@dataclass(frozen=True)
class ResolverIndex:
    """Frozen per-dataset serving state, built once at warmup.

    Queries resolve against the dataset's *right* collection (the
    indexed side); the blocking index freezes corpus statistics over
    both collections exactly as the batch build computes them, so
    probes match batch candidate rows bit-for-bit.
    """

    code: str
    blocking: str
    dataset: CleanCleanDataset = field(repr=False)
    cache: ArtifactCache = field(repr=False)
    probe: BlockingIndex = field(repr=False)
    rights: list[str] = field(repr=False)
    right_ids: list[str] = field(repr=False)

    @classmethod
    def build(
        cls,
        code: str,
        blocking: str,
        scale: float | None = None,
        max_pairs: int | None = None,
        seed: int = 42,
        store: ArtifactStore | None = None,
    ) -> "ResolverIndex":
        spec = dataset_spec(code, scale, max_pairs)
        dataset = generate_dataset(spec, seed)
        cache = ArtifactCache(
            dataset,
            store=store,
            dataset_key=dataset_store_key(code, scale, max_pairs, seed),
        )
        blocking = canonical_blocking(blocking)
        probe = cache.probe_index(blocking)
        _, rights = cache.texts()
        right_ids = [
            profile.identifier for profile in dataset.right.profiles
        ]
        return cls(
            code=spec.code,
            blocking=blocking,
            dataset=dataset,
            cache=cache,
            probe=probe,
            rights=rights,
            right_ids=right_ids,
        )

    @property
    def n_indexed(self) -> int:
        return len(self.rights)

    def ingest(self, records: list[tuple[str, str]]) -> int:
        """Ingest ``(record_id, text)`` pairs into the warm index.

        The incremental counterpart of a cold rebuild: the blocking
        index grows its posting lists in place under its frozen
        build-time statistics (:meth:`BlockingIndex.ingest`) and the
        indexed collection extends, so the very next probe can surface
        the new records.  Scoring needs no update at all — every
        resolve pass builds its :class:`StringBatch` from the current
        ``rights``.  Returns the new indexed-collection size.
        """
        texts = [text for _, text in records]
        self.probe.ingest(texts)
        self.right_ids.extend(record_id for record_id, _ in records)
        self.rights.extend(texts)
        return self.n_indexed

    def describe(self) -> dict:
        return {
            "code": self.code,
            "blocking": self.blocking,
            "n_indexed": self.n_indexed,
            "n_left": len(self.dataset.left.profiles),
        }


class ResolverService:
    """Query execution over a set of warm :class:`ResolverIndex`es."""

    def __init__(self, indexes: dict[str, ResolverIndex]) -> None:
        self._indexes = dict(indexes)
        # Ingests and resolve passes run on executor threads.  An ingest
        # grows the probe's posting lists before the indexed collection,
        # so one lock keeps every pass on a whole pre- or post-ingest
        # index.
        self._lock = threading.Lock()

    # ------------------------------------------------------- inventory
    @property
    def datasets(self) -> tuple[str, ...]:
        return tuple(sorted(self._indexes))

    def describe(self) -> list[dict]:
        return [
            self._indexes[code].describe() for code in self.datasets
        ]

    def index(self, code: str) -> ResolverIndex:
        try:
            return self._indexes[code.lower()]
        except KeyError:
            known = ", ".join(self.datasets)
            raise KeyError(
                f"dataset {code!r} is not served; serving: {known}"
            ) from None

    # ---------------------------------------------------------- ingest
    def ingest(self, code: str, records: list[tuple[str, str]]) -> dict:
        """Ingest records into the warm index of dataset ``code``.

        Records are ``(record_id, text)`` pairs appended to the
        indexed (right) collection; ids need not be unique but empty
        texts or ids are rejected.  Subsequent :meth:`resolve_batch`
        calls see the new records immediately — no rebuild, no
        service restart.
        """
        index = self.index(code)
        for record_id, text in records:
            if not record_id or not text:
                raise ValueError(
                    "every record needs a non-empty id and text"
                )
        with self._lock:
            n_indexed = index.ingest(records)
        return {
            "dataset": index.code,
            "added": len(records),
            "n_indexed": n_indexed,
        }

    # --------------------------------------------------------- resolve
    def resolve_batch(
        self,
        code: str,
        measure: str,
        queries: list[str],
        top_k: int = 10,
    ) -> list[list[Match]]:
        """Resolve ``queries`` against dataset ``code`` in one pass.

        Each query is probed through the frozen blocking index; all
        surviving (query, candidate) cells are scored by a single
        sparse kernel pass.  Returns per-query matches sorted by
        descending score (ties by record id), truncated to ``top_k``.
        """
        if measure not in RESOLVE_MEASURES:
            known = ", ".join(RESOLVE_MEASURES)
            raise KeyError(f"unknown measure {measure!r}; known: {known}")
        index = self.index(code)
        with self._lock:
            candidates = [index.probe.probe(query) for query in queries]
            counts = [ids.shape[0] for ids in candidates]
            total = sum(counts)
            if total == 0:
                return [[] for _ in queries]
            pair_left = np.repeat(
                np.arange(len(queries), dtype=np.intp),
                np.asarray(counts, dtype=np.intp),
            )
            pair_right = np.concatenate(
                [ids for ids in candidates if ids.shape[0]]
            ).astype(np.intp)
            batch = StringBatch(list(queries), index.rights)
            sparse_plan = SparsePlan.build(batch.plan, pair_left, pair_right)
            values = schema_based_pairs(
                list(queries), index.rights, measure, sparse_plan, batch
            )
            results: list[list[Match]] = []
            offset = 0
            for ids, count in zip(candidates, counts):
                scores = values[offset:offset + count]
                offset += count
                order = np.argsort(-scores, kind="stable")[:top_k]
                results.append(
                    [
                        Match(
                            record_id=index.right_ids[int(ids[k])],
                            text=index.rights[int(ids[k])],
                            score=float(scores[k]),
                        )
                        for k in order
                    ]
                )
            return results

    # ----------------------------------------------------------- match
    def match(
        self,
        lefts: list[str],
        rights: list[str],
        algorithm: str,
        threshold: float,
        measure: str,
    ) -> list[tuple[int, int, float]]:
        """Match two ad-hoc collections with one of the 10 algorithms.

        Scores the dense ``len(lefts) x len(rights)`` grid with
        ``measure``, builds a similarity graph and runs the requested
        bipartite matcher at ``threshold``.  Returns matched
        ``(left, right, score)`` triples sorted by left index.
        """
        algorithm = algorithm.upper()
        if algorithm not in ALGORITHM_CODES:
            known = " ".join(sorted(ALGORITHM_CODES))
            raise KeyError(
                f"unknown algorithm {algorithm!r}; known: {known}"
            )
        if measure not in RESOLVE_MEASURES:
            known = ", ".join(RESOLVE_MEASURES)
            raise KeyError(f"unknown measure {measure!r}; known: {known}")
        if not (0.0 <= threshold <= 1.0):
            raise ValueError(
                f"threshold must be in [0, 1], got {threshold}"
            )
        matrix = schema_based_matrix(list(lefts), list(rights), measure)
        graph = SimilarityGraph.from_matrix(matrix, name="service-match")
        result = create_matcher(algorithm).match(graph, threshold)
        return sorted(
            (i, j, float(matrix[i, j])) for i, j in result.pairs
        )
