"""The service's resolution core: warm indexes + query execution.

This module is the **index/query split** the serving layer forces on
the engine.  The batch pipeline treats a dataset as one throwaway
computation; a service instead pays the expensive parts once —
generate the dataset, load or build its artifacts through the
:class:`~repro.pipeline.engine.ArtifactCache` (hitting the persistent
:class:`~repro.pipeline.store.ArtifactStore` when one is configured),
freeze the query-time :class:`~repro.pipeline.blocking.BlockingIndex`
and build the indexed collection's
:class:`~repro.pipeline.batched_strings.StringSide` — and then answers
an unbounded stream of queries against that state.

* :class:`ResolverIndex` — the per-dataset warm half: the probe index
  and the indexed side's string artifacts, grown in place by
  :meth:`ResolverIndex.ingest` and otherwise read-only.
* :class:`ResolverService` — the query half: stateless functions over
  the indexes.  :meth:`ResolverService.resolve_batch` scores *any*
  number of queries against a dataset in **one** kernel-engine pass:
  it builds the queries' side, takes the candidates' rows of the
  indexed side (:meth:`StringBatch.against
  <repro.pipeline.batched_strings.StringBatch.against>`) and scores
  one :class:`~repro.pipeline.kernels.SparsePlan`, so a pass costs
  time in its queries and candidates, not in the indexed collection.
  The micro-batch scheduler coalesces concurrent requests into one
  such pass.

Per-pair scores are independent of which other queries share a pass
and of how the indexed side numbers its keys (every schema-based
measure is computed per unique pair from exact integer-valued
statistics), so a coalesced batch returns bit-identical scores to
one-query-at-a-time execution and to the all-pairs matrix — the
properties ``tests/service/test_coalescing.py``,
``tests/service/test_resolve_sides.py`` and
``benchmarks/bench_service.py`` assert.
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
    SCHEMA_BASED_MEASURES,
    StringBatch,
    StringSide,
    check_measure,
    schema_based_cells,
    schema_based_matrix,
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

#: Every measure the service can score a pair with, sorted: the 16
#: schema-based measures.
RESOLVE_MEASURES: tuple[str, ...] = tuple(sorted(SCHEMA_BASED_MEASURES))


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
    """Per-dataset serving state, built once at warmup.

    Queries resolve against the dataset's *right* collection (the
    indexed side); the blocking index freezes corpus statistics over
    both collections exactly as the batch build computes them, so
    probes match batch candidate rows bit-for-bit.  ``strings`` holds
    the indexed side's string artifacts: each measure family's are
    built on first use (the configured measure's at warmup) and kept.
    """

    code: str
    blocking: str
    dataset: CleanCleanDataset = field(repr=False)
    cache: ArtifactCache = field(repr=False)
    probe: BlockingIndex = field(repr=False)
    rights: list[str] = field(repr=False)
    right_ids: list[str] = field(repr=False)
    strings: StringSide = field(repr=False)

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
            strings=StringSide(rights),
        )

    @property
    def n_indexed(self) -> int:
        return len(self.rights)

    def ingest(self, records: list[tuple[str, str]]) -> int:
        """Ingest ``(record_id, text)`` pairs into the warm index.

        The incremental counterpart of a cold rebuild: the blocking
        index grows its posting lists in place under its frozen
        build-time statistics (:meth:`BlockingIndex.ingest`), and the
        indexed side's built string artifacts extend in place
        (:meth:`StringSide.extend`: new values add rows, new keys add
        columns, no column moves), so the very next probe and pass see
        the new records.  The string side, whose extend is all or
        nothing, grows first, so a text it rejects leaves the whole
        index as it was.  Returns the new indexed-collection size.
        """
        texts = [text for _, text in records]
        self.strings.extend(texts)
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
        # grows the indexed side, then the probe's posting lists, then
        # the record list, and a pass may build a measure family of the
        # indexed side, so one lock keeps every pass on a whole pre- or
        # post-ingest index.
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
        texts or ids are rejected, and so are texts with a lone
        surrogate (JSON escapes can spell one), which have no
        code-point encoding or UTF-8 bytes to hash.  Subsequent
        :meth:`resolve_batch` calls see the new records immediately —
        no rebuild, no service restart.
        """
        index = self.index(code)
        for record_id, text in records:
            if not record_id or not text:
                raise ValueError(
                    "every record needs a non-empty id and text"
                )
            try:
                text.encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError(
                    f"record {record_id!r}: text is not valid Unicode "
                    "(it holds a lone surrogate)"
                ) from None
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
        sparse kernel pass over the queries' side and the candidates'
        rows of the indexed side.  The pass leaves the index as it
        was, except that it builds ``measure``'s family of indexed
        artifacts on its first use.  Returns per-query matches sorted
        by descending score (ties by record id), truncated to
        ``top_k``.
        """
        check_measure(measure)
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
            records, pair_right = np.unique(
                np.concatenate([ids for ids in candidates if ids.shape[0]]),
                return_inverse=True,
            )
            batch = StringBatch.against(
                list(queries), index.strings, records, measure
            )
            sparse_plan = SparsePlan.build(batch.plan, pair_left, pair_right)
            values = sparse_plan.scatter(
                schema_based_cells(
                    batch,
                    measure,
                    sparse_plan.cell_left,
                    sparse_plan.cell_right,
                )
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
        check_measure(measure)
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
