"""A resolve pass over the kept indexed side equals the all-pairs matrix.

A pass builds only its queries' side and takes its candidates' rows of
the index's kept right side (``StringBatch.against``); ingests extend
that side in place.  Every score must equal the ``schema_based_matrix``
cell of the same (query, record) pair bit for bit, whatever was
ingested and whenever a measure family was first used, and a pass must
leave the kept side's vocabularies and arrays as it found them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.pipeline.batched_strings import measure_input, schema_based_matrix
from repro.service.resolver import (
    RESOLVE_MEASURES,
    ResolverIndex,
    ResolverService,
)

SERVICE_DATASET = "d1"

#: Character-trigram blocking, so a query made only of words the index
#: has never seen still has candidates to score.
BLOCKING = "tokens:q=3"

#: Side artifact a pass reads, per measure input.
READS = {
    "encoded": "encoding",
    "tokens": "token_counts",
    "qgrams": "qgram_counts",
    "monge_elkan": "token_lists",
}

#: Query-only words: no indexed or ingested record holds them.
UNSEEN_QUERY = "qxzvolden drqxzgon"


def _service() -> tuple[ResolverIndex, ResolverService]:
    index = ResolverIndex.build(
        SERVICE_DATASET, blocking=BLOCKING, scale=0.05, max_pairs=2000
    )
    index.strings.prepare("jaccard")  # the service's warmup measure
    return index, ResolverService({index.code: index})


def _queries(index: ResolverIndex) -> list[str]:
    lefts, _ = index.cache.texts()
    return [
        *lefts[:5],
        lefts[0],  # a duplicate query
        UNSEEN_QUERY,
        "!!!",  # no tokens, but trigrams
        "zephyrine quillwort",  # unseen until the first ingest
    ]


def _ingests(index: ResolverIndex) -> list[list[tuple[str, str]]]:
    rights = list(index.rights)
    longest = max(rights, key=len)
    return [
        [
            ("new-0", "zephyrine quillwort obsidianite"),
            ("new-1", "!!!"),
        ],
        [
            ("new-2", f"{longest} {longest} zephyrine"),
            ("new-3", rights[3]),  # a duplicate of an indexed value
        ],
    ]


def _snapshot(index: ResolverIndex) -> dict:
    """Vocabularies and array shapes of the kept right side."""
    side = index.strings
    state = {
        "values": len(side.values),
        "records": side.inverse.shape,
        "vocabularies": {
            name: list(vocabulary.items())
            for name, vocabulary in side.vocabularies.items()
        },
    }
    for name, built in side._artifacts.items():
        if name == "encoding":
            state[name] = (built[0].shape, built[1].shape)
        elif name == "token_lists":
            state[name] = len(built)
        elif name == "monge_elkan":
            state[name] = (len(built[0]), len(built[1]))
        else:
            state[name] = built.shape
    return state


def _check_pass(
    index: ResolverIndex, service: ResolverService, measure: str
) -> None:
    queries = _queries(index)
    family = READS[measure_input(measure)]
    before = _snapshot(index)
    results = service.resolve_batch(
        SERVICE_DATASET, measure, queries, top_k=10**6
    )
    after = _snapshot(index)
    if family in before:
        assert after == before, measure
    else:  # the family's first use builds it and its vocabulary only
        grown = {"token_counts": "tokens", "qgram_counts": "qgrams"}
        vocabularies = dict(before["vocabularies"])
        if family in grown:
            vocabularies[grown[family]] = after["vocabularies"][
                grown[family]
            ]
        assert after == {
            **before,
            family: after[family],
            "vocabularies": vocabularies,
        }, measure
    for vocabulary in index.strings.vocabularies.values():
        assert "qxzvolden" not in vocabulary
        assert "qxz" not in vocabulary
    matrix = schema_based_matrix(queries, list(index.rights), measure)
    row_of = {record_id: k for k, record_id in enumerate(index.right_ids)}
    assert len(row_of) == index.n_indexed
    scored = 0
    for q, (query, matches) in enumerate(zip(queries, results)):
        candidates = index.probe.probe(query)
        assert sorted(row_of[m.record_id] for m in matches) == sorted(
            candidates.tolist()
        )
        got = np.array([m.score for m in matches], dtype=np.float64)
        want = matrix[q, [row_of[m.record_id] for m in matches]]
        assert got.view(np.uint64).tolist() == want.view(
            np.uint64
        ).tolist(), (measure, query)
        scored += len(matches)
    assert scored > 0
    assert results[0] == results[5]  # duplicate queries agree
    assert results[6], "the unseen-word query found no candidates"
    again = service.resolve_batch(
        SERVICE_DATASET, measure, queries, top_k=10**6
    )
    assert again == results
    assert _snapshot(index) == after


@pytest.mark.parametrize("first_use", ["before_ingest", "after_ingest"])
@pytest.mark.parametrize("measure", RESOLVE_MEASURES)
def test_pass_scores_equal_the_matrix(measure, first_use):
    index, service = _service()
    if first_use == "before_ingest":
        _check_pass(index, service, measure)
    for records in _ingests(index):
        service.ingest(SERVICE_DATASET, records)
        _check_pass(index, service, measure)


def test_ingest_extends_built_families_in_place():
    index, service = _service()
    for measure in ("levenshtein", "qgrams", "monge_elkan"):
        service.resolve_batch(SERVICE_DATASET, measure, _queries(index))
    side = index.strings
    before = {
        name: dict(vocabulary)
        for name, vocabulary in side.vocabularies.items()
    }
    counts = side.artifact("token_counts").copy()
    n_values = len(side.values)
    for records in _ingests(index):
        service.ingest(SERVICE_DATASET, records)
    # Old keys keep their columns; old rows keep their entries.
    for name, vocabulary in side.vocabularies.items():
        assert list(vocabulary.items())[: len(before[name])] == list(
            before[name].items()
        )
    grown = side.artifact("token_counts")
    assert (grown[:n_values, : counts.shape[1]] != counts).nnz == 0
    assert grown[:n_values, counts.shape[1]:].nnz == 0
    # One value is a duplicate: it adds a record, not a row.
    assert len(side.values) == n_values + 3
    assert side.inverse.shape == (index.n_indexed,)
    codes, lengths = side.artifact("encoding")
    assert codes.shape == (len(side.values), int(lengths.max()))
    assert len(side.artifact("token_lists")) == len(side.values)
    assert side.artifact("qgram_counts").shape == (
        len(side.values),
        len(side.vocabularies["qgrams"]),
    )
