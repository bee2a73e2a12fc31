"""Warm ingestion: the service takes new records without a rebuild.

The lifespan protocol rebuilds the service per scenario, so each test
starts from the frozen warmup state and mutates its own instance.
"""

from __future__ import annotations

import threading

import pytest

from repro.pipeline.blocking import BlockingIndex
from repro.service import ServiceConfig, create_app
from repro.service.resolver import ResolverIndex, ResolverService
from repro.service.testclient import run_app

SERVICE_DATASET = "d1"
NOVEL_TEXT = "zephyr quill obsidian marmalade"

#: A text a JSON escape can spell but that is not valid Unicode: it has
#: no code-point encoding and no UTF-8 bytes.
LONE_SURROGATE = "a\ud800"


@pytest.fixture(scope="module")
def warm_service():
    index = ResolverIndex.build(
        SERVICE_DATASET, blocking="tokens", scale=0.05, max_pairs=200
    )
    return ResolverService({index.code: index})


class TestResolverIngest:
    def test_ingested_record_resolves(self, warm_service):
        before = warm_service.index(SERVICE_DATASET).n_indexed
        report = warm_service.ingest(
            SERVICE_DATASET, [("novel-1", NOVEL_TEXT)]
        )
        assert report == {
            "dataset": SERVICE_DATASET,
            "added": 1,
            "n_indexed": before + 1,
        }
        (matches,) = warm_service.resolve_batch(
            SERVICE_DATASET, "jaccard", [NOVEL_TEXT], top_k=3
        )
        assert matches
        assert matches[0].record_id == "novel-1"
        assert matches[0].score == 1.0

    def test_existing_candidates_unchanged(self, warm_service):
        index = warm_service.index(SERVICE_DATASET)
        lefts, _ = index.cache.texts()
        before = index.probe.probe(lefts[0])
        n_before = index.n_indexed
        warm_service.ingest(
            SERVICE_DATASET, [("novel-2", "totally unrelated widget")]
        )
        after = index.probe.probe(lefts[0])
        assert after[after < n_before].tolist() == before.tolist()

    def test_rejects_empty_fields(self, warm_service):
        with pytest.raises(ValueError, match="non-empty"):
            warm_service.ingest(SERVICE_DATASET, [("", NOVEL_TEXT)])
        with pytest.raises(ValueError, match="non-empty"):
            warm_service.ingest(SERVICE_DATASET, [("id", "")])

    def test_rejects_a_lone_surrogate(self, warm_service):
        index = warm_service.index(SERVICE_DATASET)
        n_before = index.n_indexed
        with pytest.raises(ValueError, match="lone surrogate"):
            warm_service.ingest(
                SERVICE_DATASET,
                [("fine", NOVEL_TEXT), ("bad", LONE_SURROGATE)],
            )
        assert index.n_indexed == index.probe.n_indexed == n_before

    def test_index_ingest_is_all_or_nothing(self):
        # Past the service's check, the encoding still rejects the
        # text: the index must come out as it went in.
        index = ResolverIndex.build(
            SERVICE_DATASET, blocking="tokens", scale=0.05, max_pairs=200
        )
        side = index.strings
        for measure in ("jaccard", "monge_elkan", "levenshtein"):
            side.prepare(measure)

        def state():
            return (
                list(side.values),
                side.inverse.tolist(),
                {name: dict(v) for name, v in side.vocabularies.items()},
                side.artifact("token_counts").shape,
                side.artifact("encoding")[0].shape,
                len(side.artifact("monge_elkan")[1]),
            )

        before, n_before = state(), index.n_indexed
        with pytest.raises(UnicodeEncodeError):
            index.ingest([("fine", NOVEL_TEXT), ("bad", LONE_SURROGATE)])
        assert index.n_indexed == index.probe.n_indexed == n_before
        assert len(index.right_ids) == n_before
        assert state() == before

    def test_unknown_dataset_raises(self, warm_service):
        with pytest.raises(KeyError, match="not served"):
            warm_service.ingest("d9", [("id", NOVEL_TEXT)])


class TestIngestResolveSerialization:
    def test_resolve_waits_for_a_concurrent_ingest(self, monkeypatch):
        # Pause an ingest after the probe index grew but before the
        # indexed collection did: a resolve pass racing it must wait
        # and then answer from the post-ingest index.
        index = ResolverIndex.build(
            SERVICE_DATASET, blocking="tokens", scale=0.05, max_pairs=200
        )
        service = ResolverService({index.code: index})
        probed, release = threading.Event(), threading.Event()
        real_ingest = BlockingIndex.ingest

        def paused_ingest(self, texts):
            result = real_ingest(self, texts)
            probed.set()
            release.wait(timeout=30)
            return result

        monkeypatch.setattr(BlockingIndex, "ingest", paused_ingest)
        ingest = threading.Thread(
            target=service.ingest,
            args=(SERVICE_DATASET, [("novel-lock", NOVEL_TEXT)]),
        )
        ingest.start()
        assert probed.wait(timeout=30)
        answers = []
        resolve = threading.Thread(
            target=lambda: answers.append(
                service.resolve_batch(
                    SERVICE_DATASET, "jaccard", [NOVEL_TEXT], top_k=3
                )
            )
        )
        resolve.start()
        resolve.join(timeout=0.5)
        waited = resolve.is_alive()
        release.set()
        ingest.join(timeout=30)
        resolve.join(timeout=30)
        assert waited
        assert not ingest.is_alive() and not resolve.is_alive()
        [[top, *_]] = answers[0]
        assert (top.record_id, top.score) == ("novel-lock", 1.0)


class TestIngestEndpoint:
    def test_ingest_then_resolve_roundtrip(self, warm_app):
        async def scenario(client):
            response = await client.post(
                "/ingest",
                json_body={
                    "dataset": SERVICE_DATASET,
                    "records": [{"id": "novel-9", "text": NOVEL_TEXT}],
                },
            )
            assert response.status == 200
            payload = response.json()
            assert payload["dataset"] == SERVICE_DATASET
            assert payload["added"] == 1
            resolved = await client.post(
                "/resolve",
                json_body={
                    "dataset": SERVICE_DATASET,
                    "record": NOVEL_TEXT,
                },
            )
            assert resolved.status == 200
            matches = resolved.json()["matches"]
            assert matches and matches[0]["id"] == "novel-9"

        run_app(warm_app, scenario)

    def test_ingest_grows_reported_index(self, warm_app):
        async def scenario(client):
            datasets = await client.get("/datasets")
            (entry,) = datasets.json()["datasets"]
            before = entry["n_indexed"]
            await client.post(
                "/ingest",
                json_body={
                    "dataset": SERVICE_DATASET,
                    "records": [
                        {"id": "a", "text": "first extra"},
                        {"id": "b", "text": "second extra"},
                    ],
                },
            )
            datasets = await client.get("/datasets")
            (entry,) = datasets.json()["datasets"]
            assert entry["n_indexed"] == before + 2

        run_app(warm_app, scenario)

    def test_rejected_ingest_leaves_answers_unchanged(self, left_texts):
        # The configured measure builds the encoded family at warmup.
        app = create_app(
            ServiceConfig(
                datasets=(SERVICE_DATASET,),
                blocking="tokens",
                measure="levenshtein",
                scale=0.05,
                max_pairs=200,
            )
        )
        queries = [*left_texts[:3], NOVEL_TEXT]

        async def answers(client) -> list:
            found = []
            for measure in ("jaccard", "levenshtein"):
                for query in queries:
                    response = await client.post(
                        "/resolve",
                        json_body={
                            "dataset": SERVICE_DATASET,
                            "record": query,
                            "measure": measure,
                        },
                    )
                    assert response.status == 200
                    found.append(response.json()["matches"])
            return found

        async def scenario(client):
            index = app.state["service"].index(SERVICE_DATASET)
            side = index.strings
            before = await answers(client)
            n_before = index.n_indexed
            values, inverse = list(side.values), side.inverse.tolist()
            response = await client.post(
                "/ingest",
                json_body={
                    "dataset": SERVICE_DATASET,
                    "records": [
                        {"id": "fine", "text": NOVEL_TEXT},
                        {"id": "bad", "text": LONE_SURROGATE},
                    ],
                },
            )
            assert response.status == 422
            assert "lone surrogate" in response.json()["detail"]
            assert index.n_indexed == index.probe.n_indexed == n_before
            assert side.values == values
            assert side.inverse.tolist() == inverse
            assert await answers(client) == before

        run_app(app, scenario)

    def test_validation_errors(self, warm_app):
        async def scenario(client):
            bad_bodies = (
                {"dataset": SERVICE_DATASET},
                {"dataset": SERVICE_DATASET, "records": []},
                {"dataset": SERVICE_DATASET, "records": ["nope"]},
                {
                    "dataset": SERVICE_DATASET,
                    "records": [{"id": "x"}],
                },
                {
                    "dataset": SERVICE_DATASET,
                    "records": [{"id": "", "text": "y"}],
                },
            )
            for body in bad_bodies:
                response = await client.post("/ingest", json_body=body)
                assert response.status == 422, body
            missing = await client.post(
                "/ingest",
                json_body={
                    "dataset": "d9",
                    "records": [{"id": "x", "text": "y"}],
                },
            )
            assert missing.status == 404

        run_app(warm_app, scenario)
