"""Warm ingestion: the service takes new records without a rebuild.

The lifespan protocol rebuilds the service per scenario, so each test
starts from the frozen warmup state and mutates its own instance.
"""

from __future__ import annotations

import threading

import pytest

from repro.pipeline.blocking import BlockingIndex
from repro.service.resolver import ResolverIndex, ResolverService
from repro.service.testclient import run_app

SERVICE_DATASET = "d1"
NOVEL_TEXT = "zephyr quill obsidian marmalade"


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
