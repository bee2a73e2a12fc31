"""Fault injection: a poisoned request degrades itself, nothing else.

The scheduler calls :func:`repro.testing.faults.maybe_inject` with a
per-request task key (``service/resolve/<dataset>/<tag>``) before a
request joins its batch — the same deterministic seam the resilient
pool exposes.  These tests arm rules against tagged requests and
assert the blast radius: the tagged request fails with a 500, its
batch mates succeed with byte-identical results, and the shared
frozen index keeps serving.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.service import ServiceConfig, create_app
from repro.service.testclient import run_app
from repro.testing import faults

SERVICE_DATASET = "d1"


def _config(**overrides) -> ServiceConfig:
    defaults = dict(
        datasets=(SERVICE_DATASET,), scale=0.05, max_pairs=200
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def _resolve_body(record: str, tag: str = "") -> dict:
    body = {"dataset": SERVICE_DATASET, "record": record}
    if tag:
        body["tag"] = tag
    return body


class TestPoisonedRequestIsolation:
    def test_poisoned_request_fails_alone(self, monkeypatch, left_texts):
        faults.inject(
            monkeypatch,
            {"match": "/poison", "action": "error", "attempts": None},
        )
        app = create_app(_config())

        async def scenario(client):
            healthy_queries = left_texts[:6]
            jobs = [
                client.post("/resolve", json_body=_resolve_body(query))
                for query in healthy_queries
            ]
            jobs.append(
                client.post(
                    "/resolve",
                    json_body=_resolve_body(left_texts[0], tag="poison"),
                )
            )
            responses = await asyncio.gather(*jobs)
            poisoned = responses[-1]
            assert poisoned.status == 500
            assert poisoned.json() == {"detail": "internal server error"}
            for response in responses[:-1]:
                assert response.status == 200
            return responses[:-1]

        survivors = run_app(app, scenario)
        # The survivors' scores are exactly what an unpoisoned serial
        # run produces: the fault never reached the shared pass.
        clean_app = create_app(_config(max_batch=1))

        async def clean(client):
            out = []
            for query in left_texts[:6]:
                response = await client.post(
                    "/resolve", json_body=_resolve_body(query)
                )
                out.append(response)
            return out

        baseline = run_app(clean_app, clean)
        assert [r.body for r in survivors] == [r.body for r in baseline]

    def test_index_survives_poison_and_keeps_serving(
        self, monkeypatch, left_texts
    ):
        faults.inject(
            monkeypatch,
            {"match": "/poison", "action": "error", "attempts": None},
        )
        app = create_app(_config())

        async def scenario(client):
            before = await client.post(
                "/resolve", json_body=_resolve_body(left_texts[0])
            )
            poisoned = await client.post(
                "/resolve",
                json_body=_resolve_body(left_texts[0], tag="poison"),
            )
            assert poisoned.status == 500
            after = await client.post(
                "/resolve", json_body=_resolve_body(left_texts[0])
            )
            assert before.status == after.status == 200
            assert before.body == after.body
            health = await client.get("/healthz")
            assert health.json()["status"] == "ok"

        run_app(app, scenario)

    def test_first_attempt_rule_spares_untagged_requests(
        self, monkeypatch, left_texts
    ):
        """Rules match the task key; requests without the poisoned tag
        never fire them even when the rule matches the dataset part."""
        faults.inject(
            monkeypatch,
            {
                "match": f"service/resolve/{SERVICE_DATASET}/bad",
                "action": "error",
                "attempts": None,
            },
        )
        app = create_app(_config())

        async def scenario(client):
            good = await client.post(
                "/resolve",
                json_body=_resolve_body(left_texts[0], tag="good"),
            )
            bad = await client.post(
                "/resolve",
                json_body=_resolve_body(left_texts[0], tag="bad"),
            )
            assert good.status == 200
            assert bad.status == 500

        run_app(app, scenario)

    def test_unarmed_environment_is_fault_free(self, left_texts):
        app = create_app(_config())

        async def scenario(client):
            response = await client.post(
                "/resolve",
                json_body=_resolve_body(left_texts[0], tag="poison"),
            )
            assert response.status == 200

        run_app(app, scenario)


class TestResolverErrorIsolation:
    def test_engine_error_fails_only_its_group(self, left_texts):
        """A request whose group raises (unknown measure reaching the
        engine) must not fail other groups in the same batch."""
        app = create_app(_config())

        async def scenario(client):
            scheduler = app.state["scheduler"]
            # Bypass handler validation to hit the engine-level error
            # path inside a shared batch.
            good = scheduler.submit(
                SERVICE_DATASET, "jaccard", left_texts[0]
            )
            bad = scheduler.submit(
                SERVICE_DATASET, "not-a-measure", left_texts[0]
            )
            results = await asyncio.gather(
                good, bad, return_exceptions=True
            )
            matches, batch_size = results[0]
            assert batch_size >= 1
            assert isinstance(results[1], KeyError)

        run_app(app, scenario)

    def test_unhashable_measure_fails_and_the_drain_goes_on(
        self, left_texts
    ):
        """An error outside the per-group guard (an unhashable measure
        reaching the group key) fails its request, and the drain task
        answers the next one."""
        app = create_app(_config())

        async def scenario(client):
            scheduler = app.state["scheduler"]
            with pytest.raises(TypeError, match="unhashable"):
                await asyncio.wait_for(
                    scheduler.submit(
                        SERVICE_DATASET, ["jaccard"], left_texts[0]
                    ),
                    timeout=10,
                )
            matches, _ = await asyncio.wait_for(
                scheduler.submit(SERVICE_DATASET, "jaccard", left_texts[0]),
                timeout=10,
            )
            assert matches
            assert scheduler.running

        run_app(app, scenario)
