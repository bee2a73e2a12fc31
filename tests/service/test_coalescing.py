"""Coalescing equivalence: batched execution changes *when*, not *what*.

The micro-batch scheduler shares one kernel pass across concurrent
requests.  Because every schema-based measure scores each (query,
candidate) pair from exact per-pair statistics, batch composition can
never leak into a score — which these tests pin down as byte-identity
of response bodies between serial and concurrent execution.
"""

from __future__ import annotations

import asyncio

from repro.service import ServiceConfig, create_app
from repro.service.testclient import run_app

SERVICE_DATASET = "d1"


def _config(**overrides) -> ServiceConfig:
    defaults = dict(
        datasets=(SERVICE_DATASET,),
        blocking="tokens",
        measure="jaccard",
        scale=0.05,
        max_pairs=200,
        tick=0.002,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def _bodies(app, queries, concurrent: bool, measure=None):
    """Response bodies for ``queries``, serially or all-concurrently."""

    async def scenario(client):
        async def one(query):
            body = {"dataset": SERVICE_DATASET, "record": query}
            if measure is not None:
                body["measure"] = measure
            response = await client.post("/resolve", json_body=body)
            assert response.status == 200, response.body
            return response

        if concurrent:
            responses = await asyncio.gather(*map(one, queries))
        else:
            responses = [await one(query) for query in queries]
        return responses

    return run_app(app, scenario)


class TestCoalescingEquivalence:
    def test_concurrent_equals_serial_byte_for_byte(self, left_texts):
        queries = [left_texts[k % len(left_texts)] for k in range(24)]
        serial_app = create_app(_config(max_batch=1, tick=0.0))
        serial = _bodies(serial_app, queries, concurrent=False)
        batched_app = create_app(_config())
        batched = _bodies(batched_app, queries, concurrent=True)
        assert [r.body for r in serial] == [r.body for r in batched]
        # and the concurrent run actually coalesced
        sizes = [int(r.headers["x-batch-size"]) for r in batched]
        assert max(sizes) > 1

    def test_mixed_measures_coalesce_correctly(self, left_texts):
        """A tick may carry different measures; each group must score
        under its own measure, identical to its serial result."""
        queries = [left_texts[k % len(left_texts)] for k in range(8)]
        app = create_app(_config())

        async def mixed(client):
            async def one(query, measure):
                response = await client.post(
                    "/resolve",
                    json_body={
                        "dataset": SERVICE_DATASET,
                        "record": query,
                        "measure": measure,
                    },
                )
                assert response.status == 200
                return response.body

            jobs = []
            for k, query in enumerate(queries):
                measure = "jaccard" if k % 2 == 0 else "jaro"
                jobs.append(one(query, measure))
            return await asyncio.gather(*jobs)

        mixed_bodies = run_app(app, mixed)
        serial_app = create_app(_config(max_batch=1, tick=0.0))
        jaccard = _bodies(
            serial_app, queries[0::2], concurrent=False, measure="jaccard"
        )
        serial_app2 = create_app(_config(max_batch=1, tick=0.0))
        jaro = _bodies(
            serial_app2, queries[1::2], concurrent=False, measure="jaro"
        )
        expected = []
        for k in range(len(queries)):
            source = jaccard if k % 2 == 0 else jaro
            expected.append(source[k // 2].body)
        assert mixed_bodies == expected

    def test_batch_size_reported_in_header_not_body(self, left_texts):
        """Timing-dependent diagnostics must stay out of the body, or
        byte-identity across modes would be unachievable."""
        app = create_app(_config())

        async def scenario(client):
            responses = await asyncio.gather(
                *[
                    client.post(
                        "/resolve",
                        json_body={
                            "dataset": SERVICE_DATASET,
                            "record": left_texts[0],
                        },
                    )
                    for _ in range(6)
                ]
            )
            for response in responses:
                assert int(response.headers["x-batch-size"]) >= 1
                assert b"batch" not in response.body
            return responses

        run_app(app, scenario)

    def test_max_batch_bounds_coalescing(self, left_texts):
        app = create_app(_config(max_batch=2))

        async def scenario(client):
            responses = await asyncio.gather(
                *[
                    client.post(
                        "/resolve",
                        json_body={
                            "dataset": SERVICE_DATASET,
                            "record": left_texts[k % len(left_texts)],
                        },
                    )
                    for k in range(8)
                ]
            )
            for response in responses:
                assert int(response.headers["x-batch-size"]) <= 2
            return responses

        run_app(app, scenario)


class TestSchedulerAccounting:
    def test_coalesced_run_executes_fewer_batches(self, left_texts):
        app = create_app(_config())
        queries = [left_texts[k % len(left_texts)] for k in range(12)]

        async def scenario(client):
            await asyncio.gather(
                *[
                    client.post(
                        "/resolve",
                        json_body={
                            "dataset": SERVICE_DATASET,
                            "record": query,
                        },
                    )
                    for query in queries
                ]
            )
            health = await client.get("/healthz")
            return health.json()["scheduler"]

        stats = run_app(app, scenario)
        assert stats["requests_served"] == len(queries)
        assert stats["batches_executed"] < len(queries)
