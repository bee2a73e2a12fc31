"""Coalescing equivalence: batched execution changes *when*, not *what*.

The micro-batch scheduler shares one kernel pass across concurrent
requests.  Because every schema-based measure scores each (query,
candidate) pair from exact per-pair statistics, batch composition can
never leak into a score — which these tests pin down as byte-identity
of response bodies between serial and concurrent execution.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np

from repro.service import ServiceConfig, create_app
from repro.service.scheduler import MicroBatchScheduler
from repro.service.testclient import run_app

SERVICE_DATASET = "d1"


def _config(**overrides) -> ServiceConfig:
    defaults = dict(
        datasets=(SERVICE_DATASET,),
        blocking="tokens",
        measure="jaccard",
        scale=0.05,
        max_pairs=200,
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
        serial_app = create_app(_config(max_batch=1))
        serial = _bodies(serial_app, queries, concurrent=False)
        batched_app = create_app(_config())
        batched = _bodies(batched_app, queries, concurrent=True)
        assert [r.body for r in serial] == [r.body for r in batched]
        # and the concurrent run actually coalesced
        sizes = [int(r.headers["x-batch-size"]) for r in batched]
        assert max(sizes) > 1

    def test_mixed_measures_coalesce_correctly(self, left_texts):
        """A batch may carry different measures; each group must score
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
        serial_app = create_app(_config(max_batch=1))
        jaccard = _bodies(
            serial_app, queries[0::2], concurrent=False, measure="jaccard"
        )
        serial_app2 = create_app(_config(max_batch=1))
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


class GatedService:
    """A fake service whose passes wait for ``gate``; it records each
    pass's queries and answers each query with itself."""

    def __init__(self) -> None:
        self.passes: list[list[str]] = []
        self.entered = threading.Event()
        self.gate = threading.Event()

    def resolve_batch(self, dataset, measure, queries, top_k):
        self.passes.append(list(queries))
        self.entered.set()
        assert self.gate.wait(timeout=10)
        return [[query] for query in queries]


class TestContinuousBatching:
    def test_a_batch_is_what_queued_during_the_pass_ahead(self):
        """An idle scheduler runs a request alone at once; requests
        submitted while that pass runs share the next pass, in submit
        order, up to ``max_batch`` (a numpy integer is taken)."""
        service = GatedService()

        async def main():
            scheduler = MicroBatchScheduler(service, max_batch=np.int64(3))
            assert type(scheduler.max_batch) is int
            scheduler.start()
            try:
                first = asyncio.ensure_future(
                    scheduler.submit(SERVICE_DATASET, "jaccard", "q0")
                )
                assert await asyncio.to_thread(service.entered.wait, 10)
                assert service.passes == [["q0"]]
                rest = [
                    asyncio.ensure_future(
                        scheduler.submit(SERVICE_DATASET, "jaccard", f"q{k}")
                    )
                    for k in range(1, 6)
                ]
                for _ in range(100):
                    if scheduler.stats()["queue_depth"] == 5:
                        break
                    await asyncio.sleep(0)
                assert scheduler.stats()["queue_depth"] == 5
                service.gate.set()
                answers = await asyncio.wait_for(
                    asyncio.gather(first, *rest), timeout=10
                )
                assert scheduler.stats()["queue_depth"] == 0
            finally:
                service.gate.set()
                await scheduler.aclose()
            return answers

        answers = asyncio.run(main())
        assert service.passes == [["q0"], ["q1", "q2", "q3"], ["q4", "q5"]]
        assert [matches for matches, _ in answers] == [
            [f"q{k}"] for k in range(6)
        ]
        assert [size for _, size in answers] == [1, 3, 3, 3, 2, 2]


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
