"""Warmup and lifespan behavior of the service app."""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.service import ServiceConfig, create_app
from repro.service.scheduler import MicroBatchScheduler
from repro.service.testclient import AsgiClient, LifespanFailed, run_app

SERVICE_DATASET = "d1"


def _config(**overrides) -> ServiceConfig:
    defaults = dict(
        datasets=(SERVICE_DATASET,), scale=0.05, max_pairs=200
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


class TestWarmup:
    def test_cold_app_returns_503_everywhere(self):
        app = create_app(_config())

        async def main():
            async with AsgiClient(app, lifespan=False) as client:
                for method, path in (
                    ("GET", "/healthz"),
                    ("GET", "/datasets"),
                ):
                    response = await client.request(method, path)
                    assert response.status == 503, path
                response = await client.post(
                    "/resolve",
                    json_body={
                        "dataset": SERVICE_DATASET,
                        "record": "x",
                    },
                )
                assert response.status == 503

        asyncio.run(main())

    def test_startup_builds_indexes_once(self):
        app = create_app(_config())

        async def scenario(client):
            service = app.state["service"]
            index = service.index(SERVICE_DATASET)
            build_counts = dict(index.cache.build_counts)
            # Serving traffic must not rebuild any warm artifact.
            for _ in range(3):
                response = await client.get("/datasets")
                assert response.status == 200
            assert service is app.state["service"]
            assert index.cache.build_counts == build_counts

        run_app(app, scenario)

    def test_unknown_dataset_fails_startup(self):
        app = create_app(_config(datasets=("nope",)))

        async def main():
            async with AsgiClient(app):
                pass  # pragma: no cover - startup must fail

        with pytest.raises(LifespanFailed, match="unknown dataset"):
            asyncio.run(main())

    def test_bad_max_batch_fails_startup_before_warmup(self, monkeypatch):
        import repro.service.app as service_app

        def warm(config):
            raise AssertionError("warmed up before the max_batch check")

        monkeypatch.setattr(service_app, "_warm_service", warm)
        app = create_app(_config(max_batch=0))

        async def main():
            async with AsgiClient(app):
                pass  # pragma: no cover - startup must fail

        with pytest.raises(LifespanFailed, match="max_batch must be at"):
            asyncio.run(main())

    def test_invalid_blocking_fails_startup(self):
        app = create_app(_config(blocking="bogus"))

        async def main():
            async with AsgiClient(app):
                pass  # pragma: no cover - startup must fail

        with pytest.raises(LifespanFailed, match="blocking"):
            asyncio.run(main())


class TestShutdown:
    def test_shutdown_stops_scheduler_and_clears_state(self):
        app = create_app(_config())

        async def main():
            async with AsgiClient(app):
                scheduler = app.state["scheduler"]
                assert scheduler.running
            assert not scheduler.running
            assert "service" not in app.state
            assert "scheduler" not in app.state

        asyncio.run(main())

    def test_submit_after_close_is_rejected(self):
        app = create_app(_config())

        async def main():
            async with AsgiClient(app):
                scheduler = app.state["scheduler"]
            with pytest.raises(RuntimeError, match="not running"):
                await scheduler.submit(SERVICE_DATASET, "jaccard", "x")

        asyncio.run(main())

    def test_queued_work_fails_cleanly_on_close(self, left_texts):
        """A request stuck in the queue when the scheduler dies gets an
        exception, not an eternal hang."""
        app = create_app(_config())

        async def main():
            async with AsgiClient(app):
                scheduler = app.state["scheduler"]
                # Stop the drain task, then enqueue directly.
                scheduler._task.cancel()
                try:
                    await scheduler._task
                except asyncio.CancelledError:
                    pass
                loop = asyncio.get_running_loop()
                from repro.service.scheduler import _Pending

                pending = _Pending(
                    dataset=SERVICE_DATASET,
                    measure="jaccard",
                    query=left_texts[0],
                    top_k=5,
                    tag="",
                    future=loop.create_future(),
                )
                await scheduler._queue.put(pending)
                await scheduler.aclose()
                with pytest.raises(RuntimeError, match="stopped"):
                    pending.future.result()

        asyncio.run(main())


class TestSchedulerLifecycle:
    def test_start_is_idempotent(self):
        async def main():
            scheduler = MicroBatchScheduler(service=None)
            scheduler.start()
            task = scheduler._task
            scheduler.start()
            assert scheduler._task is task
            await scheduler.aclose()
            assert not scheduler.running

        asyncio.run(main())

    def test_close_answers_a_request_taken_into_a_batch(self):
        """A request the drain task already holds inside a pass is
        answered when the scheduler stops, not left hanging."""

        class SlowService:
            def resolve_batch(self, dataset, measure, queries, top_k):
                time.sleep(0.5)
                return [[] for _ in queries]

        async def main():
            scheduler = MicroBatchScheduler(service=SlowService())
            scheduler.start()
            submit = asyncio.ensure_future(
                scheduler.submit(SERVICE_DATASET, "jaccard", "x")
            )
            await asyncio.sleep(0.1)
            assert scheduler._queue.empty()  # the drain task holds it
            await scheduler.aclose()
            with pytest.raises(RuntimeError, match="scheduler stopped"):
                await asyncio.wait_for(submit, timeout=2)

        asyncio.run(main())

    @pytest.mark.parametrize(
        "max_batch, message",
        [
            (0, "at least 1, got 0"),
            (-5, "at least 1, got -5"),
            (2.5, "an integer, got 2.5"),
            (True, "an integer, got True"),
            ("4", "an integer, got '4'"),
        ],
    )
    def test_max_batch_fails_fast(self, max_batch, message):
        with pytest.raises(ValueError, match=f"max_batch must be {message}"):
            MicroBatchScheduler(service=None, max_batch=max_batch)
