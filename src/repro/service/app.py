"""Application factory for the ER-as-a-service API.

Layering follows the routes → handlers → services convention: the
route table lives here and stays thin (parse + validate + translate
errors), all resolution logic lives in
:class:`~repro.service.resolver.ResolverService`, and concurrency
policy lives in :class:`~repro.service.scheduler.MicroBatchScheduler`.

Endpoints
---------
``GET /healthz``
    Liveness + warmup state + scheduler statistics (passes run,
    requests served, requests queued but not yet in a batch, and the
    batch bound).  503 until the lifespan startup has built every
    configured index, and whenever the scheduler's drain task is not
    running.
``GET /datasets``
    The served datasets and their frozen-index shapes.
``POST /resolve``
    ``{"dataset", "record", "measure"?, "top_k"?, "tag"?}`` — resolve
    one record against an indexed collection through the micro-batch
    scheduler, which starts a pass as soon as the one ahead of it ends:
    the requests that queued while a pass ran share the next one.  The
    ``X-Batch-Size`` response header reports how many concurrent
    requests shared the kernel pass.
``POST /match``
    ``{"left": [...], "right": [...], "algorithm", "threshold"?,
    "measure"?}`` — match two small ad-hoc collections with any of
    the 10 bipartite algorithms.
``POST /ingest``
    ``{"dataset", "records": [{"id", "text"}, ...]}`` — append
    records to a warm index without a cold rebuild: the blocking
    index grows its posting lists in place under its frozen
    build-time statistics, the indexed side's string artifacts
    extend in place, and the next ``/resolve`` can return the new
    records.

Warmup runs under the ASGI *lifespan* protocol: index builds happen
exactly once, before the first request is accepted; a failed build
(unknown dataset, broken store) surfaces as ``lifespan.startup.failed``
and the server refuses to start.
"""

from __future__ import annotations

from contextlib import asynccontextmanager
from dataclasses import dataclass

from repro.service.asgi import App, HTTPError, JSONResponse, Request
from repro.service.resolver import ResolverIndex, ResolverService
from repro.service.scheduler import MicroBatchScheduler

__all__ = ["ServiceConfig", "create_app"]

#: Hard cap on ad-hoc /match collection sizes: the dense grid is
#: quadratic, and big jobs belong in the batch pipeline.
MAX_MATCH_RECORDS = 512


@dataclass(frozen=True)
class ServiceConfig:
    """Everything the app factory needs to stand up the service."""

    datasets: tuple[str, ...]
    blocking: str = "tokens"
    measure: str = "jaccard"
    scale: float | None = None
    max_pairs: int | None = None
    seed: int = 42
    artifact_store: str | None = None
    store_read_tier: str | None = None
    max_batch: int = 64


def _warm_service(config: ServiceConfig) -> ResolverService:
    """Build every configured index (the expensive, once-only part),
    with the indexed side's artifacts for the configured measure."""
    store = None
    if config.artifact_store is not None:
        from repro.pipeline.store import ArtifactStore

        store = ArtifactStore(
            config.artifact_store, read_tier=config.store_read_tier
        )
    indexes = {}
    for code in config.datasets:
        index = ResolverIndex.build(
            code,
            blocking=config.blocking,
            scale=config.scale,
            max_pairs=config.max_pairs,
            seed=config.seed,
            store=store,
        )
        index.strings.prepare(config.measure)
        indexes[index.code] = index
    return ResolverService(indexes)


def create_app(config: ServiceConfig) -> App:
    """The ASGI app for ``config``; warmup deferred to lifespan."""

    @asynccontextmanager
    async def lifespan(app: App):
        import asyncio

        # Made before the warmup, so that a bad max_batch fails first.
        scheduler = MicroBatchScheduler(None, max_batch=config.max_batch)
        loop = asyncio.get_running_loop()
        service = await loop.run_in_executor(None, _warm_service, config)
        scheduler.service = service
        scheduler.start()
        app.state["service"] = service
        app.state["scheduler"] = scheduler
        try:
            yield
        finally:
            await scheduler.aclose()
            app.state.pop("service", None)
            app.state.pop("scheduler", None)

    app = App(lifespan=lifespan)
    app.state["config"] = config

    def _service() -> ResolverService:
        service = app.state.get("service")
        if service is None:
            raise HTTPError(503, "service is warming up")
        return service

    def _scheduler() -> MicroBatchScheduler:
        scheduler = app.state.get("scheduler")
        if scheduler is None or not scheduler.running:
            raise HTTPError(503, "service is warming up")
        return scheduler

    def _body_object(request: Request) -> dict:
        payload = request.json()
        if not isinstance(payload, dict):
            raise HTTPError(400, "request body must be a JSON object")
        return payload

    def _string_field(payload: dict, name: str) -> str:
        value = payload.get(name)
        if not isinstance(value, str) or not value.strip():
            raise HTTPError(422, f"{name!r} must be a non-empty string")
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            # A JSON escape can spell a lone surrogate, which has no
            # code-point encoding: in a coalesced pass it would fail
            # every request of the pass.
            raise HTTPError(
                422, f"{name!r} is not valid Unicode (lone surrogate)"
            ) from None
        return value

    def _measure_field(payload: dict) -> str:
        # The scheduler groups requests by measure: it must hash.
        measure = payload.get("measure", config.measure)
        if not isinstance(measure, str):
            raise HTTPError(422, "'measure' must be a string")
        return measure

    def _string_list(payload: dict, name: str) -> list[str]:
        value = payload.get(name)
        if (
            not isinstance(value, list)
            or not value
            or not all(isinstance(item, str) for item in value)
        ):
            raise HTTPError(
                422, f"{name!r} must be a non-empty list of strings"
            )
        if len(value) > MAX_MATCH_RECORDS:
            raise HTTPError(
                422,
                f"{name!r} exceeds {MAX_MATCH_RECORDS} records; use the "
                "batch pipeline for large collections",
            )
        return value

    @app.route("GET", "/healthz")
    async def healthz(request: Request) -> JSONResponse:
        service = app.state.get("service")
        scheduler = app.state.get("scheduler")
        if service is None or scheduler is None:
            return JSONResponse(
                {"status": "warming", "datasets": []}, status=503
            )
        running = scheduler.running
        return JSONResponse(
            {
                "status": "ok" if running else "stopped",
                "datasets": list(service.datasets),
                "scheduler": scheduler.stats(),
            },
            status=200 if running else 503,
        )

    @app.route("GET", "/datasets")
    async def datasets(request: Request) -> JSONResponse:
        service = _service()
        return JSONResponse(
            {
                "datasets": service.describe(),
                "default_measure": config.measure,
            }
        )

    @app.route("POST", "/resolve")
    async def resolve(request: Request) -> JSONResponse:
        payload = _body_object(request)
        scheduler = _scheduler()
        dataset = _string_field(payload, "dataset")
        record = _string_field(payload, "record")
        measure = _measure_field(payload)
        top_k = payload.get("top_k", 10)
        if not isinstance(top_k, int) or isinstance(top_k, bool) or top_k < 1:
            raise HTTPError(422, "'top_k' must be a positive integer")
        tag = payload.get("tag", "")
        if not isinstance(tag, str):
            raise HTTPError(422, "'tag' must be a string")
        try:
            matches, batch_size = await scheduler.submit(
                dataset, measure, record, top_k=top_k, tag=tag
            )
        except KeyError as error:
            status = 404 if "dataset" in str(error) else 422
            raise HTTPError(status, str(error).strip('"')) from None
        return JSONResponse(
            {
                "dataset": dataset.lower(),
                "measure": measure,
                "matches": [match.payload() for match in matches],
            },
            headers={"X-Batch-Size": str(batch_size)},
        )

    @app.route("POST", "/ingest")
    async def ingest(request: Request) -> JSONResponse:
        payload = _body_object(request)
        service = _service()
        dataset = _string_field(payload, "dataset")
        raw = payload.get("records")
        if not isinstance(raw, list) or not raw:
            raise HTTPError(
                422, "'records' must be a non-empty list of objects"
            )
        if len(raw) > MAX_MATCH_RECORDS:
            raise HTTPError(
                422,
                f"'records' exceeds {MAX_MATCH_RECORDS} per request; "
                "ingest in smaller batches",
            )
        records = []
        for entry in raw:
            if not isinstance(entry, dict):
                raise HTTPError(
                    422, "every record must be an object with id and text"
                )
            records.append(
                (
                    _string_field(entry, "id"),
                    _string_field(entry, "text"),
                )
            )
        import asyncio

        loop = asyncio.get_running_loop()
        try:
            report = await loop.run_in_executor(
                None, service.ingest, dataset, records
            )
        except KeyError as error:
            raise HTTPError(404, str(error).strip('"')) from None
        except ValueError as error:
            raise HTTPError(422, str(error)) from None
        return JSONResponse(report)

    @app.route("POST", "/match")
    async def match(request: Request) -> JSONResponse:
        payload = _body_object(request)
        service = _service()
        lefts = _string_list(payload, "left")
        rights = _string_list(payload, "right")
        algorithm = _string_field(payload, "algorithm")
        measure = _measure_field(payload)
        threshold = payload.get("threshold", 0.5)
        if not isinstance(threshold, (int, float)) or isinstance(
            threshold, bool
        ):
            raise HTTPError(422, "'threshold' must be a number")
        import asyncio

        loop = asyncio.get_running_loop()
        try:
            pairs = await loop.run_in_executor(
                None,
                service.match,
                lefts,
                rights,
                algorithm,
                float(threshold),
                measure,
            )
        except (KeyError, ValueError) as error:
            raise HTTPError(422, str(error).strip('"')) from None
        return JSONResponse(
            {
                "algorithm": algorithm.upper(),
                "measure": measure,
                "threshold": threshold,
                "pairs": [
                    {"left": i, "right": j, "score": score}
                    for i, j, score in pairs
                ],
            }
        )

    return app
