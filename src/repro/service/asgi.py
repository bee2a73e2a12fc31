"""A minimal ASGI application framework for the resolution service.

The container this project targets ships no web framework, so the
service layer runs on a small, dependency-free ASGI core implementing
exactly what the resolution API needs: exact-path routing, JSON
request/response bodies, typed HTTP errors and the ASGI *lifespan*
protocol (startup builds the warm :class:`ResolverService`; shutdown
drains the scheduler).  The interface is standard ASGI 3.0 — the app
is equally servable by the bundled :mod:`repro.service.server`, the
in-process :class:`~repro.service.testclient.AsgiClient`, or any
external ASGI server (uvicorn/hypercorn) when one is available.  The
first two drive the lifespan cycle through one :class:`Lifespan` and
each request through one :func:`run_http`.

Deliberately not implemented: path parameters, middleware stacks,
content negotiation, streaming bodies.  Handlers are ``async def
handler(request) -> JSONResponse`` and the route table is a flat
``(method, path)`` dict.
"""

from __future__ import annotations

import asyncio
import json
import traceback
from typing import Any, Awaitable, Callable
from urllib.parse import parse_qs

__all__ = [
    "App",
    "HTTPError",
    "JSONResponse",
    "Lifespan",
    "Request",
    "run_http",
]


class HTTPError(Exception):
    """An error with a designated HTTP status, rendered as JSON."""

    def __init__(self, status: int, detail: str) -> None:
        super().__init__(detail)
        self.status = status
        self.detail = detail


class Request:
    """One parsed HTTP request."""

    def __init__(
        self,
        method: str,
        path: str,
        query_string: bytes = b"",
        headers: dict[str, str] | None = None,
        body: bytes = b"",
    ) -> None:
        self.method = method
        self.path = path
        self.query = {
            key: values[-1]
            for key, values in parse_qs(query_string.decode("latin-1")).items()
        }
        self.headers = headers or {}
        self.body = body

    def json(self) -> Any:
        """The request body parsed as JSON; 400 on malformed input."""
        if not self.body:
            raise HTTPError(400, "request body must be a JSON object")
        try:
            return json.loads(self.body)
        except json.JSONDecodeError as error:
            raise HTTPError(400, f"malformed JSON body: {error}") from None


class JSONResponse:
    """A JSON response with status and optional extra headers.

    The payload is serialized with ``sort_keys=True`` and compact
    separators so that equal payloads produce byte-identical bodies —
    the property the coalescing-equivalence tests and benchmark
    compare on.  Diagnostic metadata that may legitimately differ
    between equivalent responses (e.g. the micro-batch size a request
    rode in) belongs in ``headers``, never in the payload.
    """

    def __init__(
        self,
        payload: Any,
        status: int = 200,
        headers: dict[str, str] | None = None,
    ) -> None:
        self.status = status
        self.payload = payload
        self.headers = headers or {}

    def encode(self) -> bytes:
        return json.dumps(
            self.payload, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")


Handler = Callable[[Request], Awaitable[JSONResponse]]


class App:
    """An ASGI 3.0 application: flat route table + lifespan hooks.

    ``lifespan`` is an async context manager *factory* taking the app;
    its ``__aenter__`` runs under ``lifespan.startup`` (exceptions are
    reported as ``lifespan.startup.failed``), its ``__aexit__`` under
    ``lifespan.shutdown``.  Handlers share state through ``app.state``.
    """

    def __init__(self, lifespan=None) -> None:
        self._routes: dict[tuple[str, str], Handler] = {}
        self._lifespan = lifespan
        self.state: dict[str, Any] = {}

    def route(self, method: str, path: str):
        """Register ``handler`` for exact-path ``(method, path)``."""

        def decorator(handler: Handler) -> Handler:
            self._routes[(method.upper(), path)] = handler
            return handler

        return decorator

    async def __call__(self, scope, receive, send) -> None:
        if scope["type"] == "lifespan":
            await self._handle_lifespan(receive, send)
        elif scope["type"] == "http":
            await self._handle_http(scope, receive, send)
        else:  # pragma: no cover - websockets etc. are out of scope
            raise RuntimeError(f"unsupported ASGI scope {scope['type']!r}")

    # -------------------------------------------------------- lifespan
    async def _handle_lifespan(self, receive, send) -> None:
        message = await receive()
        assert message["type"] == "lifespan.startup"
        context = self._lifespan(self) if self._lifespan else None
        try:
            if context is not None:
                await context.__aenter__()
        except Exception as error:
            await send(
                {"type": "lifespan.startup.failed", "message": str(error)}
            )
            return
        await send({"type": "lifespan.startup.complete"})
        message = await receive()
        assert message["type"] == "lifespan.shutdown"
        try:
            if context is not None:
                await context.__aexit__(None, None, None)
        except Exception as error:
            await send(
                {"type": "lifespan.shutdown.failed", "message": str(error)}
            )
            return
        await send({"type": "lifespan.shutdown.complete"})

    # ------------------------------------------------------------ http
    async def _handle_http(self, scope, receive, send) -> None:
        body = b""
        while True:
            message = await receive()
            body += message.get("body", b"")
            if not message.get("more_body"):
                break
        request = Request(
            method=scope["method"].upper(),
            path=scope["path"],
            query_string=scope.get("query_string", b""),
            headers={
                name.decode("latin-1").lower(): value.decode("latin-1")
                for name, value in scope.get("headers", [])
            },
            body=body,
        )
        response = await self._dispatch(request)
        payload = response.encode()
        headers = [
            (b"content-type", b"application/json"),
            (b"content-length", str(len(payload)).encode("latin-1")),
        ]
        for name, value in response.headers.items():
            headers.append(
                (name.lower().encode("latin-1"), value.encode("latin-1"))
            )
        await send(
            {
                "type": "http.response.start",
                "status": response.status,
                "headers": headers,
            }
        )
        await send({"type": "http.response.body", "body": payload})

    async def _dispatch(self, request: Request) -> JSONResponse:
        handler = self._routes.get((request.method, request.path))
        if handler is None:
            if any(path == request.path for _, path in self._routes):
                return JSONResponse({"detail": "method not allowed"}, 405)
            return JSONResponse({"detail": "not found"}, 404)
        try:
            return await handler(request)
        except HTTPError as error:
            return JSONResponse({"detail": error.detail}, error.status)
        except Exception:
            # A failing request must degrade that request only: report
            # 500 and keep serving.  The traceback goes to the server
            # log (stderr), not the client.
            traceback.print_exc()
            return JSONResponse({"detail": "internal server error"}, 500)


async def run_http(
    app,
    method: str,
    target: str,
    headers: list[tuple[bytes, bytes]],
    body: bytes,
) -> tuple[int, list[tuple[bytes, bytes]], bytes]:
    """Run one request (``target`` is the path plus any ``?query``)
    through an ASGI app; returns the response's ``(status, headers,
    body)``, status 500 if the app never started one."""
    path, _, query = target.partition("?")
    scope = {
        "type": "http",
        "asgi": {"version": "3.0"},
        "http_version": "1.1",
        "method": method.upper(),
        "path": path,
        "query_string": query.encode("latin-1"),
        "headers": headers,
    }
    delivered = False
    response: dict = {"status": 500, "headers": [], "body": b""}

    async def receive():
        nonlocal delivered
        if delivered:
            return {"type": "http.disconnect"}
        delivered = True
        return {"type": "http.request", "body": body, "more_body": False}

    async def send(message):
        if message["type"] == "http.response.start":
            response["status"] = message["status"]
            response["headers"] = message.get("headers", [])
        elif message["type"] == "http.response.body":
            response["body"] += message.get("body", b"")

    await app(scope, receive, send)
    return response["status"], response["headers"], response["body"]


class Lifespan:
    """The server side of an app's ASGI lifespan cycle.

    :meth:`startup` starts the app's lifespan task and sends
    ``lifespan.startup``; it returns ``None`` once the app completes
    startup, or the app's ``lifespan.startup.failed`` message after
    the task has ended, or ``None`` when the task ends without a reply
    (an app without lifespan support; the server runs on without
    lifespan events).  :meth:`shutdown` sends ``lifespan.shutdown`` and
    joins the task; it does nothing when the task is not running.
    """

    def __init__(self, app) -> None:
        self.app = app
        self._task: asyncio.Task | None = None

    async def startup(self) -> dict | None:
        self._to_app: asyncio.Queue = asyncio.Queue()
        self._stopped = asyncio.Event()
        started = asyncio.Event()
        failure: dict | None = None

        async def receive():
            return await self._to_app.get()

        async def send(message):
            nonlocal failure
            kind = message["type"]
            if kind == "lifespan.startup.failed":
                failure = message
                started.set()
            elif kind == "lifespan.startup.complete":
                started.set()
            else:
                self._stopped.set()

        self._task = asyncio.ensure_future(
            self.app({"type": "lifespan"}, receive, send)
        )
        self._task.add_done_callback(lambda _: started.set())
        await self._to_app.put({"type": "lifespan.startup"})
        await started.wait()
        if failure is not None:
            await self._task
        elif self._task.done() and not self._task.cancelled():
            # The app ended without replying; mark its error seen.
            self._task.exception()
        return failure

    async def shutdown(self) -> None:
        if self._task is None or self._task.done():
            return
        await self._to_app.put({"type": "lifespan.shutdown"})
        await self._stopped.wait()
        await self._task
