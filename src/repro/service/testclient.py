"""In-process ASGI test client (the role httpx's ``ASGITransport``
plays in environments that have httpx).

:class:`AsgiClient` speaks raw ASGI to an :class:`~repro.service.asgi.App`
without sockets, through the drivers ``repro serve`` uses too: each
request runs through :func:`~repro.service.asgi.run_http`, and
entering the client as an async context manager drives the full
*lifespan* cycle through :class:`~repro.service.asgi.Lifespan` —
startup on ``__aenter__`` (raising :class:`LifespanFailed` if the app
refuses to start), shutdown on ``__aexit__``.  Constructing the client
with ``lifespan=False`` skips the cycle, which is how the tests reach
the app in its cold, pre-warmup state.

Tests are plain synchronous pytest functions (no asyncio plugin in
the container), so the module also ships :func:`run_app`: run an async
scenario against an app under a fresh event loop and a managed
lifespan.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Awaitable, Callable

from repro.service.asgi import Lifespan, run_http

__all__ = ["AsgiClient", "ClientResponse", "LifespanFailed", "run_app"]


class LifespanFailed(RuntimeError):
    """The app reported ``lifespan.startup.failed``."""


class ClientResponse:
    """One captured HTTP response."""

    def __init__(
        self, status: int, headers: dict[str, str], body: bytes
    ) -> None:
        self.status = status
        self.headers = headers
        self.body = body

    def json(self) -> Any:
        return json.loads(self.body)


class AsgiClient:
    """Drive an ASGI app in-process, one request per call."""

    def __init__(self, app, lifespan: bool = True) -> None:
        self.app = app
        self._lifespan = Lifespan(app) if lifespan else None

    # ------------------------------------------------ lifespan driving
    async def __aenter__(self) -> "AsgiClient":
        if self._lifespan is not None:
            failure = await self._lifespan.startup()
            if failure is not None:
                raise LifespanFailed(failure.get("message", ""))
        return self

    async def __aexit__(self, *exc_info) -> None:
        if self._lifespan is not None:
            await self._lifespan.shutdown()

    # --------------------------------------------------------- requests
    async def request(
        self,
        method: str,
        path: str,
        json_body: Any = None,
        body: bytes | None = None,
    ) -> ClientResponse:
        if json_body is not None:
            body = json.dumps(json_body).encode("utf-8")
        status, headers, body = await run_http(
            self.app,
            method,
            path,
            [(b"content-type", b"application/json")],
            body or b"",
        )
        return ClientResponse(
            status,
            {
                name.decode("latin-1"): value.decode("latin-1")
                for name, value in headers
            },
            body,
        )

    async def get(self, path: str) -> ClientResponse:
        return await self.request("GET", path)

    async def post(self, path: str, json_body: Any = None) -> ClientResponse:
        return await self.request("POST", path, json_body=json_body)


def run_app(app, scenario: Callable[[AsgiClient], Awaitable[Any]]) -> Any:
    """Run ``scenario(client)`` against ``app`` under a managed lifespan."""

    async def main():
        async with AsgiClient(app) as client:
            return await scenario(client)

    return asyncio.run(main())
