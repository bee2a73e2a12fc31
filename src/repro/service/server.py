"""Stdlib asyncio HTTP/1.1 server for the ASGI app.

The target container has no ASGI server installed, so ``repro serve``
runs the app on a small asyncio-streams bridge: parse one HTTP/1.1
request, translate it to an ``http`` ASGI scope, relay the response,
honor keep-alive.  The implementation covers what a JSON API needs —
``Content-Length`` bodies, no chunked uploads, no TLS — and any real
ASGI server can replace it without touching the app.

Startup is fail-fast: the lifespan warmup (dataset generation, index
builds) runs **before** the socket starts accepting, and both warmup
failures and bind failures raise :class:`ServiceStartupError` — a
``RuntimeError`` the CLI turns into a clean non-zero exit instead of a
traceback.
"""

from __future__ import annotations

import asyncio

from repro.service.asgi import Lifespan, run_http

__all__ = ["ServiceStartupError", "serve"]

_MAX_HEADER_BYTES = 65536
_MAX_BODY_BYTES = 16 * 1024 * 1024


class ServiceStartupError(RuntimeError):
    """The service could not start (bad config, bind failure, cold
    warmup error); the CLI reports it and exits 1."""


async def _handle_connection(app, reader, writer) -> None:
    try:
        while True:
            try:
                head = await reader.readuntil(b"\r\n\r\n")
            except (
                asyncio.IncompleteReadError,
                asyncio.LimitOverrunError,
                ConnectionError,
            ):
                return
            if len(head) > _MAX_HEADER_BYTES:
                return
            lines = head.decode("latin-1").split("\r\n")
            try:
                method, target, version = lines[0].split(" ")
            except ValueError:
                return
            if not version.startswith("HTTP/"):
                return
            headers: list[tuple[bytes, bytes]] = []
            for line in lines[1:]:
                if not line:
                    continue
                name, _, value = line.partition(":")
                headers.append(
                    (
                        name.strip().lower().encode("latin-1"),
                        value.strip().encode("latin-1"),
                    )
                )
            header_map = dict(headers)
            length = int(header_map.get(b"content-length", b"0") or 0)
            if length > _MAX_BODY_BYTES:
                return
            body = await reader.readexactly(length) if length else b""
            status, response_headers, response_body = await run_http(
                app, method, target, headers, body
            )
            keep_alive = (
                header_map.get(b"connection", b"keep-alive").lower()
                != b"close"
            )
            connection = b"keep-alive" if keep_alive else b"close"
            header_lines = b"".join(
                name + b": " + value + b"\r\n"
                for name, value in response_headers
            )
            writer.write(
                b"HTTP/1.1 "
                + str(status).encode("latin-1")
                + b" \r\n"
                + header_lines
                + b"connection: "
                + connection
                + b"\r\n\r\n"
                + response_body
            )
            await writer.drain()
            if not keep_alive:
                return
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:  # pragma: no cover - client went away
            pass


async def serve_async(
    app, host: str, port: int, ready: asyncio.Event | None = None
) -> None:
    """Warm the app, bind, and serve until cancelled."""
    lifespan = Lifespan(app)
    failure = await lifespan.startup()
    if failure is not None:
        message = failure.get("message", "startup failed")
        raise ServiceStartupError(f"service warmup failed: {message}")
    try:
        try:
            server = await asyncio.start_server(
                lambda r, w: _handle_connection(app, r, w),
                host,
                port,
            )
        except OSError as error:
            raise ServiceStartupError(
                f"cannot bind {host}:{port}: {error}"
            ) from None
        async with server:
            bound = ", ".join(
                f"{sock.getsockname()[0]}:{sock.getsockname()[1]}"
                for sock in server.sockets
            )
            # Expose the resolved port (meaningful with port=0) so
            # tests and embedders can find the listener.
            app.state["server_port"] = server.sockets[0].getsockname()[1]
            print(f"serving on {bound}")
            if ready is not None:
                ready.set()
            await server.serve_forever()
    finally:
        await lifespan.shutdown()


def serve(app, host: str = "127.0.0.1", port: int = 8000) -> None:
    """Blocking entry point used by ``repro serve``."""
    if not (0 <= port <= 65535):
        raise ServiceStartupError(f"invalid port {port}")
    asyncio.run(serve_async(app, host, port))
