"""The dependency-free ASGI core: routing, errors, lifespan protocol."""

from __future__ import annotations

import asyncio
from contextlib import asynccontextmanager

import pytest

from repro.service.asgi import (
    App,
    HTTPError,
    JSONResponse,
    Lifespan,
    run_http,
)
from repro.service.testclient import AsgiClient, LifespanFailed, run_app


def _demo_app() -> App:
    app = App()

    @app.route("GET", "/ping")
    async def ping(request):
        return JSONResponse({"pong": True, "q": request.query.get("q")})

    @app.route("POST", "/echo")
    async def echo(request):
        return JSONResponse({"received": request.json()})

    @app.route("GET", "/teapot")
    async def teapot(request):
        raise HTTPError(418, "short and stout")

    @app.route("GET", "/boom")
    async def boom(request):
        raise RuntimeError("handler exploded")

    return app


class TestRouting:
    def test_exact_path_dispatch(self):
        async def scenario(client):
            response = await client.get("/ping")
            assert response.status == 200
            assert response.json() == {"pong": True, "q": None}

        run_app(_demo_app(), scenario)

    def test_query_string_parsing(self):
        async def scenario(client):
            response = await client.get("/ping?q=hello")
            assert response.json()["q"] == "hello"

        run_app(_demo_app(), scenario)

    def test_unknown_path_is_404(self):
        async def scenario(client):
            response = await client.get("/nope")
            assert response.status == 404
            assert response.json() == {"detail": "not found"}

        run_app(_demo_app(), scenario)

    def test_wrong_method_is_405(self):
        async def scenario(client):
            response = await client.post("/ping")
            assert response.status == 405

        run_app(_demo_app(), scenario)


class TestBodies:
    def test_json_round_trip(self):
        async def scenario(client):
            response = await client.post("/echo", json_body={"a": [1, 2]})
            assert response.json() == {"received": {"a": [1, 2]}}

        run_app(_demo_app(), scenario)

    def test_malformed_json_is_400(self):
        async def scenario(client):
            response = await client.request("POST", "/echo", body=b"{nope")
            assert response.status == 400
            assert "malformed JSON" in response.json()["detail"]

        run_app(_demo_app(), scenario)

    def test_empty_body_is_400(self):
        async def scenario(client):
            response = await client.post("/echo")
            assert response.status == 400

        run_app(_demo_app(), scenario)

    def test_payloads_serialize_deterministically(self):
        # sort_keys + compact separators: equal payloads, equal bytes.
        a = JSONResponse({"b": 1, "a": [1.5, "x"]}).encode()
        b = JSONResponse({"a": [1.5, "x"], "b": 1}).encode()
        assert a == b


class TestErrors:
    def test_http_error_maps_to_status(self):
        async def scenario(client):
            response = await client.get("/teapot")
            assert response.status == 418
            assert response.json() == {"detail": "short and stout"}

        run_app(_demo_app(), scenario)

    def test_handler_crash_is_500_and_app_survives(self, capsys):
        async def scenario(client):
            response = await client.get("/boom")
            assert response.status == 500
            assert response.json() == {"detail": "internal server error"}
            # The app keeps serving after a handler crash.
            response = await client.get("/ping")
            assert response.status == 200

        run_app(_demo_app(), scenario)
        assert "handler exploded" in capsys.readouterr().err


class TestRunHttp:
    """The one request driver behind the socket server and the client."""

    def test_round_trip(self):
        status, headers, body = asyncio.run(
            run_http(_demo_app(), "post", "/echo?x=1", [], b'{"a": 1}')
        )
        assert status == 200
        assert (b"content-type", b"application/json") in headers
        assert body == b'{"received":{"a":1}}'

    def test_app_that_never_responds_is_500(self):
        async def silent(scope, receive, send):
            await receive()

        response = asyncio.run(run_http(silent, "GET", "/", [], b""))
        assert response == (500, [], b"")


class TestLifespanProtocol:
    def test_startup_and_shutdown_run_once_in_order(self):
        events: list[str] = []

        @asynccontextmanager
        async def lifespan(app):
            events.append("startup")
            yield
            events.append("shutdown")

        app = App(lifespan=lifespan)

        @app.route("GET", "/ping")
        async def ping(request):
            events.append("request")
            return JSONResponse({})

        async def scenario(client):
            await client.get("/ping")

        run_app(app, scenario)
        assert events == ["startup", "request", "shutdown"]

    def test_startup_failure_is_reported(self):
        @asynccontextmanager
        async def lifespan(app):
            raise RuntimeError("no artifacts")
            yield  # pragma: no cover

        app = App(lifespan=lifespan)

        async def main():
            async with AsgiClient(app):
                pass  # pragma: no cover - startup must fail

        with pytest.raises(LifespanFailed, match="no artifacts"):
            asyncio.run(main())

    @pytest.mark.parametrize("ending", ["raise", "return"])
    def test_app_without_lifespan_support_starts(self, ending):
        # An app may end its lifespan call without replying; the
        # server then runs on without lifespan events.
        inner = _demo_app()

        async def app(scope, receive, send):
            if scope["type"] == "lifespan":
                if ending == "raise":
                    raise RuntimeError("lifespan not supported")
                return
            await inner(scope, receive, send)

        async def through_lifespan():
            lifespan = Lifespan(app)
            assert await lifespan.startup() is None
            await lifespan.shutdown()

        async def through_client():
            async with AsgiClient(app) as client:
                return await client.get("/ping?q=1")

        asyncio.run(asyncio.wait_for(through_lifespan(), timeout=5))
        response = asyncio.run(asyncio.wait_for(through_client(), timeout=5))
        assert response.status == 200
        assert response.json() == {"pong": True, "q": "1"}

    def test_client_can_skip_lifespan(self):
        @asynccontextmanager
        async def lifespan(app):
            raise AssertionError("must not start")
            yield  # pragma: no cover

        app = App(lifespan=lifespan)

        @app.route("GET", "/ping")
        async def ping(request):
            return JSONResponse({})

        async def main():
            async with AsgiClient(app, lifespan=False) as client:
                response = await client.get("/ping")
                assert response.status == 200

        asyncio.run(main())
