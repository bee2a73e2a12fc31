"""Endpoint behavior of the resolution API over a warm app."""

from __future__ import annotations

import asyncio

from repro.matching.registry import ALGORITHM_CODES
from repro.service.testclient import run_app

SERVICE_DATASET = "d1"


class TestHealthz:
    def test_reports_ok_and_scheduler_stats(self, warm_app):
        async def scenario(client):
            response = await client.get("/healthz")
            assert response.status == 200
            payload = response.json()
            assert payload["status"] == "ok"
            assert payload["datasets"] == [SERVICE_DATASET]
            assert payload["scheduler"]["max_batch"] == 64
            assert payload["scheduler"]["queue_depth"] == 0
            return payload

        run_app(warm_app, scenario)

    def test_stopped_drain_task_is_503(self, warm_app):
        async def scenario(client):
            task = warm_app.state["scheduler"]._task
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)
            response = await client.get("/healthz")
            assert response.status == 503
            assert response.json()["status"] == "stopped"

        run_app(warm_app, scenario)


class TestDatasets:
    def test_describes_frozen_indexes(self, warm_app):
        async def scenario(client):
            response = await client.get("/datasets")
            assert response.status == 200
            payload = response.json()
            (entry,) = payload["datasets"]
            assert entry["code"] == SERVICE_DATASET
            assert entry["blocking"].startswith("tokens:")
            assert entry["n_indexed"] > 0
            assert payload["default_measure"] == "jaccard"

        run_app(warm_app, scenario)


class TestResolve:
    def test_resolves_known_record(self, warm_app, left_texts):
        async def scenario(client):
            response = await client.post(
                "/resolve",
                json_body={
                    "dataset": SERVICE_DATASET,
                    "record": left_texts[0],
                },
            )
            assert response.status == 200
            assert "x-batch-size" in response.headers
            payload = response.json()
            assert payload["dataset"] == SERVICE_DATASET
            assert payload["measure"] == "jaccard"
            matches = payload["matches"]
            assert matches, "a real left record must block to candidates"
            scores = [match["score"] for match in matches]
            assert scores == sorted(scores, reverse=True)
            assert all(0.0 <= score <= 1.0 for score in scores)
            assert all(
                match["id"] and match["text"] for match in matches
            )

        run_app(warm_app, scenario)

    def test_top_k_truncates(self, warm_app, left_texts):
        async def scenario(client):
            body = {"dataset": SERVICE_DATASET, "record": left_texts[0]}
            full = await client.post("/resolve", json_body=body)
            one = await client.post(
                "/resolve", json_body={**body, "top_k": 1}
            )
            assert len(one.json()["matches"]) == 1
            assert (
                one.json()["matches"][0] == full.json()["matches"][0]
            )

        run_app(warm_app, scenario)

    def test_explicit_measure_changes_scores(self, warm_app, left_texts):
        async def scenario(client):
            body = {"dataset": SERVICE_DATASET, "record": left_texts[0]}
            jaccard = await client.post("/resolve", json_body=body)
            jaro = await client.post(
                "/resolve", json_body={**body, "measure": "jaro"}
            )
            assert jaro.status == 200
            assert jaro.json()["measure"] == "jaro"
            assert jaro.json() != jaccard.json()

        run_app(warm_app, scenario)

    def test_unknown_dataset_is_404(self, warm_app):
        async def scenario(client):
            response = await client.post(
                "/resolve", json_body={"dataset": "d9", "record": "x"}
            )
            assert response.status == 404
            assert "not served" in response.json()["detail"]

        run_app(warm_app, scenario)

    def test_unknown_measure_is_422(self, warm_app):
        async def scenario(client):
            response = await client.post(
                "/resolve",
                json_body={
                    "dataset": SERVICE_DATASET,
                    "record": "x",
                    "measure": "soundex",
                },
            )
            assert response.status == 422
            assert "unknown measure" in response.json()["detail"]

        run_app(warm_app, scenario)

    def test_malformed_measure_is_422_and_service_keeps_answering(
        self, warm_app, left_texts
    ):
        # A list or object measure once reached the scheduler's group
        # keys, where it raised inside the drain task: the request
        # never answered and every later /resolve got 503.
        body = {"dataset": SERVICE_DATASET, "record": left_texts[0]}

        async def scenario(client):
            for measure in (["jaccard"], {"name": "jaccard"}, 3):
                response = await asyncio.wait_for(
                    client.post(
                        "/resolve", json_body={**body, "measure": measure}
                    ),
                    timeout=10,
                )
                assert response.status == 422, measure
                detail = response.json()["detail"]
                assert "'measure' must be a string" in detail, measure
            response = await asyncio.wait_for(
                client.post("/resolve", json_body=body), timeout=10
            )
            assert response.status == 200
            assert response.json()["matches"]

        run_app(warm_app, scenario)

    def test_lone_surrogate_is_422_and_spares_its_batch(
        self, warm_app, left_texts
    ):
        # A lone surrogate once reached the pass, where the code-point
        # encoding raised: the pass failed every request it had
        # coalesced, each with a 500.
        body = {
            "dataset": SERVICE_DATASET,
            "record": left_texts[0],
            "measure": "levenshtein",
        }

        async def scenario(client):
            bad, good = await asyncio.gather(
                client.post(
                    "/resolve",
                    json_body={**body, "record": "a\ud800 " + body["record"]},
                ),
                client.post("/resolve", json_body=body),
            )
            assert bad.status == 422
            assert "lone surrogate" in bad.json()["detail"]
            assert good.status == 200
            assert good.json()["matches"]

        run_app(warm_app, scenario)

    def test_missing_fields_are_422(self, warm_app):
        async def scenario(client):
            for body in (
                {"record": "x"},
                {"dataset": SERVICE_DATASET},
                {"dataset": SERVICE_DATASET, "record": ""},
                {"dataset": SERVICE_DATASET, "record": "x", "top_k": 0},
                # JSON true is a Python int, but not a result count.
                {"dataset": SERVICE_DATASET, "record": "x", "top_k": True},
            ):
                response = await client.post("/resolve", json_body=body)
                assert response.status == 422, body

        run_app(warm_app, scenario)

    def test_non_object_body_is_400(self, warm_app):
        async def scenario(client):
            response = await client.post("/resolve", json_body=[1, 2])
            assert response.status == 400

        run_app(warm_app, scenario)


class TestMatch:
    LEFT = ["alpha beta", "gamma delta", "epsilon"]
    RIGHT = ["alpha beta", "delta gamma", "zeta"]

    def test_matches_collections(self, warm_app):
        async def scenario(client):
            response = await client.post(
                "/match",
                json_body={
                    "left": self.LEFT,
                    "right": self.RIGHT,
                    "algorithm": "umc",
                    "threshold": 0.3,
                },
            )
            assert response.status == 200
            payload = response.json()
            assert payload["algorithm"] == "UMC"
            pairs = payload["pairs"]
            assert {"left": 0, "right": 0, "score": 1.0} in pairs
            # unique-mapping: no left or right index repeats
            lefts = [pair["left"] for pair in pairs]
            rights = [pair["right"] for pair in pairs]
            assert len(set(lefts)) == len(lefts)
            assert len(set(rights)) == len(rights)
            assert all(
                pair["score"] >= 0.3 - 1e-12 for pair in pairs
            )

        run_app(warm_app, scenario)

    def test_every_algorithm_code_is_servable(self, warm_app):
        async def scenario(client):
            for code in sorted(ALGORITHM_CODES):
                response = await client.post(
                    "/match",
                    json_body={
                        "left": self.LEFT,
                        "right": self.RIGHT,
                        "algorithm": code,
                        "threshold": 0.5,
                    },
                )
                assert response.status == 200, (code, response.body)

        run_app(warm_app, scenario)

    def test_unknown_algorithm_is_422(self, warm_app):
        async def scenario(client):
            response = await client.post(
                "/match",
                json_body={
                    "left": ["a"],
                    "right": ["a"],
                    "algorithm": "XXX",
                },
            )
            assert response.status == 422
            assert "unknown algorithm" in response.json()["detail"]

        run_app(warm_app, scenario)

    def test_bad_threshold_is_422(self, warm_app):
        async def scenario(client):
            response = await client.post(
                "/match",
                json_body={
                    "left": ["a"],
                    "right": ["a"],
                    "algorithm": "UMC",
                    "threshold": 1.5,
                },
            )
            assert response.status == 422

        run_app(warm_app, scenario)

    def test_oversized_collection_is_422(self, warm_app):
        async def scenario(client):
            response = await client.post(
                "/match",
                json_body={
                    "left": ["a"] * 513,
                    "right": ["a"],
                    "algorithm": "UMC",
                },
            )
            assert response.status == 422
            assert "batch pipeline" in response.json()["detail"]

        run_app(warm_app, scenario)

    def test_match_agrees_with_direct_engine_call(self, warm_app):
        from repro.graph.bipartite import SimilarityGraph
        from repro.matching.registry import create_matcher
        from repro.pipeline.batched_strings import schema_based_matrix

        matrix = schema_based_matrix(self.LEFT, self.RIGHT, "jaccard")
        graph = SimilarityGraph.from_matrix(matrix, name="direct")
        expected = sorted(
            (i, j, float(matrix[i, j]))
            for i, j in create_matcher("UMC").match(graph, 0.3).pairs
        )

        async def scenario(client):
            response = await client.post(
                "/match",
                json_body={
                    "left": self.LEFT,
                    "right": self.RIGHT,
                    "algorithm": "UMC",
                    "threshold": 0.3,
                },
            )
            got = [
                (pair["left"], pair["right"], pair["score"])
                for pair in response.json()["pairs"]
            ]
            # JSON round-trips float64 exactly (shortest-repr), so
            # equality here is bit-equality with the direct call.
            assert got == expected

        run_app(warm_app, scenario)
