"""Service benchmark: micro-batch coalescing, idle round trips, and
resolve cost vs growth.

Stands up the ER-as-a-service app twice over the same warm
:class:`~repro.service.resolver.ResolverService` configuration — once
with the micro-batch scheduler coalescing (the production path) and
once with ``max_batch=1`` (strict serial per-request execution) — and
drives both with ``CLIENTS`` concurrent in-process clients, each
issuing a stream of ``POST /resolve`` requests.  Then

* asserts the coalesced path reaches at least ``MIN_SPEEDUP``x the
  serial throughput at the same concurrency,
* asserts every coalesced response body is **byte-identical** to the
  serial response for the same query (per-pair kernels are exact, so
  batch composition cannot change a score), and
* reports p50/p99 request latency for both modes.

The idle leg serves perfbench's serve setting (d8, 2,940 indexed
records, ``tokens`` blocking, ``jaccard``) to one client that sends
its next ``POST /resolve`` only after the last one returns, so every
request finds the scheduler idle.  It alternates ``IDLE_ROUNDS`` such
round trips with ``IDLE_ROUNDS`` direct one-query
:meth:`~repro.service.resolver.ResolverService.resolve_batch` passes
on the same queries, and asserts the median round trip within
``MAX_IDLE_OVERHEAD_MS`` of the median pass: an idle scheduler starts
a request's pass at once, so the round trip adds only the ASGI and
executor hops.

The growth leg then serves the same setting twice and grows one
of the two indexed collections ``GROWTH_FACTOR``x through ``POST
/ingest``, with records that share no token with any query, so every
query keeps its candidates and its answer.  It times
``GROWTH_PASSES`` direct
:meth:`~repro.service.resolver.ResolverService.resolve_batch` passes
of ``GROWTH_QUERIES`` queries on each, alternating between the two.
A pass builds only its queries' side and scores the candidates' rows
of the indexed side, so it asserts the grown median within
``MAX_GROWTH``x the base one.

Run directly (the CI smoke job does; ``--smoke`` shrinks the
coalescing leg only)::

    PYTHONPATH=src python benchmarks/bench_service.py [--smoke] [--json PATH]

Latency is measured around the full ASGI round trip (parse, schedule,
kernel pass, serialize), in-process — no sockets, so the numbers
isolate the engine + scheduler cost the service adds per request.

Not a pytest-benchmark harness on purpose: the comparison needs two
end-to-end concurrent runs of the same request stream, not statistics
over many hot repetitions of one call.
"""

from __future__ import annotations

import argparse
import asyncio
import statistics
import sys
import time

try:  # direct script execution: benchmarks/ is sys.path[0]
    from _report import write_report as _write_report
except ImportError:  # imported as benchmarks.bench_* from the repo root
    from benchmarks._report import write_report as _write_report

from repro.service import ServiceConfig, create_app
from repro.service.app import MAX_MATCH_RECORDS
from repro.service.testclient import AsgiClient
from repro.textsim.tokenize import tokens

#: Required coalesced-vs-serial throughput gain at CLIENTS concurrent
#: clients.  Coalescing shares one query side, SparsePlan and kernel
#: pass (and the scheduler round trip) among the whole batch, so the
#: gain tracks the achieved batch size; 2x is the acceptance floor.
MIN_SPEEDUP = 2.0

#: Concurrent in-process clients (the acceptance criterion's 16).
CLIENTS = 16

#: Requests each client issues per run.
REQUESTS_FULL = 24
REQUESTS_SMOKE = 6

#: Dataset profile served by the benchmark app.
DATASET = "d1"
SCALE_FULL = 0.4
SCALE_SMOKE = 0.05
MAX_PAIRS = 2000

#: Growth leg: perfbench's serve setting, 340 queries x 2,940 indexed.
GROWTH_DATASET = "d8"
GROWTH_SCALE = 0.3
GROWTH_MAX_PAIRS = 1_000_000
GROWTH_QUERIES = 8
GROWTH_PASSES = 60
GROWTH_FACTOR = 10

#: Ceiling on the grown collection's median pass over the base one: a
#: pass's cost follows its queries and candidates, which the growth
#: leaves unchanged.
MAX_GROWTH = 1.2

#: Idle leg: sequential single-client round trips, each beside a
#: direct one-query pass.
IDLE_ROUNDS = 60

#: Ceiling on the median idle round trip minus the median direct pass:
#: the ASGI parse, the executor hop and the JSON response, with no
#: wait for companions.  A fixed 2 ms coalescing window before every
#: pass read 2.6-2.7 ms here on a 2-core box; starting the pass at
#: once reads 0.3-0.6 ms.
MAX_IDLE_OVERHEAD_MS = 1.0


def _service_config(smoke: bool, max_batch: int) -> ServiceConfig:
    return ServiceConfig(
        datasets=(DATASET,),
        blocking="tokens",
        measure="jaccard",
        scale=SCALE_SMOKE if smoke else SCALE_FULL,
        max_pairs=MAX_PAIRS,
        seed=42,
        max_batch=max_batch,
    )


def _queries(app, per_client: int) -> list[list[str]]:
    """Per-client query streams drawn from the served dataset's own
    left collection (every record resolves against real candidates)."""
    service = app.state["service"]
    index = service.index(DATASET)
    lefts, _ = index.cache.texts()
    streams = []
    for client in range(CLIENTS):
        streams.append(
            [
                lefts[(client * per_client + k) % len(lefts)]
                for k in range(per_client)
            ]
        )
    return streams


async def _drive(app, per_client: int):
    """Run the concurrent client fleet; returns (seconds, latencies,
    bodies, batch sizes) with bodies keyed by (client, request)."""
    async with AsgiClient(app) as client:
        streams = _queries(app, per_client)
        latencies: list[float] = []
        bodies: dict[tuple[int, int], bytes] = {}
        batch_sizes: list[int] = []

        async def one_client(cid: int) -> None:
            for k, query in enumerate(streams[cid]):
                start = time.perf_counter()
                response = await client.post(
                    "/resolve",
                    json_body={"dataset": DATASET, "record": query},
                )
                latencies.append(time.perf_counter() - start)
                assert response.status == 200, response.body
                bodies[(cid, k)] = response.body
                batch_sizes.append(
                    int(response.headers.get("x-batch-size", "1"))
                )

        begin = time.perf_counter()
        await asyncio.gather(
            *[one_client(cid) for cid in range(CLIENTS)]
        )
        seconds = time.perf_counter() - begin
    return seconds, latencies, bodies, batch_sizes


def _growth_records(rights: list[str]) -> list[dict]:
    """``GROWTH_FACTOR - 1`` copies of the indexed texts, every word
    suffixed per copy: as many words as the originals, none of them
    held by any query."""
    records = []
    for copy in range(1, GROWTH_FACTOR):
        suffix = "zq" + "abcdefghijklmnopqrstuvwxy"[copy]
        for k, text in enumerate(rights):
            words = [word + suffix for word in tokens(text)]
            records.append(
                {
                    "id": f"grown-{copy}-{k}",
                    "text": " ".join(words) or f"blank{suffix}",
                }
            )
    return records


def _median_passes_ms(services, queries: list[str]) -> list[float]:
    """Median pass of each service, the services' passes alternating so
    that load on the host hits them alike."""
    seconds = [[] for _ in services]
    for _ in range(GROWTH_PASSES):
        for times, service in zip(seconds, services):
            start = time.perf_counter()
            service.resolve_batch(GROWTH_DATASET, "jaccard", queries)
            times.append(time.perf_counter() - start)
    return [1000.0 * statistics.median(times) for times in seconds]


async def _idle_ms(client, service, queries: list[str]) -> list[float]:
    """Median sequential ``/resolve`` round trip and median direct
    one-query pass on an idle app, the two alternating query by query
    so that load on the host hits them alike."""
    trips, passes = [], []
    for k in range(IDLE_ROUNDS):
        query = queries[k % len(queries)]
        start = time.perf_counter()
        response = await client.post(
            "/resolve", json_body={"dataset": GROWTH_DATASET, "record": query}
        )
        trips.append(time.perf_counter() - start)
        assert response.status == 200, response.body
        start = time.perf_counter()
        service.resolve_batch(GROWTH_DATASET, "jaccard", [query])
        passes.append(time.perf_counter() - start)
    return [1000.0 * statistics.median(times) for times in (trips, passes)]


async def _serve_setting() -> tuple[float, float, float, float, int, int]:
    """On perfbench's serve setting: the idle leg's median round trip
    and pass, then the median pass of the served index and of a twin
    grown through ``/ingest``, and the two indexed sizes."""
    config = ServiceConfig(
        datasets=(GROWTH_DATASET,),
        blocking="tokens",
        measure="jaccard",
        scale=GROWTH_SCALE,
        max_pairs=GROWTH_MAX_PAIRS,
        seed=42,
    )
    base_app, grown_app = create_app(config), create_app(config)
    async with (
        AsgiClient(base_app) as base_client,
        AsgiClient(grown_app) as client,
    ):
        base = base_app.state["service"]
        grown = grown_app.state["service"]
        index = grown.index(GROWTH_DATASET)
        lefts, _ = index.cache.texts()
        idle_trip_ms, idle_pass_ms = await _idle_ms(base_client, base, lefts)
        queries = lefts[:GROWTH_QUERIES]
        n_base = index.n_indexed
        records = _growth_records(list(index.rights))
        for start in range(0, len(records), MAX_MATCH_RECORDS):
            response = await client.post(
                "/ingest",
                json_body={
                    "dataset": GROWTH_DATASET,
                    "records": records[start:start + MAX_MATCH_RECORDS],
                },
            )
            assert response.status == 200, response.body
        assert index.n_indexed == GROWTH_FACTOR * n_base
        probe = base.index(GROWTH_DATASET).probe
        for query in queries:
            assert (
                index.probe.probe(query).tolist()
                == probe.probe(query).tolist()
            ), "growth changed a query's candidates"
        assert grown.resolve_batch(
            GROWTH_DATASET, "jaccard", queries
        ) == base.resolve_batch(
            GROWTH_DATASET, "jaccard", queries
        ), "growth changed an answer"
        base_ms, grown_ms = _median_passes_ms((base, grown), queries)
        return (
            idle_trip_ms,
            idle_pass_ms,
            base_ms,
            grown_ms,
            n_base,
            index.n_indexed,
        )


def _percentiles(latencies: list[float]) -> tuple[float, float]:
    ranked = sorted(latencies)
    p50 = statistics.median(ranked)
    p99 = ranked[min(len(ranked) - 1, int(0.99 * len(ranked)))]
    return p50, p99


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--json", dest="json_path", default=None)
    parser.add_argument("--no-assert", action="store_true")
    args = parser.parse_args(argv)
    per_client = REQUESTS_SMOKE if args.smoke else REQUESTS_FULL
    total = CLIENTS * per_client

    serial_app = create_app(_service_config(args.smoke, max_batch=1))
    serial_seconds, serial_lat, serial_bodies, _ = asyncio.run(
        _drive(serial_app, per_client)
    )
    coalesced_app = create_app(
        _service_config(args.smoke, max_batch=CLIENTS * 2)
    )
    batched_seconds, batched_lat, batched_bodies, batch_sizes = asyncio.run(
        _drive(coalesced_app, per_client)
    )

    assert serial_bodies.keys() == batched_bodies.keys()
    mismatched = [
        key
        for key in serial_bodies
        if serial_bodies[key] != batched_bodies[key]
    ]
    assert not mismatched, (
        f"{len(mismatched)} coalesced responses differ from serial: "
        f"{mismatched[:5]}"
    )

    idle_trip_ms, idle_pass_ms, base_ms, grown_ms, n_base, n_grown = (
        asyncio.run(_serve_setting())
    )
    idle_overhead = idle_trip_ms - idle_pass_ms
    growth = grown_ms / base_ms

    speedup = serial_seconds / batched_seconds
    serial_p50, serial_p99 = _percentiles(serial_lat)
    batched_p50, batched_p99 = _percentiles(batched_lat)
    mean_batch = sum(batch_sizes) / len(batch_sizes)
    print(
        f"serial    : {total} requests in {serial_seconds:.2f}s "
        f"({total / serial_seconds:.0f} rps)  "
        f"p50 {serial_p50 * 1000:.1f}ms  p99 {serial_p99 * 1000:.1f}ms"
    )
    print(
        f"coalesced : {total} requests in {batched_seconds:.2f}s "
        f"({total / batched_seconds:.0f} rps)  "
        f"p50 {batched_p50 * 1000:.1f}ms  p99 {batched_p99 * 1000:.1f}ms  "
        f"mean batch {mean_batch:.1f}"
    )
    print(
        f"throughput gain {speedup:.2f}x (floor {MIN_SPEEDUP}x) — "
        f"all {total} responses byte-identical to the serial path"
    )
    print(
        f"idle      : /resolve round trip p50 {idle_trip_ms:.2f}ms vs "
        f"one-query pass p50 {idle_pass_ms:.2f}ms "
        f"(+{idle_overhead:.2f}ms, ceiling {MAX_IDLE_OVERHEAD_MS}ms)"
    )
    print(
        f"growth    : {GROWTH_QUERIES}-query pass p50 {base_ms:.2f}ms at "
        f"{n_base} indexed -> {grown_ms:.2f}ms at {n_grown} "
        f"({growth:.2f}x, ceiling {MAX_GROWTH}x; answers unchanged)"
    )
    if args.json_path:
        _write_report(
            args.json_path,
            benchmark="service",
            smoke=args.smoke,
            legacy_seconds=serial_seconds,
            engine_seconds=batched_seconds,
            speedup=speedup,
            floor=MIN_SPEEDUP,
            asserted=not args.no_assert,
            clients=CLIENTS,
            requests=total,
            mean_batch_size=mean_batch,
            serial_p50_ms=serial_p50 * 1000,
            serial_p99_ms=serial_p99 * 1000,
            coalesced_p50_ms=batched_p50 * 1000,
            coalesced_p99_ms=batched_p99 * 1000,
            idle_round_trip_p50_ms=idle_trip_ms,
            idle_pass_p50_ms=idle_pass_ms,
            idle_overhead_ceiling_ms=MAX_IDLE_OVERHEAD_MS,
            growth_base_p50_ms=base_ms,
            growth_grown_p50_ms=grown_ms,
            growth_base_indexed=n_base,
            growth_grown_indexed=n_grown,
            growth_ratio=growth,
            growth_ceiling=MAX_GROWTH,
        )
    if not args.no_assert:
        assert mean_batch > 1.0, (
            f"coalescing never batched (mean batch {mean_batch:.2f})"
        )
        assert speedup >= MIN_SPEEDUP, (
            f"coalescing gain {speedup:.2f}x below the "
            f"{MIN_SPEEDUP}x floor"
        )
        assert idle_overhead <= MAX_IDLE_OVERHEAD_MS, (
            f"an idle /resolve round trip took {idle_overhead:.2f}ms "
            f"beyond its pass, above the {MAX_IDLE_OVERHEAD_MS}ms ceiling"
        )
        assert growth <= MAX_GROWTH, (
            f"pass median grew {growth:.2f}x with a {GROWTH_FACTOR}x "
            f"indexed collection, above the {MAX_GROWTH}x ceiling"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
