"""Micro-batch scheduler: coalesce concurrent resolves into one pass.

Every ``POST /resolve`` becomes a :class:`_Pending` item on an asyncio
queue.  A single drain task picks up the first waiting item, sleeps
one *tick* (the coalescing window), then collects everything else that
arrived — up to ``max_batch`` — and executes each ``(dataset,
measure, top_k)`` group as **one**
:meth:`~repro.service.resolver.ResolverService.resolve_batch` call: one
``StringBatch``, one ``SparsePlan``, one kernel pass, regardless of
how many requests rode along.  Per-pair scores don't depend on batch
composition (see :mod:`repro.service.resolver`), so the responses are
bit-identical to serial execution — the batch only changes *when* the
work runs, never *what* it computes.

With ``coalesce=False`` the scheduler degrades to strict serial
per-request execution — the baseline ``benchmarks/bench_service.py``
measures the coalescing gain against.

Fault isolation: before a request joins a batch the scheduler calls
:func:`repro.testing.faults.maybe_inject` with the request's task key
(``service/resolve/<dataset>/<tag>``), the same seam the resilient
pool exposes.  An injected fault fails **that request's future only**;
the remaining batch members still share their pass, and the frozen
indexes are untouched.  Kernel passes run one at a time on an
executor thread (``run_in_executor``) so the event loop keeps
accepting requests mid-pass; ``/ingest`` runs on the same executor and
:class:`~repro.service.resolver.ResolverService` serializes it with
the passes.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any

from repro.service.resolver import Match, ResolverService
from repro.testing.faults import maybe_inject

__all__ = ["MicroBatchScheduler"]


@dataclass
class _Pending:
    """One queued resolve request awaiting its batch."""

    dataset: str
    measure: str
    query: str
    top_k: int
    tag: str
    future: asyncio.Future = field(repr=False)
    batch_size: int = 0


class MicroBatchScheduler:
    """Coalesce concurrent resolve requests into shared kernel passes.

    Parameters
    ----------
    service:
        The warm :class:`~repro.service.resolver.ResolverService`.
    tick:
        Coalescing window in seconds: how long the drain task waits
        after the first request of a batch for companions to arrive.
    max_batch:
        Upper bound on requests per drain cycle.
    coalesce:
        ``False`` forces one-request-at-a-time execution (the serial
        baseline); the public API is unchanged.
    """

    def __init__(
        self,
        service: ResolverService,
        tick: float = 0.002,
        max_batch: int = 64,
        coalesce: bool = True,
    ) -> None:
        self.service = service
        self.tick = tick
        self.max_batch = max(int(max_batch), 1)
        self.coalesce = coalesce
        self._queue: asyncio.Queue[_Pending] = asyncio.Queue()
        self._task: asyncio.Task | None = None
        self.batches_executed = 0
        self.requests_served = 0

    # --------------------------------------------------------- control
    def start(self) -> None:
        if self._task is None or self._task.done():
            self._task = asyncio.ensure_future(self._drain())

    async def aclose(self) -> None:
        if self._task is None:
            return
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self._task = None
        # Fail anything still queued rather than leaving it hanging.
        while not self._queue.empty():
            pending = self._queue.get_nowait()
            if not pending.future.done():
                pending.future.set_exception(
                    RuntimeError("scheduler stopped")
                )

    @property
    def running(self) -> bool:
        return self._task is not None and not self._task.done()

    # ---------------------------------------------------------- submit
    async def submit(
        self,
        dataset: str,
        measure: str,
        query: str,
        top_k: int = 10,
        tag: str = "",
    ) -> tuple[list[Match], int]:
        """Resolve one query; returns ``(matches, batch_size)``.

        ``batch_size`` is how many requests shared the kernel pass —
        diagnostic only (it depends on arrival timing, not on the
        query), so handlers report it in a header, not the body.
        """
        if not self.running:
            raise RuntimeError("scheduler is not running")
        loop = asyncio.get_running_loop()
        pending = _Pending(
            dataset=dataset,
            measure=measure,
            query=query,
            top_k=top_k,
            tag=tag,
            future=loop.create_future(),
        )
        await self._queue.put(pending)
        matches = await pending.future
        return matches, pending.batch_size

    # ----------------------------------------------------------- drain
    async def _drain(self) -> None:
        while True:
            batch = [await self._queue.get()]
            if self.coalesce:
                if self.tick > 0:
                    await asyncio.sleep(self.tick)
                while (
                    not self._queue.empty()
                    and len(batch) < self.max_batch
                ):
                    batch.append(self._queue.get_nowait())
            await self._execute(batch)

    async def _execute(self, batch: list[_Pending]) -> None:
        # Fault seam: a poisoned request fails here, alone, before its
        # group runs; everyone else proceeds.
        healthy: list[_Pending] = []
        for pending in batch:
            try:
                maybe_inject(
                    f"service/resolve/{pending.dataset}/{pending.tag}",
                    attempt=0,
                )
            except Exception as error:
                if not pending.future.done():
                    pending.future.set_exception(error)
                continue
            healthy.append(pending)
        groups: dict[tuple[str, str, int], list[_Pending]] = {}
        for pending in healthy:
            key = (pending.dataset, pending.measure, pending.top_k)
            groups.setdefault(key, []).append(pending)
        loop = asyncio.get_running_loop()
        for (dataset, measure, top_k), members in groups.items():
            queries = [pending.query for pending in members]
            try:
                results = await loop.run_in_executor(
                    None,
                    self.service.resolve_batch,
                    dataset,
                    measure,
                    queries,
                    top_k,
                )
            except Exception as error:
                for pending in members:
                    if not pending.future.done():
                        pending.future.set_exception(error)
                continue
            self.batches_executed += 1
            self.requests_served += len(members)
            for pending, matches in zip(members, results):
                pending.batch_size = len(members)
                if not pending.future.done():
                    pending.future.set_result(matches)

    # ------------------------------------------------------ statistics
    def stats(self) -> dict[str, Any]:
        return {
            "batches_executed": self.batches_executed,
            "requests_served": self.requests_served,
            "coalesce": self.coalesce,
            "tick": self.tick,
            "max_batch": self.max_batch,
        }
