"""In-memory span tracer installed from the benchmark's own files.

Nothing under ``src/`` knows about it: :func:`install` replaces each
layer's entry point (a module function, a method, a classmethod or a
``cached_property``) with a wrapper that records one span per call —
name, start, end and parent — plus optional counters.  Spans nest
through a ``ContextVar``, so asyncio tasks and executor threads each
keep their own parent chain.  Self time and counts are derived from
the spans after the timed section ends.

An entry point that no longer exists (renamed by a refactor) is not an
error: :func:`install` returns it in the ``unmeasured`` list and the
workload reports that layer as unmeasured.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from typing import Any, Callable

__all__ = ["Tracer", "Probe", "install"]


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self) -> None:
        # One span is [name, parent span or None, start, end].  The
        # span list itself is the only shared structure; list.append is
        # atomic, so executor threads can record concurrently.
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )

    # ------------------------------------------------------- recording
    def open(self, name: str):
        span = [name, self._current.get(), time.perf_counter(), None]
        self.spans.append(span)
        return span, self._current.set(span)

    def close(self, span: list, token) -> None:
        span[3] = time.perf_counter()
        self._current.reset(token)

    def discard(self, span: list) -> None:
        """Drop a span that did no work (e.g. a cache hit)."""
        span[0] = None

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value

    def sample(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    # -------------------------------------------------------- rollup
    def closed(self) -> list[list]:
        return [s for s in self.spans if s[0] is not None and s[3] is not None]

    def summary(self) -> dict[str, list]:
        """Span name -> ``[calls, total seconds, self seconds]``.

        A span's self time is its duration minus the time its direct
        children cover, so self times of nested layers add up to the
        outermost span's duration.
        """
        spans = self.closed()
        child = defaultdict(float)
        for span in spans:
            if span[1] is not None:
                child[id(span[1])] += span[3] - span[2]
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for span in spans:
            duration = span[3] - span[2]
            entry = out[span[0]]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child[id(span)]
        return dict(out)


class Probe:
    """One entry point to wrap: ``"module:Qual.name"`` and a span name.

    ``name`` is a string or ``f(args, kwargs) -> str``.  ``before`` runs
    ahead of the call and its value reaches ``after(tracer, span, state,
    args, kwargs, result)``, which may count results or discard the span.
    A ``work`` probe marks the entry point whose calls prove that a
    timed section did its work; untraced units install only those.
    """

    def __init__(
        self,
        target: str,
        name: str | Callable[[tuple, dict], str],
        before: Callable[[tuple, dict], Any] | None = None,
        after: Callable[..., None] | None = None,
        work: bool = False,
    ) -> None:
        self.target = target
        self.name = name
        self.before = before
        self.after = after
        self.work = work

    def wrap(self, tracer: Tracer, fn: Callable) -> Callable:
        name, before, after = self.name, self.before, self.after
        if self.work:
            counted = after

            def after(tracer, span, state, args, kwargs, result):
                tracer.count("work.calls")
                if counted:
                    counted(tracer, span, state, args, kwargs, result)

        def span_name(args, kwargs) -> str:
            return name(args, kwargs) if callable(name) else name

        if inspect.iscoroutinefunction(fn):

            async def wrapper(*args, **kwargs):
                state = before(args, kwargs) if before else None
                span, token = tracer.open(span_name(args, kwargs))
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    tracer.close(span, token)
                if after:
                    after(tracer, span, state, args, kwargs, result)
                return result

        else:

            def wrapper(*args, **kwargs):
                state = before(args, kwargs) if before else None
                span, token = tracer.open(span_name(args, kwargs))
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(span, token)
                if after:
                    after(tracer, span, state, args, kwargs, result)
                return result

        return functools.update_wrapper(wrapper, fn)


def _resolve(target: str):
    """``(owner, attribute)`` for a probe target, or ``None``."""
    module_name, _, path = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attribute = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return owner, attribute


def _patch_class(tracer: Tracer, probe: Probe, owner: type, attribute: str):
    raw = inspect.getattr_static(owner, attribute, None)
    if isinstance(raw, classmethod):
        new = classmethod(probe.wrap(tracer, raw.__func__))
    elif isinstance(raw, staticmethod):
        new = staticmethod(probe.wrap(tracer, raw.__func__))
    elif isinstance(raw, functools.cached_property):
        new = functools.cached_property(probe.wrap(tracer, raw.func))
        new.__set_name__(owner, attribute)
    elif callable(raw):
        new = probe.wrap(tracer, raw)
    else:
        return False
    setattr(owner, attribute, new)
    return True


def _patch_function(
    tracer: Tracer, probe: Probe, module: Any, attribute: str
) -> bool:
    original = getattr(module, attribute, None)
    if not callable(original):
        return False
    wrapped = probe.wrap(tracer, original)
    # ``from x import f`` copies the binding: rebind every loaded
    # module of the package that holds the same function object.
    package = module.__name__.split(".")[0]
    for name, loaded in list(sys.modules.items()):
        if loaded is None or name.split(".")[0] != package:
            continue
        if getattr(loaded, attribute, None) is original:
            setattr(loaded, attribute, wrapped)
    return True


def install(tracer: Tracer, probes: list[Probe]) -> list[str]:
    """Wrap every probe's entry point; return the targets not found."""
    unmeasured = []
    for probe in probes:
        resolved = _resolve(probe.target)
        ok = False
        if resolved is not None:
            owner, attribute = resolved
            if inspect.isclass(owner):
                ok = _patch_class(tracer, probe, owner, attribute)
            else:
                ok = _patch_function(tracer, probe, owner, attribute)
        if not ok:
            unmeasured.append(probe.target)
    return unmeasured
