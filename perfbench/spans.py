"""Spans recorded from outside the engine, and the hard per-call timeout.

The traced run wraps attributes of the engine's modules (the functions a
pipeline looks up when it runs) with :meth:`Tracer.wrap`; nothing under
``logstash_filter_translate_ray/`` is edited. Ray executes a Dataset
lazily, so a span around a call that only builds a plan measures plan
building; the per-layer costs of the fused transcript chain come from
the prefix ledger in ``ledger.py`` instead.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable


class PassTimeout(Exception):
    """A call ran past its hard timeout; the Ray session may be wedged."""


def call_with_timeout(fn: Callable[[], Any], timeout_s: float) -> Any:
    """Run ``fn`` on a daemon thread and return its result, re-raising its
    exception; raise :class:`PassTimeout` when it runs past ``timeout_s``
    (the thread is abandoned, so the caller must stop using the session)."""
    box: dict[str, Any] = {}

    def target() -> None:
        try:
            box["out"] = fn()
        except BaseException as e:  # noqa: BLE001 — re-raised in the caller
            box["err"] = e

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(max(0.0, timeout_s))
    if t.is_alive():
        raise PassTimeout(f"call did not finish within {timeout_s:.0f} s")
    if "err" in box:
        raise box["err"]
    return box["out"]


def timed(fn: Callable[[], Any]) -> tuple[Any, float]:
    """(result, seconds) of one call of ``fn``."""
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def median(xs) -> float:
    xs = list(xs)
    return float(statistics.median(xs)) if xs else 0.0


@dataclass
class Span:
    name: str
    depth: int
    seconds: float


class Tracer:
    """Records one :class:`Span` per wrapped call; nesting depth is kept
    per thread so that a span knows whether it ran inside another."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patched: list[tuple[Any, str, Any]] = []

    def _depth(self) -> int:
        return getattr(self._local, "depth", 0)

    def call(self, name: str, fn: Callable, *args, **kw):
        depth = self._depth()
        self._local.depth = depth + 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kw)
        finally:
            self.spans.append(Span(name, depth, time.perf_counter() - t0))
            self._local.depth = depth

    def patch(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`restore`."""
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kw):
            return self.call(name, orig, *args, **kw)

        self.patch(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def total(self, *names: str, top_level: bool = True) -> float:
        """Summed seconds of spans named ``names`` (top-level ones only by
        default, so that nested calls are not counted twice)."""
        return sum(s.seconds for s in self.spans if s.name in names
                   and (s.depth == 0 or not top_level))

    def durations(self, name: str) -> list[float]:
        return [s.seconds for s in self.spans if s.name == name]
