"""Process-wide counter/gauge registry for the telemetry subsystem.

Counters are monotonically increasing event tallies (``cache.table.hit``,
``shard.retries``); gauges are last-written values (``des.link_busy_max``).
Both are plain module-level dicts: incrementing a counter is one dict
operation, cheap enough to stay on even when tracing is off, so a sweep
always knows its cache hit rates after the fact.

The registry participates in the memo-cache lifecycle:
:mod:`repro.runtime.memo` registers it as ``"obs.metrics"`` (its "size"
is the number of live series), so
:func:`~repro.runtime.memo.clear_memo_caches` resets it.

Example::

    >>> reset()
    >>> inc("cache.demo.hit")
    >>> inc("cache.demo.hit", 2)
    >>> counters()["cache.demo.hit"]
    3
    >>> set_gauge("demo.depth", 4.5)
    >>> active_series()
    2
    >>> reset(); active_series()
    0
"""

from __future__ import annotations

__all__ = [
    "inc",
    "set_gauge",
    "counters",
    "gauges",
    "snapshot",
    "reset",
    "active_series",
]

_COUNTERS: dict[str, float] = {}
_GAUGES: dict[str, float] = {}


def inc(name: str, n: float = 1) -> None:
    """Add ``n`` to counter ``name`` (created at 0 on first use)."""
    _COUNTERS[name] = _COUNTERS.get(name, 0) + n


def set_gauge(name: str, value: float) -> None:
    """Set gauge ``name`` to ``value`` (last write wins)."""
    _GAUGES[name] = value


def counters() -> dict[str, float]:
    """Sorted copy of every live counter."""
    return {k: _COUNTERS[k] for k in sorted(_COUNTERS)}


def gauges() -> dict[str, float]:
    """Sorted copy of every live gauge."""
    return {k: _GAUGES[k] for k in sorted(_GAUGES)}


def snapshot() -> dict[str, dict[str, float]]:
    """Both families at once: ``{"counters": {...}, "gauges": {...}}``."""
    return {"counters": counters(), "gauges": gauges()}


def reset() -> None:
    """Drop every series (the ``clear_memo_caches()`` hook)."""
    _COUNTERS.clear()
    _GAUGES.clear()


def active_series() -> int:
    """Number of live series — the registry's "cache size" probe."""
    return len(_COUNTERS) + len(_GAUGES)
