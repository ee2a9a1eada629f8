"""Trace-file schema validation and post-run aggregation.

Two consumers: ``repro stats FILE --validate`` (CI gates every traced
run on a structurally sound Chrome trace) and the ``.stats.json``
sidecar each session writes next to its trace file.  The rules here are
the documented contract in ``docs/observability.md``:

* the file is a JSON object with a ``traceEvents`` list;
* every event is an object with a string ``name``, a string ``ph``, and
  an integer ``pid``;
* timed phases (``B``/``E``/``X``/``i``/``C``) carry a numeric ``ts``;
* ``B``/``E`` events are balanced per ``(pid, tid)`` track, closing in
  LIFO order with matching names.

Example::

    >>> validate_trace({"traceEvents": [
    ...     {"name": "a", "ph": "B", "ts": 0.0, "pid": 1, "tid": 1},
    ...     {"name": "a", "ph": "E", "ts": 1.0, "pid": 1, "tid": 1}]})
    []
    >>> validate_trace({"traceEvents": [
    ...     {"name": "a", "ph": "B", "ts": 0.0, "pid": 1, "tid": 1}]})
    ["track (1, 1): 1 unclosed span(s): ['a']"]
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping

__all__ = ["STATS_SCHEMA", "sidecar_path", "validate_trace", "span_aggregates"]

#: schema identifier of the ``.stats.json`` sidecar
STATS_SCHEMA = "repro/trace-stats"

#: phases that must carry a timestamp (metadata "M" events need not)
_TIMED_PHASES = frozenset("BEXiC")


def sidecar_path(trace_path: str | Path) -> Path:
    """Where a trace file's stats sidecar lives: ``<stem>.stats.json``."""
    path = Path(trace_path)
    return path.with_name(path.stem + ".stats.json")


def validate_trace(data) -> list[str]:
    """Check ``data`` against the documented trace schema; [] when sound."""
    if not isinstance(data, Mapping):
        return ["top level: expected a JSON object"]
    events = data.get("traceEvents")
    if not isinstance(events, list):
        return ["top level: missing 'traceEvents' list"]
    errors: list[str] = []
    stacks: dict[tuple, list[str]] = {}
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, Mapping):
            errors.append(f"{where}: not an object")
            continue
        name = event.get("name")
        ph = event.get("ph")
        if not isinstance(name, str) or not name:
            errors.append(f"{where}: missing string 'name'")
            continue
        if not isinstance(ph, str) or not ph:
            errors.append(f"{where}: missing string 'ph'")
            continue
        if not isinstance(event.get("pid"), int):
            errors.append(f"{where} ({name!r}): missing integer 'pid'")
            continue
        if ph in _TIMED_PHASES and not isinstance(event.get("ts"), (int, float)):
            errors.append(f"{where} ({name!r}, ph={ph}): missing numeric 'ts'")
            continue
        if ph in ("B", "E"):
            track = (event["pid"], event.get("tid"))
            if ph == "B":
                stacks.setdefault(track, []).append(name)
            else:
                stack = stacks.get(track)
                if not stack:
                    errors.append(f"{where}: 'E' for {name!r} with no open span")
                elif stack[-1] != name:
                    errors.append(
                        f"{where}: 'E' for {name!r} but innermost open span "
                        f"on track {track} is {stack[-1]!r}"
                    )
                    stack.pop()
                else:
                    stack.pop()
    for track in sorted(stacks, key=repr):
        leftover = stacks[track]
        if leftover:
            errors.append(
                f"track {track}: {len(leftover)} unclosed span(s): {leftover}"
            )
    return errors


def span_aggregates(events: Iterable[Mapping]) -> dict[str, dict[str, float]]:
    """Per-span-name totals: ``{name: {"count": n, "total_us": t,
    "self_us": s}}``.

    A span's self time is its time minus the time of its direct children
    on the same ``(pid, tid)`` track.  Walks balanced ``B``/``E`` pairs
    per track; malformed pairs are skipped (``validate_trace`` is the
    loud path).

    Example::

        >>> aggs = span_aggregates([
        ...     {"name": "a", "ph": "B", "ts": 0.0, "pid": 1, "tid": 1},
        ...     {"name": "b", "ph": "B", "ts": 1.0, "pid": 1, "tid": 1},
        ...     {"name": "b", "ph": "E", "ts": 3.0, "pid": 1, "tid": 1},
        ...     {"name": "a", "ph": "E", "ts": 10.0, "pid": 1, "tid": 1}])
        >>> aggs["a"]
        {'count': 1, 'total_us': 10.0, 'self_us': 8.0}
        >>> aggs["b"]
        {'count': 1, 'total_us': 2.0, 'self_us': 2.0}
    """
    # per track, the open spans: [name, start ts, children's time]
    stacks: dict[tuple, list[list]] = {}
    totals: dict[str, list[float]] = {}
    for event in events:
        ph = event.get("ph")
        if ph not in ("B", "E"):
            continue
        track = (event.get("pid"), event.get("tid"))
        if ph == "B":
            stacks.setdefault(track, []).append([event["name"], event["ts"], 0.0])
            continue
        stack = stacks.get(track)
        if not stack or stack[-1][0] != event["name"]:
            continue
        name, t0, children = stack.pop()
        elapsed = event["ts"] - t0
        if stack:
            stack[-1][2] += elapsed
        agg = totals.setdefault(name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += elapsed
        agg[2] += elapsed - children
    return {
        name: {"count": int(c), "total_us": round(t, 3), "self_us": round(s, 3)}
        for name, (c, t, s) in sorted(totals.items())
    }
