"""Serving layer: answer algorithm-selection queries from a decision table.

:func:`select_algorithm` is the scalar oracle — "which algorithm should
``(collective, system, p, ppn, n_bytes)`` use?" — and
:func:`select_algorithms` is its vectorized batch twin (numpy
``searchsorted`` over the compiled grids; 10k warm queries run in a few
milliseconds).  Both share one off-grid policy vocabulary:

``exact``
    The query must land on a populated grid cell; anything else raises
    :class:`~repro.runtime.errors.TuneQueryError`.
``nearest``
    ``p`` and ``n_bytes`` snap independently to the nearest grid value in
    log2 space (ties snap *down*); a snapped cell with no source records
    still raises — the table simply has no answer there.
``refuse``
    Off-grid or unanswerable queries return ``None`` instead of raising.

Tables are compiled to numpy lookup structures once and memoized in the
module-level ``_SERVE_CACHE``, a bounded FIFO declared in
:mod:`repro.runtime.memo` (so a re-tuning loop that builds a table per
round holds at most 16 compiled tables, and resilience tooling can clear
and audit it like every other process-level cache).
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.runtime.errors import TuneArtifactError, TuneQueryError
from repro.runtime.memo import Memo
from repro.tune.tables import DecisionTable, SubTable

__all__ = [
    "POLICIES",
    "Selection",
    "load_table",
    "lookup",
    "select_algorithm",
    "select_algorithms",
]

POLICIES = ("exact", "nearest", "refuse")

#: compiled-table memo, keyed per table object and its provenance digest
_SERVE_CACHE = Memo("tune.serve._SERVE_CACHE", maxsize=16, counter="serve")


@dataclass(frozen=True)
class Selection:
    """One answered query: the winner plus the grid cell that answered it."""

    algorithm: str
    family: str
    margin: float | None
    p: int
    n_bytes: int
    exact: bool

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "family": self.family,
            "margin": self.margin,
            "p": self.p,
            "n_bytes": self.n_bytes,
            "exact": self.exact,
        }


class _CompiledSubTable:
    """Numpy mirror of one :class:`SubTable` for O(log grid) lookups."""

    def __init__(self, sub: SubTable):
        self.p_grid = np.asarray(sub.p_grid, dtype=np.int64)
        self.n_grid = np.asarray(sub.n_grid, dtype=np.int64)
        self.p_list = list(sub.p_grid)
        self.n_list = list(sub.n_grid)
        self.log_p = np.log2(self.p_grid.astype(np.float64))
        self.log_n = np.log2(self.n_grid.astype(np.float64))
        shape = (len(sub.p_grid), len(sub.n_grid))
        self.winner = np.empty(shape, dtype=object)
        self.family = np.empty(shape, dtype=object)
        self.margin = np.full(shape, np.nan, dtype=np.float64)
        for i, row in enumerate(sub.winner):
            for j, w in enumerate(row):
                self.winner[i, j] = w
                self.family[i, j] = sub.family[i][j]
                if sub.margin[i][j] is not None:
                    self.margin[i, j] = sub.margin[i][j]
        self.populated = np.not_equal(self.winner, None)


class _CompiledTable:
    def __init__(self, table: DecisionTable):
        self.name = table.name
        self.subs = {t.key: _CompiledSubTable(t) for t in table.tables}


def _compiled(table: DecisionTable) -> _CompiledTable:
    # keyed on (id, provenance digest): same-digest tables are built from
    # the same record set and compile identically, so an id collision
    # after GC can only ever serve equivalent answers
    key = (id(table), table.records_digest, table.record_count)
    return _SERVE_CACHE.get_or(key, lambda: _CompiledTable(table))


def load_table(path) -> DecisionTable:
    """Read and validate a decision-table artifact from ``path``.

    Raises :class:`TuneArtifactError` when the file is unreadable, not a
    decision table, or fails its integrity digest.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise TuneArtifactError(f"{path}: cannot read decision table ({exc})") from None
    return DecisionTable.from_dict(data, label=str(path))


def _check_policy(policy: str) -> None:
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r} (expected one of {POLICIES})")


def _subtable_miss(key, name: str, policy: str):
    if policy == "refuse":
        return None
    system, faults, collective, ppn = key
    raise TuneQueryError(
        f"decision table {name!r} has no sub-table for system={system!r} "
        f"faults={faults!r} collective={collective!r} ppn={ppn} — "
        "the source campaign never swept that slice"
    )


def _snap_scalar(value: int, grid: list, log_grid) -> int:
    """Nearest grid index in log2 space; ties snap to the lower cell."""
    x = math.log2(value)
    hi = bisect.bisect_left(grid, value)
    if hi == 0:
        return 0
    if hi == len(grid):
        return len(grid) - 1
    lo = hi - 1
    return lo if x - log_grid[lo] <= log_grid[hi] - x else hi


def lookup(
    table: DecisionTable,
    collective: str,
    system: str,
    p: int,
    ppn: int,
    n_bytes: int,
    *,
    faults: str = "none",
    policy: str = "exact",
) -> Selection | None:
    """Answer one query with full detail (winner, margin, answering cell).

    This is the scalar reference path — plain Python ``bisect`` over the
    compiled grids.  :func:`select_algorithms` must agree with a loop over
    this function for every policy (a tested metamorphic property).
    """
    _check_policy(policy)
    if p <= 0 or n_bytes <= 0:
        raise TuneQueryError(f"coordinates must be positive (p={p}, n_bytes={n_bytes})")
    sub = _compiled(table).subs.get((system, faults, collective, int(ppn)))
    if sub is None:
        return _subtable_miss((system, faults, collective, int(ppn)), table.name, policy)

    def axis(value: int, grid: list, log_grid, label: str) -> int | None:
        pos = bisect.bisect_left(grid, value)
        if pos < len(grid) and grid[pos] == value:
            return pos
        if policy == "refuse":
            return None
        if policy == "exact" or not grid:
            raise TuneQueryError(
                f"{label}={value} is off the table grid {grid} (policy={policy})"
            )
        return _snap_scalar(value, grid, log_grid)

    i = axis(int(p), sub.p_list, sub.log_p, "p")
    j = axis(int(n_bytes), sub.n_list, sub.log_n, "n_bytes")
    if i is None or j is None:
        return None
    winner = sub.winner[i, j]
    if winner is None:
        if policy == "refuse":
            return None
        raise TuneQueryError(
            f"grid cell (p={int(sub.p_grid[i])}, n_bytes={int(sub.n_grid[j])}) "
            f"of {collective!r} on {system!r} has no source records"
        )
    margin = float(sub.margin[i, j])
    return Selection(
        algorithm=str(winner),
        family=str(sub.family[i, j]),
        margin=None if math.isnan(margin) else margin,
        p=int(sub.p_grid[i]),
        n_bytes=int(sub.n_grid[j]),
        exact=int(sub.p_grid[i]) == int(p) and int(sub.n_grid[j]) == int(n_bytes),
    )


def select_algorithm(
    table: DecisionTable,
    collective: str,
    system: str,
    p: int,
    ppn: int,
    n_bytes: int,
    *,
    faults: str = "none",
    policy: str = "exact",
) -> str | None:
    """The scalar oracle: winning algorithm name (``None`` on refuse-miss)."""
    sel = lookup(
        table, collective, system, p, ppn, n_bytes, faults=faults, policy=policy
    )
    return None if sel is None else sel.algorithm


def _axis_indices(
    values: np.ndarray, grid: np.ndarray, log_grid: np.ndarray, label: str, policy: str
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized grid resolution: (index array, answerable mask)."""
    if len(grid) == 0:
        if policy == "refuse":
            return np.zeros_like(values), np.zeros(values.shape, dtype=bool)
        raise TuneQueryError(f"{label} grid is empty (policy={policy})")
    pos = np.searchsorted(grid, values)
    clipped = np.minimum(pos, len(grid) - 1)
    on_grid = grid[clipped] == values
    if policy == "exact":
        if not np.all(on_grid):
            bad = values[~on_grid][0]
            raise TuneQueryError(
                f"{label}={int(bad)} is off the table grid "
                f"{[int(g) for g in grid]} (policy=exact)"
            )
        return clipped, on_grid
    if policy == "refuse":
        return clipped, on_grid
    # nearest: compare log2 distance to the bracketing cells, ties snap down
    logs = np.log2(values.astype(np.float64))
    lo = np.clip(pos - 1, 0, len(grid) - 1)
    hi = np.clip(pos, 0, len(grid) - 1)
    snap_down = logs - log_grid[lo] <= log_grid[hi] - logs
    idx = np.where(on_grid, clipped, np.where(snap_down, lo, hi))
    return idx, np.ones_like(on_grid)


def select_algorithms(
    table: DecisionTable,
    collective: str,
    system: str,
    p: Sequence[int],
    ppn: int,
    n_bytes: Sequence[int],
    *,
    faults: str = "none",
    policy: str = "exact",
) -> list[str | None]:
    """Vectorized batch oracle over one ``(collective, system, ppn, faults)``.

    ``p`` and ``n_bytes`` are equal-length (or broadcastable) sequences of
    query coordinates; the result is a list aligned with the broadcast
    shape, element-for-element equal to a :func:`select_algorithm` loop.
    """
    _check_policy(policy)
    p_arr, n_arr = np.broadcast_arrays(
        np.atleast_1d(np.asarray(p, dtype=np.int64)),
        np.atleast_1d(np.asarray(n_bytes, dtype=np.int64)),
    )
    p_arr, n_arr = p_arr.ravel(), n_arr.ravel()
    if p_arr.size and (p_arr.min() <= 0 or n_arr.min() <= 0):
        bad = (p_arr[p_arr <= 0], n_arr[n_arr <= 0])
        raise TuneQueryError(
            f"coordinates must be positive (p={bad[0][:1]}, n_bytes={bad[1][:1]})"
        )
    sub = _compiled(table).subs.get((system, faults, collective, int(ppn)))
    if sub is None:
        miss = _subtable_miss((system, faults, collective, int(ppn)), table.name, policy)
        return [miss] * p_arr.size
    i, p_ok = _axis_indices(p_arr, sub.p_grid, sub.log_p, "p", policy)
    j, n_ok = _axis_indices(n_arr, sub.n_grid, sub.log_n, "n_bytes", policy)
    answerable = p_ok & n_ok
    winners = sub.winner[i, j]
    empty = answerable & ~sub.populated[i, j]
    if np.any(empty):
        if policy == "refuse":
            answerable &= ~empty
        else:
            k = int(np.argmax(empty))
            raise TuneQueryError(
                f"grid cell (p={int(sub.p_grid[i[k]])}, "
                f"n_bytes={int(sub.n_grid[j[k]])}) of {collective!r} on "
                f"{system!r} has no source records"
            )
    return [
        str(w) if ok else None for w, ok in zip(winners, answerable)
    ]
