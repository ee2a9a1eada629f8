"""Structured errors for the runtime substrate and campaign execution.

The CLI maps each leaf class to a distinct exit code (see
``repro.cli.main.EXIT_CODES`` and ``docs/robustness.md``) so scripted
campaigns can tell *why* a run failed from the code alone.
"""

from __future__ import annotations

__all__ = [
    "RuntimeSubstrateError",
    "ScheduleError",
    "BufferMismatchError",
    "FaultSpecError",
    "TopologyPartitionedError",
    "CacheCorruptionError",
    "WorkerShardError",
    "TuneArtifactError",
    "TuneQueryError",
    "DESEngineError",
    "InterruptedRunError",
    "JournalError",
]


class RuntimeSubstrateError(Exception):
    """Base class for all runtime-substrate failures."""


class ScheduleError(RuntimeSubstrateError):
    """A schedule is structurally invalid (bad ranks, overlapping writes, …)."""


class BufferMismatchError(RuntimeSubstrateError):
    """A transfer's source and destination segment sizes disagree."""


class FaultSpecError(RuntimeSubstrateError):
    """A fault specification is invalid or inapplicable to the topology."""


class TopologyPartitionedError(RuntimeSubstrateError):
    """A degraded topology has no surviving route between two nodes.

    Carries the unreachable pair so callers (and the CLI diagnostic) can
    name it: ``exc.src`` / ``exc.dst``.
    """

    def __init__(self, src: int, dst: int, detail: str = ""):
        self.src = src
        self.dst = dst
        message = f"no surviving route between nodes {src} and {dst}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)


class CacheCorruptionError(RuntimeSubstrateError):
    """An on-disk profile-cache entry is truncated, stale, or unreadable."""


class WorkerShardError(RuntimeSubstrateError):
    """A parallel sweep shard failed even after retries (fallback disabled)."""


class TuneArtifactError(RuntimeSubstrateError):
    """A decision-table artifact is structurally unsound or fails its digest.

    Raised when loading a table whose schema/version is unknown, whose
    payload does not match its embedded integrity digest (a hand-edited
    or corrupted file), or whose provenance digest does not match the
    records it claims to be built from.  Serving layers must never answer
    queries from such a table.
    """


class DESEngineError(RuntimeSubstrateError):
    """The discrete-event fabric engine cannot execute the requested cell.

    Raised when a fault timeline is forced onto an engine that cannot
    replay it (``ProfileCache(profile_engine="compiled")``), when a
    timeline is asked of a cell the DES engine has no transfer program for
    (the analytic-profile ``alltoall`` cells, at any rank count), or when
    a timeline event is inapplicable to the fabric mid-run.  Mapped to CLI
    exit code 8.
    """


class InterruptedRunError(RuntimeSubstrateError):
    """A campaign drained gracefully after SIGINT/SIGTERM.

    Raised at the next cell boundary once a drain was requested: no new
    cells are dispatched, in-flight shards finish (or time out), and the
    record journal is flushed before this propagates.  Carries the
    progress made so the CLI diagnostic (exit code 9) can tell the
    operator how much of the run survives in the journal.
    """

    def __init__(self, signal_name: str, done: int, remaining: int):
        self.signal_name = signal_name
        self.done = done
        self.remaining = remaining
        super().__init__(
            f"run drained after {signal_name}: {done} cell(s) journaled, "
            f"{remaining} remaining (resume with --resume)"
        )


class JournalError(RuntimeSubstrateError):
    """A record journal is unusable for the requested operation.

    Raised when a journal file is corrupt beyond its torn tail (a bad
    CRC followed by further entries), when its sealed header does not
    match the campaign being resumed (different manifest digest, engine
    or scenario set), or when a fresh run would clobber an existing
    journal without ``--resume``.  Mapped to CLI exit code 10.
    """


class TuneQueryError(RuntimeSubstrateError):
    """A selection query cannot be answered by the loaded decision table.

    Covers unknown ``(collective, system, ppn, faults)`` sub-tables and
    off-grid ``(p, n_bytes)`` coordinates under the ``exact`` policy (the
    ``refuse`` policy returns ``None`` instead of raising; ``nearest``
    snaps to the closest populated grid cell)."""
