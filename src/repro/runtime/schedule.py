"""Schedule IR — the common language between algorithms and backends.

Every collective algorithm in :mod:`repro.collectives` compiles to a
:class:`Schedule`: an ordered list of :class:`Step`s, each holding

* ``pre``   — local data movement inside ranks (pack/permute),
* ``transfers`` — point-to-point messages active in this step, and
* ``post``  — local movement after the exchange (unpack/reduce staging).

One schedule feeds three independent backends:

* the **executor** (:mod:`repro.runtime.executor`) moves real NumPy bytes and
  is the correctness oracle;
* the **traffic counter** (:mod:`repro.model.traffic`) routes transfers over
  a topology and accumulates per-link/global bytes;
* the **cost model** (:mod:`repro.model.cost`) turns steps into time.

Segments are half-open element ranges ``(lo, hi)`` into named per-rank
buffers; a transfer carries parallel segment lists for source and
destination whose total lengths must match.  ``op=None`` overwrites the
destination, otherwise the named associative reduce op combines into it.

Builders finish with :meth:`Schedule.finalize`, which validates the
schedule only when validation is enabled: always under normal library use
and pytest, toggled off by the sweep layer (which renders known-good
schedules in bulk) through :func:`schedule_validation`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.runtime.errors import BufferMismatchError, ScheduleError

__all__ = [
    "Segment",
    "Transfer",
    "LocalCopy",
    "Step",
    "Schedule",
    "total_elems",
    "validation_enabled",
    "schedule_validation",
]

Segment = tuple[int, int]

#: process-local switch set by :func:`schedule_validation`
_VALIDATE = True


def validation_enabled() -> bool:
    """Whether :meth:`Schedule.finalize` should run the full validation pass.

    On unless a :func:`schedule_validation` block turned it off: library
    users and the test suite stay fully checked; sweeps opt out explicitly
    because they render known-good schedules in bulk.
    """
    return _VALIDATE


@contextmanager
def schedule_validation(enabled: bool) -> Iterator[None]:
    """Temporarily force schedule validation on or off for this process."""
    global _VALIDATE
    prev = _VALIDATE
    _VALIDATE = enabled
    try:
        yield
    finally:
        _VALIDATE = prev


def total_elems(segments: Sequence[Segment]) -> int:
    """Sum of segment lengths, validating each segment."""
    total = 0
    for lo, hi in segments:
        if lo < 0 or hi < lo:
            raise ScheduleError(f"invalid segment ({lo}, {hi})")
        total += hi - lo
    return total


@dataclass(frozen=True)
class Transfer:
    """One point-to-point message inside a step."""

    src: int
    dst: int
    src_buf: str
    dst_buf: str
    src_segments: tuple[Segment, ...]
    dst_segments: tuple[Segment, ...]
    op: str | None = None
    tag: str = ""

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ScheduleError(f"transfer to self at rank {self.src} ({self.tag})")
        sent = total_elems(self.src_segments)
        # butterfly builders pass one tuple as both ends — skip the re-sum
        if self.dst_segments is not self.src_segments and sent != total_elems(
            self.dst_segments
        ):
            raise BufferMismatchError(
                f"transfer {self.src}->{self.dst} ({self.tag}): "
                f"{sent} elems sent, "
                f"{total_elems(self.dst_segments)} expected"
            )
        # frozen dataclass: stash the size computed during validation so the
        # profiling layer doesn't re-sum segment lists per access
        object.__setattr__(self, "_nelems", sent)

    @property
    def nelems(self) -> int:
        return self._nelems

    @property
    def num_segments(self) -> int:
        """Distinct wire segments — the paper's non-contiguity cost driver."""
        return max(len(self.src_segments), len(self.dst_segments))


@dataclass(frozen=True)
class LocalCopy:
    """Local data movement within one rank (pack, unpack, permute)."""

    rank: int
    src_buf: str
    dst_buf: str
    src_segments: tuple[Segment, ...]
    dst_segments: tuple[Segment, ...]
    op: str | None = None
    tag: str = ""

    def __post_init__(self) -> None:
        moved = total_elems(self.src_segments)
        if moved != total_elems(self.dst_segments):
            raise BufferMismatchError(
                f"local copy at rank {self.rank} ({self.tag}): segment size mismatch"
            )
        object.__setattr__(self, "_nelems", moved)

    @property
    def nelems(self) -> int:
        return self._nelems


@dataclass(frozen=True)
class Step:
    """One communication round; all transfers logically concurrent."""

    transfers: tuple[Transfer, ...] = ()
    pre: tuple[LocalCopy, ...] = ()
    post: tuple[LocalCopy, ...] = ()
    label: str = ""

    def validate(self, p: int) -> None:
        # Overlapping destination writes within one step are nondeterministic
        # (two messages landing on the same region) — reject unless reducing.
        # Non-reducing writes are grouped by (rank, buf) in the same single
        # pass that checks rank ranges, so validation stays O(transfers).
        non_reduce: dict[tuple[int, str], list[Segment]] = {}
        for t in self.transfers:
            for r in (t.src, t.dst):
                if not 0 <= r < p:
                    raise ScheduleError(f"rank {r} out of range in step {self.label!r}")
            if t.op is None:
                non_reduce.setdefault((t.dst, t.dst_buf), []).extend(t.dst_segments)
        for (rank, buf), segs in non_reduce.items():
            _check_disjoint(segs, f"step {self.label!r} rank {rank} buf {buf}")

    def comm_bytes(self, itemsize: int) -> int:
        return sum(t.nelems for t in self.transfers) * itemsize


@dataclass
class Schedule:
    """An ordered sequence of steps over ``p`` ranks."""

    p: int
    steps: list[Step] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add(self, step: Step) -> None:
        self.steps.append(step)

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    def validate(self) -> "Schedule":
        if self.p <= 0:
            raise ScheduleError("schedule needs p > 0")
        for step in self.steps:
            step.validate(self.p)
        return self

    def finalize(self) -> "Schedule":
        """Builder exit hook: validate unless validation is switched off.

        All schedule builders return through here so the expensive
        whole-schedule check is a single toggle (see
        :func:`validation_enabled`) instead of 20+ unconditional call sites.
        """
        if validation_enabled():
            return self.validate()
        return self

    def all_transfers(self) -> Iterable[tuple[int, Transfer]]:
        """``(step_index, transfer)`` over the whole schedule."""
        for i, step in enumerate(self.steps):
            for t in step.transfers:
                yield i, t

    def total_comm_elems(self) -> int:
        return sum(t.nelems for _, t in self.all_transfers())

    def max_rank_send_elems(self) -> int:
        """Largest per-rank total send volume (elements) across the schedule."""
        sends: dict[int, int] = {}
        for _, t in self.all_transfers():
            sends[t.src] = sends.get(t.src, 0) + t.nelems
        return max(sends.values(), default=0)


def _check_disjoint(segments: list[Segment], where: str) -> None:
    segs = sorted(segments)
    for (al, ah), (bl, bh) in zip(segs, segs[1:]):
        if bl < ah:
            raise ScheduleError(
                f"overlapping non-reducing writes [{al},{ah}) and [{bl},{bh}) in {where}"
            )
