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

A step can also be written as arrays (:class:`ArrayStep`): one rank,
segment-count and segment column per phase instead of one object per
transfer.  :func:`schedule_from_arrays` turns such steps into a
:class:`Schedule`; :func:`repro.runtime.compiled.plan_from_arrays` lowers
the same steps straight to a compiled plan, with no objects in between.
Two compact forms keep what a plan stores small: :class:`EveryRank`, one
local copy run alike on every rank, and :class:`BlockRotation`, a run of
steps that differ only by a rotation of their blocks (a ring pass).
:func:`overlay_steps` runs several such step lists in lockstep, each on
its own ranks and vector slice: the one way sub-collectives compose.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.runtime.errors import BufferMismatchError, ScheduleError

__all__ = [
    "Segment",
    "Transfer",
    "LocalCopy",
    "Step",
    "Schedule",
    "ArrayPhase",
    "ArrayStep",
    "EveryRank",
    "BlockRotation",
    "local_copies",
    "overlay_steps",
    "schedule_from_arrays",
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


# -- steps as arrays ---------------------------------------------------------


class ArrayPhase(NamedTuple):
    """A step's transfers, or one batch of local copies, as arrays.

    Item ``i`` moves ``counts[i]`` segments, the next ones of ``lo``/``hi``
    in item order, from buffer ``src_buf`` of rank ``src[i]`` into buffer
    ``dst_buf`` of rank ``dst[i]``, at the segments ``dst_segments``
    (``(counts, lo, hi)`` again) names, or at the same ones when it is
    ``None``.  Local copies have ``src == dst``; one batch runs as one
    executor phase, so its ranks are pairwise distinct.
    """

    src: np.ndarray
    dst: np.ndarray
    counts: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    dst_segments: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    src_buf: str = "vec"
    dst_buf: str = "vec"
    op: str | None = None
    tag: str = ""

    def segment_tuples(self, interned: dict) -> tuple[list, list]:
        """Each item's source and destination segment tuples (one tuple
        for both ends when they move the same segments), interned in
        ``interned`` (see :func:`_tuples`)."""
        src = _tuples(self.counts, self.lo, self.hi, interned)
        dst = src if self.dst_segments is None else _tuples(*self.dst_segments, interned)
        return src, dst

    def to_transfers(self, interned: dict) -> tuple[Transfer, ...]:
        """These items as :class:`Transfer` objects, which check
        themselves as they are made (segment tuples interned)."""
        src_segs, dst_segs = self.segment_tuples(interned)
        return tuple(
            Transfer(s, d, self.src_buf, self.dst_buf, a, b, self.op, self.tag)
            for s, d, a, b in zip(self.src.tolist(), self.dst.tolist(), src_segs, dst_segs)
        )

    def check_transfers(self) -> None:
        """Raise what making :meth:`to_transfers` raises, making them only
        when a check could fail: a transfer to self, an invalid source
        segment, or destination segments of their own."""
        lo, hi = self.lo, self.hi
        if (self.dst_segments is not None or (self.src == self.dst).any()
                or (lo < 0).any() or (hi < lo).any()):
            self.to_transfers({})

    def finalize_error(self, p: int, label: str) -> ScheduleError | None:
        """What :meth:`Step.validate` raises for these transfers, or ``None``.

        The checks and texts are the object path's: the first transfer
        with a rank outside ``[0, p)``, then, when not reducing, the first
        destination rank (in order of first write) whose segments overlap,
        naming its first overlapping pair in sorted order.
        """
        src, dst = self.src, self.dst
        out = (src < 0) | (src >= p) | (dst < 0) | (dst >= p)
        if out.any():
            i = int(np.argmax(out))
            rank = src[i] if not 0 <= src[i] < p else dst[i]
            return ScheduleError(f"rank {rank} out of range in step {label!r}")
        if self.op is not None:
            return None
        counts, lo, hi = self.dst_segments or (self.counts, self.lo, self.hi)
        rank = np.repeat(dst, counts)
        order = np.lexsort((hi, lo, rank))
        rank, lo, hi = rank[order], lo[order], hi[order]
        bad = np.flatnonzero((rank[1:] == rank[:-1]) & (lo[1:] < hi[:-1]))
        if not bad.size:
            return None
        ranks, first_write = np.unique(dst, return_index=True)
        k = bad[np.argmin(first_write[np.searchsorted(ranks, rank[bad])])]
        return ScheduleError(
            f"overlapping non-reducing writes [{lo[k]},{hi[k]}) and "
            f"[{lo[k + 1]},{hi[k + 1]}) in step {label!r} rank {rank[k]} "
            f"buf {self.dst_buf}"
        )


class EveryRank(NamedTuple):
    """One local-copy batch running ``copy`` on every rank ``0 .. p − 1``.

    ``copy`` is a one-item :class:`ArrayPhase` whose rank is ignored.  A
    whole-vector permutation on every rank is ``p`` segments here, not
    the ``p²`` of one item per rank.
    """

    copy: ArrayPhase


class ArrayStep(NamedTuple):
    """One :class:`Step` as arrays: its transfers (``None``: none) and its
    ``pre``/``post`` local-copy batches, in order."""

    label: str
    transfers: ArrayPhase | None
    pre: tuple[ArrayPhase | EveryRank, ...] = ()
    post: tuple[ArrayPhase | EveryRank, ...] = ()


@dataclass(frozen=True, eq=False)
class BlockRotation:
    """``reps`` steps of one transfer phase each, differing only by the
    blocks they move: a ring pass.

    At step ``k`` item ``i`` of ``phase`` moves block ``(block[i] − k) mod
    B`` of the ``B = edges.size − 1`` blocks ``edges[b] .. edges[b + 1]``,
    as one segment, the same at both ends; ``label`` and ``phase.tag`` are
    format strings of ``k``.  Iterating yields the steps (how
    :func:`schedule_from_arrays` reads it);
    :func:`~repro.runtime.compiled.plan_from_arrays` lowers step 0 and
    stores the rotation, one phase for all ``reps`` steps.
    """

    phase: ArrayPhase
    block: np.ndarray
    edges: np.ndarray
    reps: int
    label: str

    def step(self, k: int) -> ArrayStep:
        """Step ``k`` as arrays."""
        b = (self.block - k) % (self.edges.size - 1)
        return ArrayStep(self.label.format(k=k), self.phase._replace(
            lo=self.edges[b], hi=self.edges[b + 1], tag=self.phase.tag.format(k=k),
        ))

    def __iter__(self) -> Iterator[ArrayStep]:
        return map(self.step, range(self.reps))


def _embed(ph: ArrayPhase, ranks: np.ndarray, offset: int) -> ArrayPhase:
    """``ph`` with local rank ``i`` acting as ``ranks[i]`` and every
    segment shifted by ``offset`` elements."""
    segs = ph.dst_segments
    return ph._replace(
        src=ranks[ph.src], dst=ranks[ph.dst], lo=ph.lo + offset, hi=ph.hi + offset,
        dst_segments=None if segs is None else (segs[0], segs[1] + offset, segs[2] + offset),
    )


def _concat(phases: list[ArrayPhase], label: str) -> ArrayPhase:
    """One transfer phase of ``phases``' items, in order."""
    first = phases[0]

    def kind(ph: ArrayPhase) -> tuple:
        return ph.src_buf, ph.dst_buf, ph.op, ph.tag, ph.dst_segments is None

    if any(kind(ph) != kind(first) for ph in phases[1:]):
        raise ValueError(
            f"step {label!r}: overlaid transfers disagree on buffers, op, tag "
            "or destination segments"
        )
    segs = None if first.dst_segments is None else tuple(
        np.concatenate(cols) for cols in zip(*(ph.dst_segments for ph in phases))
    )
    return first._replace(
        **{k: np.concatenate([getattr(ph, k) for ph in phases])
           for k in ("src", "dst", "counts", "lo", "hi")},
        dst_segments=segs,
    )


def overlay_steps(parts: Iterable[tuple[Sequence[ArrayStep], Sequence[int], int]]
                  ) -> Iterator[ArrayStep]:
    """Steps running several step lists in lockstep, each embedded in a
    larger job.

    A part ``(steps, ranks, offset)`` runs ``steps`` on local ranks
    ``0..len(ranks) − 1``, local rank ``i`` acting as ``ranks[i]``, with
    every segment shifted by ``offset`` elements.  Step ``i`` of the
    overlay is every part's step ``i`` in part order, labelled as the
    first: their transfers concatenate into one phase (they must agree on
    buffers, op, tag and whether they name destination segments, else
    ``ValueError``), their local-copy batches stay separate phases.  A
    part with fewer steps drops out.
    """
    parts = [(steps, np.asarray(ranks), offset) for steps, ranks, offset in parts]
    for i in range(max((len(steps) for steps, _, _ in parts), default=0)):
        here = [(steps[i], ranks, off) for steps, ranks, off in parts if i < len(steps)]
        label = here[0][0].label
        moves = [_embed(st.transfers, ranks, off)
                 for st, ranks, off in here if st.transfers is not None]
        yield ArrayStep(
            label,
            _concat(moves, label) if moves else None,
            tuple(_embed(ph, ranks, off) for st, ranks, off in here for ph in st.pre),
            tuple(_embed(ph, ranks, off) for st, ranks, off in here for ph in st.post),
        )


def _tuples(counts: np.ndarray, lo: np.ndarray, hi: np.ndarray, interned: dict) -> list[tuple]:
    """Per-item segment tuples from flat segment columns.

    ``interned`` maps each segment list seen so far, keyed by the bytes
    of its ``(lo, hi)`` pairs as int64 (16 bytes a segment), to its one
    tuple: only an unseen list is made into a tuple.
    """
    cut = np.concatenate(([0], np.cumsum(counts))).tolist()
    raw = np.stack((lo, hi), axis=1).astype(np.int64, copy=False).tobytes()
    out = []
    for a, b in zip(cut, cut[1:]):
        key = raw[16 * a:16 * b]
        segs = interned.get(key)
        if segs is None:
            segs = interned[key] = tuple(zip(lo[a:b].tolist(), hi[a:b].tolist()))
        out.append(segs)
    return out


def local_copies(phases: tuple[ArrayPhase | EveryRank, ...], p: int,
                 interned: dict) -> tuple[LocalCopy, ...]:
    """The :class:`LocalCopy` objects of local-copy batches, in order,
    their segment tuples interned in ``interned``."""
    copies = []
    for ph in phases:
        if isinstance(ph, EveryRank):
            # every rank shares the copy's one pair of segment tuples
            ph, ranks = ph.copy, range(p)
            (a,), (b,) = ph.segment_tuples(interned)
            src_segs, dst_segs = [a] * p, [b] * p
        else:
            ranks = ph.src.tolist()
            src_segs, dst_segs = ph.segment_tuples(interned)
        copies += [
            LocalCopy(rank, ph.src_buf, ph.dst_buf, a, b, ph.op, ph.tag)
            for rank, a, b in zip(ranks, src_segs, dst_segs)
        ]
    return tuple(copies)


def schedule_from_arrays(
    p: int, meta: dict, steps: Iterable[ArrayStep | BlockRotation]
) -> Schedule:
    """The :class:`Schedule` of ``steps`` (validated on exit), each
    :class:`BlockRotation` written out step by step.

    Equal segment tuples are one object throughout the schedule (interned
    for this call only): the steps of a butterfly walk each rank's sets
    more than once, and a transfer that moves the same segments at both
    ends holds one tuple for both.
    """
    sched = Schedule(p, meta=meta)
    interned: dict = {}
    for st in chain.from_iterable(
        st if isinstance(st, BlockRotation) else (st,) for st in steps
    ):
        ph = st.transfers
        transfers = () if ph is None else ph.to_transfers(interned)
        sched.add(Step(transfers, local_copies(st.pre, p, interned),
                       local_copies(st.post, p, interned), st.label))
    return sched.finalize()
