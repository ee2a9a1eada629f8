"""Compiled columnar execution plans — the correctness oracle's fast path.

:func:`compile_plan` lowers a finalized :class:`~repro.runtime.schedule.Schedule`
*once* into a structure-of-arrays plan over a single 2-D buffer matrix of
shape ``(p, total_buffer_elems)`` in which every named per-rank buffer owns a
fixed column slice (:class:`BufferLayout`).  The plan stores **block runs**,
not per-element indices: a run is a flat source start, a flat destination
start (``rank * total + column``) and a length, so a whole-vector exchange
or a half-vector butterfly block is one run however many elements it moves.
Runs contiguous in both source and destination are merged, never across a
write-group start; when every run of a phase has one length, the lengths
are not stored at all.

Compilation has two front ends and one back end.  A front end reads a
batch of steps into flat columns (per item: ranks, buffer, op; per
segment: ``lo``, ``hi``, item): :func:`compile_plan` from a schedule's
``Transfer``/``LocalCopy`` objects, :func:`plan_from_arrays` from steps
written as arrays (:class:`~repro.runtime.schedule.ArrayStep`), with no
schedule built.  The back end checks ranks, buffers, segment bounds and
the sent/received balance with vectorised passes over many steps at once,
raising the error a transfer-by-transfer check would raise first, then
merges runs and forms write groups; equal columns give equal plans.  Execution expands a phase's runs to positions
just before its gather and its scatter and drops them after (a run start
*is* its position when runs have length 1; equal lengths ``L`` expand as
``start + arange(L)``), then replays a step as one ``np.take`` gather plus
one vectorized scatter (or ``ufunc.at`` when reduce destinations genuinely
collide) per write group — no per-transfer Python — bit-identical to
:func:`repro.runtime.executor.execute` (asserted across the whole registry,
on even and uneven data, in ``tests/test_compiled_executor.py``).

Semantics preserved exactly:

* **sendrecv snapshot** — each step gathers *every* transfer source before any
  destination is written, so pairwise exchanges read pre-step values;
* **write order** — consecutive same-op transfers form one write group;
  groups apply in transfer order, so a later reduce sees an earlier
  overwrite's value exactly as the sequential executor would.  Within an
  overwrite group duplicate destinations keep the *last* write (the reference
  executor's later-transfer-wins order): such a group — the only one ever
  expanded to elements at compile time — is deduplicated and stored back as
  runs, rather than relying on NumPy's fancy-assignment iteration order;
* **reduce accumulation** — groups whose destination runs are pairwise
  disjoint (an interval-overlap test at compile time) reduce via one
  vectorized ``gather → op → scatter``; colliding groups fall back to
  ``ufunc.at``, which applies repeated indices one by one in element order —
  both match the reference's sequential ``buf[lo:hi] = op(buf[lo:hi], chunk)``
  loop (exact for the integer dtypes the oracle uses, and the same
  accumulation order even for floats);
* **local copies** — ``pre``/``post`` copies run in order; consecutive copies
  touching pairwise-distinct ranks (and sharing one op) are batched into a
  single gather/scatter phase, which cannot change results because a local
  copy only ever reads and writes its own rank.

The payoff is batching: :meth:`CompiledPlan.execute_batch` runs a stack of
``(seeds, p, total_elems)`` matrices through the same runs in one pass, so
verifying many seeds costs one compile plus a few vectorized ops per step
(see :func:`repro.collectives.verify.run_and_check_compiled` and the
``repro verify`` CLI, which makes one plan per grid cell and keeps none).

Plans rendered from arrays have two compact phase forms, so a ring or a
π-permuted cell stores O(p) or O(n) entries rather than O(p²) runs:

* a :class:`~repro.runtime.schedule.BlockRotation` (a ring pass) lowers
  its step 0 and is stored once, as a phase replayed once per step with
  every item's block rotated (the sweep table's ``step_reps``, with the
  rotation the table does not need); its writes never overlap, so one
  write group serves every step;
* an :class:`~repro.runtime.schedule.EveryRank` copy lowers on rank 0 and
  is stored as that rank's source and destination columns, gathered and
  scattered on every rank at once through a ``(batch, p, total)`` view.

:meth:`CompiledPlan.expanded` writes both out as the run phases compiling
the built schedule gives; :func:`compile_plan` itself emits run phases only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from operator import attrgetter, is_
from typing import ClassVar, Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from repro.runtime.buffers import RankBuffers
from repro.runtime.errors import BufferMismatchError, ScheduleError
from repro.runtime.executor import ExecutionTrace
from repro.runtime.reduce_ops import named_op
from repro.runtime.schedule import (
    ArrayPhase,
    ArrayStep,
    BlockRotation,
    EveryRank,
    LocalCopy,
    Schedule,
    validation_enabled,
)

__all__ = [
    "BufferLayout",
    "CompiledPlan",
    "compile_plan",
    "plan_from_arrays",
    "buffers_used",
    "sorted_unique",
    "matrix_from_buffers",
    "matrix_to_buffers",
]


_SRC_BUF, _DST_BUF = attrgetter("src_buf"), attrgetter("dst_buf")


def buffers_used(schedule: Schedule) -> set[str]:
    """Every named buffer referenced by the schedule's transfers and copies."""
    names: set[str] = set()
    for step in schedule.steps:
        for items in (step.transfers, step.pre, step.post):
            names.update(map(_SRC_BUF, items), map(_DST_BUF, items))
    return names


class BufferLayout:
    """Column layout packing every named buffer into one 2-D matrix.

    Buffer ``name`` occupies columns ``[offsets[name], offsets[name] +
    widths[name])`` of a ``(p, total)`` matrix; rank ``r``'s view of the
    buffer is row ``r`` of that slice.  Names are laid out in sorted order so
    layouts are deterministic.

    Example::

        >>> layout = BufferLayout({"vec": 4, "tmp": 2})
        >>> layout.names, layout.total
        (('tmp', 'vec'), 6)
        >>> layout.offsets["vec"]
        2
    """

    __slots__ = ("names", "widths", "offsets", "total")

    def __init__(self, widths: Mapping[str, int]):
        if not widths:
            raise ValueError("a BufferLayout needs at least one buffer")
        self.names = tuple(sorted(widths))
        self.widths = {name: int(widths[name]) for name in self.names}
        offsets: dict[str, int] = {}
        total = 0
        for name in self.names:
            if self.widths[name] < 0:
                raise ValueError(f"negative width for buffer {name!r}")
            offsets[name] = total
            total += self.widths[name]
        self.offsets = offsets
        self.total = total

    @classmethod
    def for_schedule(cls, schedule: Schedule) -> "BufferLayout":
        """Layout matching what :func:`~repro.collectives.verify.init_buffers`
        allocates: every buffer the schedule touches, ``meta["n"]`` elements
        wide (falling back to the largest segment bound when ``n`` is absent).
        """
        names = buffers_used(schedule) or {"vec"}
        n = schedule.meta.get("n")
        if n is None:
            n = 0
            for step in schedule.steps:
                for item in step.transfers + step.pre + step.post:
                    for lo, hi in item.src_segments + item.dst_segments:
                        n = max(n, hi)
        return cls({name: n for name in names})


def matrix_from_buffers(
    buffers: RankBuffers, layout: BufferLayout, dtype=None
) -> np.ndarray:
    """Pack a :class:`RankBuffers` into a fresh ``(p, layout.total)`` matrix.

    Ranks whose copy of a buffer is narrower than the layout width are
    zero-padded on the right; ranks missing a buffer entirely contribute a
    zero row slice.  ``dtype`` defaults to the first buffer's dtype
    (``int64`` when there are none).
    """
    if dtype is None:
        dtype = np.int64
        for r in range(buffers.p):
            names = buffers.names(r)
            if names:
                dtype = buffers.get(r, names[0]).dtype
                break
    matrix = np.zeros((buffers.p, layout.total), dtype=dtype)
    for name in layout.names:
        off, width = layout.offsets[name], layout.widths[name]
        for r in range(buffers.p):
            if not buffers.has(r, name):
                continue
            arr = buffers.get(r, name)
            if arr.shape[0] > width:
                raise BufferMismatchError(
                    f"rank {r} buffer {name!r} has {arr.shape[0]} elems, "
                    f"layout width is {width}"
                )
            matrix[r, off : off + arr.shape[0]] = arr
    return matrix


def matrix_to_buffers(
    matrix: np.ndarray, layout: BufferLayout, buffers: RankBuffers
) -> RankBuffers:
    """Write a matrix back into an allocated :class:`RankBuffers`, in place.

    Each rank/buffer receives exactly as many leading columns as its array
    holds, so layouts wider than a rank's buffer round-trip losslessly.
    """
    for name in layout.names:
        off = layout.offsets[name]
        for r in range(buffers.p):
            if not buffers.has(r, name):
                continue
            arr = buffers.get(r, name)
            arr[:] = matrix[r, off : off + arr.shape[0]]
    return buffers


# -- plan structure ----------------------------------------------------------


def _positions(starts: np.ndarray, width: int, lens: np.ndarray | None) -> np.ndarray:
    """Per-element positions of the runs beginning at ``starts``: each
    ``width`` long, or ``lens[j]`` long when ``width`` is 0."""
    if width == 1:
        return starts
    if width:
        return (starts[:, None] + np.arange(width, dtype=np.intp)).ravel()
    return _expand(starts, lens)


@dataclass(frozen=True)
class _Write:
    """One write group: a contiguous slice of a phase's staged elements."""

    sel: slice  # staged elements (and their expanded destinations) it writes
    ufunc: np.ufunc | None  # None = overwrite
    disjoint: bool  # destinations pairwise distinct → vectorized reduce


@dataclass(frozen=True)
class _Phase:
    """Gather-then-scatter with snapshot semantics (all reads before writes).

    Run ``j`` moves a block of elements from flat position ``src[j]`` on to
    flat position ``dst[j]`` on; the staged elements are the runs back to
    back, and each write group is a slice of them.
    """

    per_rank: ClassVar[bool] = False  # positions index the flat matrix
    src: np.ndarray  # flat source start of each run
    dst: np.ndarray  # flat destination start of each run
    width: int  # the common run length, or 0 when lengths differ
    lens: np.ndarray | None  # run lengths (all > 0) when they differ
    writes: tuple[_Write, ...]

    def runs(self) -> Iterator[tuple]:
        """Per step, the runs of its gather and scatter: source and
        destination starts, then the common width or the lengths."""
        yield self.src, self.dst, self.width, self.lens


@dataclass(frozen=True)
class _Permute:
    """An :class:`~repro.runtime.schedule.EveryRank` copy: every rank
    moves column ``src[j]`` to column ``dst[j]``, through a ``(batch, p,
    total)`` view of the matrix, so the plan stores one rank's columns."""

    per_rank: ClassVar[bool] = True  # positions index a rank's columns
    copy: ArrayPhase  # the one-item copy, to write the phase out as runs
    src: np.ndarray
    dst: np.ndarray
    writes: tuple[_Write, ...]

    def runs(self) -> Iterator[tuple]:
        yield self.src, self.dst, 1, None

    def expand(self, layout: BufferLayout, p: int) -> _Phase:
        """The run phase lowering the copy once per rank gives."""
        c, ranks = self.copy, np.arange(p, dtype=np.intp)
        counts, lo, hi = (np.tile(col, p) for col in (c.counts, c.lo, c.hi))
        segs = c.dst_segments and tuple(np.tile(col, p) for col in c.dst_segments)
        every = c._replace(src=ranks, dst=ranks, counts=counts, lo=lo, hi=hi,
                           dst_segments=segs)
        return _lower_columns(layout, p, [("", True, every)], _array_columns)[0][0]


@dataclass(frozen=True)
class _Rotation:
    """A :class:`~repro.runtime.schedule.BlockRotation`: one transfer
    phase replayed as ``rotation.reps`` steps, step ``k`` moving each
    item's block ``(block − k) mod B`` from row start ``src`` to row start
    ``dst``.  Destinations are pairwise distinct, so one write group
    covers every step."""

    per_rank: ClassVar[bool] = False
    rotation: BlockRotation
    src: np.ndarray  # flat start of each item's source buffer row
    dst: np.ndarray  # flat start of each item's destination buffer row
    writes: tuple[_Write]

    def runs(self) -> Iterator[tuple]:
        rot = self.rotation
        lens = np.diff(rot.edges)
        width = int(lens[0]) if (lens == lens[0]).all() else 0
        for k in range(rot.reps):
            block = (rot.block - k) % lens.size
            lo = rot.edges[block]
            yield self.src + lo, self.dst + lo, width, lens[block]

    def expand(self, layout: BufferLayout, p: int) -> list:
        """Per step, the run phase (``None``: moves nothing) and element
        count that lowering the step gives."""
        return _lower_columns(layout, p, [("", False, st.transfers) for st in self.rotation],
                              _array_columns)


@dataclass(frozen=True)
class _StepPlan:
    """One step, or the steps of one rotation: its phases and the elements
    each step moves between ranks."""

    phases: tuple[_Phase | _Permute | _Rotation, ...]
    comm: tuple[int, ...]


@dataclass(frozen=True)
class CompiledPlan:
    """A schedule lowered to block runs over one buffer matrix."""

    p: int
    layout: BufferLayout
    steps: tuple[_StepPlan, ...]
    transfers_run: int
    local_elems: int

    @property
    def num_steps(self) -> int:
        return sum(len(step.comm) for step in self.steps)

    def new_matrix(self, dtype=np.int64) -> np.ndarray:
        """A zeroed buffer matrix of the right shape for this plan."""
        return np.zeros((self.p, self.layout.total), dtype=dtype)

    def _trace(self) -> ExecutionTrace:
        per_step = list(chain.from_iterable(step.comm for step in self.steps))
        return ExecutionTrace(
            steps_run=len(per_step),
            transfers_run=self.transfers_run,
            elems_moved=sum(per_step),
            local_elems_moved=self.local_elems,
            per_step_elems=per_step,
        )

    @staticmethod
    def _check(matrix: np.ndarray, shape: tuple) -> None:
        if matrix.shape != shape:
            raise ValueError(
                f"matrix shape {matrix.shape} does not match plan {shape}"
            )
        if not matrix.flags.c_contiguous:
            raise ValueError("compiled execution needs a C-contiguous matrix")

    def execute(self, matrix: np.ndarray) -> ExecutionTrace:
        """Run the plan on one ``(p, total)`` matrix, mutating it in place.

        Returns the same :class:`ExecutionTrace` the reference executor
        would produce for this schedule.
        """
        self._check(matrix, (self.p, self.layout.total))
        return self._run(matrix[None])

    def execute_batch(self, matrices: np.ndarray) -> ExecutionTrace:
        """Run the plan on a ``(batch, p, total)`` stack in one pass.

        Every layer evolves exactly as :meth:`execute` would evolve it alone
        (the plan's positions broadcast over the leading axis), so one
        batched call verifies many seeds for one compile.  The returned trace
        describes a single run — all layers share the schedule structure.
        """
        if matrices.ndim != 3:
            raise ValueError(f"expected a 3-D batch, got shape {matrices.shape}")
        self._check(matrices, (matrices.shape[0], self.p, self.layout.total))
        return self._run(matrices)

    def _run(self, rows: np.ndarray) -> ExecutionTrace:
        flat = rows.reshape(rows.shape[0], -1)
        take = np.take
        for step in self.steps:
            for phase in step.phases:
                view = rows if phase.per_rank else flat
                for src, dst, width, lens in phase.runs():
                    staged = take(view, _positions(src, width, lens), axis=-1)
                    dst = _positions(dst, width, lens)
                    for w in phase.writes:
                        chunk, idx = staged[..., w.sel], dst[w.sel]
                        if w.ufunc is None:
                            view[..., idx] = chunk
                        elif w.disjoint:
                            view[..., idx] = w.ufunc(take(view, idx, axis=-1), chunk)
                        else:
                            w.ufunc.at(view, (..., idx), chunk)
        return self._trace()

    def expanded(self) -> "CompiledPlan":
        """This plan with its compact phases written out as run phases:
        what :func:`compile_plan` gives for the same steps built as a
        schedule, phase for phase."""
        steps = []
        for step in self.steps:
            if step.phases and isinstance(step.phases[0], _Rotation):
                steps += [
                    _StepPlan(() if phase is None else (phase,), (moved,))
                    for phase, moved in step.phases[0].expand(self.layout, self.p)
                ]
                continue
            steps.append(replace(step, phases=tuple(
                phase.expand(self.layout, self.p) if isinstance(phase, _Permute)
                else phase for phase in step.phases
            )))
        return replace(self, steps=tuple(steps))


# -- compilation -------------------------------------------------------------


def _ufunc_for(op_name: str) -> np.ufunc:
    fn = named_op(op_name).fn
    if not isinstance(fn, np.ufunc):
        raise ScheduleError(
            f"reduce op {op_name!r} is not ufunc-backed; the compiled "
            "executor needs np.ufunc ops (use the reference executor)"
        )
    return fn


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)``: the sorted distinct values.  Called with no
    index outputs, ``np.unique`` imports ``numpy.ma`` (NumPy 2.4), which
    nothing else here loads, and takes a hash path that is slower than
    this sort on many distinct integers."""
    out = np.sort(values, axis=None)
    keep = np.ones(out.size, dtype=bool)
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


def _expand(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Runs ``starts[j] .. starts[j] + lens[j]`` → one flat position array."""
    ends = np.cumsum(lens)
    return np.repeat(starts - (ends - lens), lens) + np.arange(ends[-1], dtype=np.intp)


def _merge(src: np.ndarray, dst: np.ndarray, lens: np.ndarray,
           fixed: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coalesce neighbouring runs contiguous in both source and destination.

    A run flagged in ``fixed`` (a write-group start) always starts a new run.
    """
    brk = fixed.copy()
    brk[0] = True
    brk[1:] |= (src[1:] != src[:-1] + lens[:-1]) | (dst[1:] != dst[:-1] + lens[:-1])
    first = np.flatnonzero(brk)
    return src[first], dst[first], np.add.reduceat(lens, first)


def _keep_last(src: np.ndarray, dst: np.ndarray, lens: np.ndarray):
    """An overwrite group's runs with only the last write per destination.

    The reference executor applies an overwrite group transfer by transfer,
    so a later write to a position wins; the survivors keep staging order
    and are coalesced back into runs.
    """
    d_pos = _expand(dst, lens)
    _, first_rev = np.unique(d_pos[::-1], return_index=True)
    keep = np.sort(d_pos.size - 1 - first_rev)
    ones = np.ones(keep.size, dtype=np.intp)
    return _merge(_expand(src, lens)[keep], d_pos[keep], ones,
                  np.zeros(keep.size, dtype=bool))


#: a phase item's columns: source rank, buffer, segments; the same for the
#: destination; reduce op.  Read one column at a time: a tuple per item
#: would wake the cyclic GC, which then rescans the whole schedule
_TRANSFER_COLS = tuple(map(attrgetter, (
    "src", "src_buf", "src_segments", "dst", "dst_buf", "dst_segments", "op"
)))
_LOCAL_COLS = tuple(map(attrgetter, (
    "rank", "src_buf", "src_segments", "rank", "dst_buf", "dst_segments", "op"
)))

#: a vectorised pass lowers whole steps until it holds this many items:
#: enough to amortize NumPy call overhead over many small steps, few enough
#: to bound the pass's transient arrays
_BATCH_ITEMS = 1 << 16
#: the same bound on a rendered batch, counted in segments: each segment
#: takes a slot in every one of the pass's per-segment arrays
_BATCH_SEGMENTS = 1 << 14


class _Columns(NamedTuple):
    """A batch of phases as flat columns: all the back end reads.

    Per item: source and destination rank, buffer index into the layout
    (``-1`` where the layout lacks the buffer) and op code (an index into
    ``ops``).  Per segment, for each side: ``(lo, hi, item)``;
    ``dst_segs`` is ``None`` when both ends move the same segments.
    """

    sizes: list[int]  # items per phase
    src_rank: np.ndarray
    dst_rank: np.ndarray
    src_buf: np.ndarray
    dst_buf: np.ndarray
    op_code: np.ndarray
    ops: list
    src_segs: tuple
    dst_segs: tuple | None


class _Side:
    """One side (sources or destinations) of a batch of items, in bulk."""

    __slots__ = ("rank", "lo", "hi", "item", "width", "starts", "moved", "invalid")

    def __init__(self, layout: BufferLayout, rank: np.ndarray, bufs: np.ndarray,
                 lo: np.ndarray, hi: np.ndarray, item: np.ndarray,
                 moved: np.ndarray | None = None):
        self.rank, self.lo, self.hi, self.item = rank, lo, hi, item
        if moved is None:
            moved = np.bincount(item, weights=hi - lo, minlength=rank.size).astype(np.intp)
        self.moved = moved
        names = layout.names
        offsets = np.array([layout.offsets[name] for name in names], dtype=np.intp)
        self.width = np.array([layout.widths[name] for name in names],
                              dtype=np.intp)[bufs]
        base = rank * layout.total + offsets[bufs]
        self.starts = base[item] + lo
        self.invalid = (lo < 0) | (hi < lo) | (hi > self.width[item])

    def raise_invalid(self, k: int, where: str, tag: str) -> None:
        """Raise for item ``k``'s first invalid segment, if it has one."""
        bad = np.flatnonzero(self.invalid & (self.item == k))
        if not bad.size:
            return
        lo, hi = int(self.lo[bad[0]]), int(self.hi[bad[0]])
        if lo < 0 or hi < lo:
            raise ScheduleError(f"invalid segment ({lo}, {hi}) in {where} ({tag!r})")
        raise BufferMismatchError(
            f"segment ({lo},{hi}) exceeds buffer of {int(self.width[k])} "
            f"elems in {where} ({tag!r})"
        )

    def runs(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat starts and lengths of the non-empty segments."""
        lens = self.hi - self.lo
        keep = lens > 0
        if keep.all():
            return self.starts, lens
        return self.starts[keep], lens[keep]


def _lookup(index: dict, keys: list) -> np.ndarray:
    """``index[key]`` for every key, ``-1`` where a key is missing."""
    if index.keys() >= set(keys):
        return np.fromiter(map(index.__getitem__, keys), np.intp, len(keys))
    return np.array([index.get(key, -1) for key in keys], dtype=np.intp)


def _parse(segments: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Segment tuples, one per item → flat ``(lo, hi, item)`` columns."""
    items = len(segments)
    count = np.fromiter(map(len, segments), np.intp, items)
    seg = np.fromiter(
        chain.from_iterable(chain.from_iterable(segments)), np.intp, 2 * int(count.sum())
    ).reshape(-1, 2)
    return seg[:, 0], seg[:, 1], np.repeat(np.arange(items, dtype=np.intp), count)


def _object_columns(layout: BufferLayout, phases: list) -> _Columns:
    """Front end: phases of :class:`Transfer` / :class:`LocalCopy` objects."""

    def column(c: int) -> list:
        return list(chain.from_iterable(
            map((_LOCAL_COLS if local else _TRANSFER_COLS)[c], items)
            for _, local, items in phases
        ))

    src_ranks, src_bufs, src_segs, dst_ranks, dst_bufs, dst_segs, ops = map(
        column, range(7)
    )
    index = {name: i for i, name in enumerate(layout.names)}
    codes = {op: i for i, op in enumerate(dict.fromkeys(ops))}
    return _Columns(
        sizes=[len(items) for _, _, items in phases],
        src_rank=np.fromiter(src_ranks, np.intp, len(ops)),
        dst_rank=np.fromiter(dst_ranks, np.intp, len(ops)),
        src_buf=_lookup(index, src_bufs),
        dst_buf=_lookup(index, dst_bufs),
        op_code=_lookup(codes, ops),
        ops=list(codes),
        src_segs=_parse(src_segs),
        # butterflies pass one tuple as both ends: parse it once
        dst_segs=None if all(map(is_, src_segs, dst_segs)) else _parse(dst_segs),
    )


def _array_columns(layout: BufferLayout, phases: list) -> _Columns:
    """Front end: phases of :class:`~repro.runtime.schedule.ArrayPhase` arrays."""
    arrays = [ph for _, _, ph in phases]
    sizes = [ph.src.size for ph in arrays]
    index = {name: i for i, name in enumerate(layout.names)}
    ops = list(dict.fromkeys(ph.op for ph in arrays))

    def per_item(values) -> np.ndarray:
        return np.repeat(np.array(values, dtype=np.intp), sizes)

    def cat(parts) -> np.ndarray:
        parts = list(parts)
        if len(parts) == 1:
            return np.asarray(parts[0], dtype=np.intp)
        return np.concatenate(parts, dtype=np.intp)

    def segments(parts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        counts, lo, hi = map(cat, zip(*parts))
        return lo, hi, np.repeat(np.arange(counts.size, dtype=np.intp), counts)

    shared = all(ph.dst_segments is None for ph in arrays)
    return _Columns(
        sizes=sizes,
        src_rank=cat(ph.src for ph in arrays),
        dst_rank=cat(ph.dst for ph in arrays),
        src_buf=per_item([index.get(ph.src_buf, -1) for ph in arrays]),
        dst_buf=per_item([index.get(ph.dst_buf, -1) for ph in arrays]),
        op_code=per_item([ops.index(ph.op) for ph in arrays]),
        ops=ops,
        src_segs=segments((ph.counts, ph.lo, ph.hi) for ph in arrays),
        dst_segs=None if shared else segments(
            ph.dst_segments or (ph.counts, ph.lo, ph.hi) for ph in arrays
        ),
    )


def _raise_first(layout: BufferLayout, phases: list, cols: _Columns,
                 src: _Side, dst: _Side, item_bad: np.ndarray,
                 rank_bad: np.ndarray, phase_first: np.ndarray) -> None:
    """Raise the error lowering phase by phase, in order, would raise first."""
    k = int(np.argmax(item_bad))
    j = int(np.searchsorted(phase_first, k, "right")) - 1
    # each earlier phase would have lowered, resolving its ops, before it
    before = cols.op_code[:phase_first[j]]
    _, seen = np.unique(before, return_index=True)
    for code in before[np.sort(seen)].tolist():
        if cols.ops[code] is not None:
            _ufunc_for(cols.ops[code])
    where, local, payload = phases[j]
    # an array phase carries one tag and buffer pair for all its items
    item = payload if isinstance(payload, ArrayPhase) else payload[k - phase_first[j]]
    tag = item.tag
    if rank_bad[k]:
        rank = f"rank {src.rank[k]}" if local else "rank"
        raise ScheduleError(f"{rank} out of range in {where} ({tag!r})")
    if cols.src_buf[k] < 0 or cols.dst_buf[k] < 0:
        name = item.src_buf if cols.src_buf[k] < 0 else item.dst_buf
        raise BufferMismatchError(
            f"buffer {name!r} not in layout {layout.names} ({where}, {tag!r})"
        )
    src.raise_invalid(k, where, tag)
    dst.raise_invalid(k, where, tag)
    raise BufferMismatchError(
        f"{where} ({tag!r}): {src.moved[k]} elems sent, {dst.moved[k]} expected"
    )


def _lower_columns(layout: BufferLayout, p: int, phases: list, columns) -> list:
    """The back end: lower a batch of phases ``(where, local, payload)``,
    read by the front end ``columns``, in one vectorised pass.

    Returns one ``(phase or None when it moves nothing, elements moved)``
    pair per phase.  Every item is checked at once (ranks, buffers,
    segment bounds, sent == received); a failure raises the error checking
    item by item would raise first.
    """
    cols: _Columns = columns(layout, phases)
    sizes = cols.sizes
    src = _Side(layout, cols.src_rank, cols.src_buf, *cols.src_segs)
    shared = cols.dst_segs is None
    dst = _Side(layout, cols.dst_rank, cols.dst_buf,
                *(cols.src_segs if shared else cols.dst_segs),
                moved=src.moved if shared else None)
    rank_bad = (src.rank < 0) | (src.rank >= p) | (dst.rank < 0) | (dst.rank >= p)
    item_bad = (rank_bad | (cols.src_buf < 0) | (cols.dst_buf < 0)
                | (src.moved != dst.moved))
    item_bad[src.item[src.invalid]] = True
    item_bad[dst.item[dst.invalid]] = True
    phase_first = np.cumsum(sizes) - sizes
    if item_bad.any():
        _raise_first(layout, phases, cols, src, dst, item_bad, rank_bad, phase_first)

    # write groups: maximal spans of one phase's consecutive same-op items
    op_code = cols.op_code
    fresh = np.ones(op_code.size, dtype=bool)
    fresh[1:] = op_code[1:] != op_code[:-1]
    fresh[phase_first] = True
    firsts = np.flatnonzero(fresh)
    resolved: dict = {}
    for code in op_code[firsts].tolist():
        if code not in resolved:
            op = cols.ops[code]
            resolved[code] = None if op is None else _ufunc_for(op)
    ufuncs = [resolved[code] for code in op_code[firsts].tolist()]
    item_start = np.cumsum(src.moved) - src.moved
    total = int(item_start[-1] + src.moved[-1])
    if total == 0:
        return [(None, 0)] * len(phases)
    # group g stages elements bounds[g] .. bounds[g + 1], phase j elements
    # edges[j] .. edges[j + 1]
    bounds = np.append(item_start[firsts], total)
    edges = np.append(item_start[phase_first], total)
    moved = np.diff(edges)

    # from here on only the runs are read: drop the parse before merging
    runs = src.runs(), dst.runs()
    del cols, src, dst
    run_src, run_dst, lens = _runs(*runs, bounds)
    del runs
    run_off = np.cumsum(lens) - lens
    group = np.searchsorted(bounds, run_off, "right") - 1
    # a group overlaps itself iff two of its runs, sorted by destination,
    # overlap as neighbours
    order = np.lexsort((run_dst, group))
    d_lo, g = run_dst[order], group[order]
    d_hi = d_lo + lens[order]
    clash = set(g[1:][(g[1:] == g[:-1]) & (d_lo[1:] < d_hi[:-1])].tolist())
    dedup = [g for g in clash if ufuncs[g] is None]
    if dedup:
        cut = np.searchsorted(run_off, bounds)  # group g: runs cut[g:g+2]
        parts = [(run_src[a:b], run_dst[a:b], lens[a:b])
                 for a, b in zip(cut[:-1], cut[1:])]
        for g in dedup:
            parts[g] = _keep_last(*parts[g])
        run_src, run_dst, lens = (np.concatenate(col) for col in zip(*parts))
        bounds = np.append(0, np.cumsum([int(part[2].sum()) for part in parts]))
        edges = bounds[np.append(np.searchsorted(firsts, phase_first), len(firsts))]
        run_off = np.cumsum(lens) - lens

    # split runs and write groups by phase
    writes: list[list[_Write]] = [[] for _ in phases]
    phase_of = np.searchsorted(phase_first, firsts, "right") - 1
    for g, (j, ufunc, a, b) in enumerate(zip(
        phase_of.tolist(), ufuncs, bounds[:-1].tolist(), bounds[1:].tolist()
    )):
        if b > a:
            base = int(edges[j])
            writes[j].append(_Write(slice(a - base, b - base), ufunc,
                                    ufunc is None or g not in clash))
    at = np.searchsorted(run_off, edges)  # phase j: runs at[j] .. at[j + 1]
    live = np.flatnonzero(moved)
    narrow = np.minimum.reduceat(lens, at[live])
    wide = np.maximum.reduceat(lens, at[live])
    width = dict(zip(live.tolist(), np.where(narrow == wide, narrow, 0).tolist()))
    out = []
    for j, (a, b) in enumerate(zip(at[:-1].tolist(), at[1:].tolist())):
        if j not in width:
            out.append((None, 0))
            continue
        # uniform runs need no lengths; copied so no view pins the batch's
        phase_lens = None if width[j] else lens[a:b].copy()
        phase = _Phase(run_src[a:b], run_dst[a:b], width[j], phase_lens,
                       tuple(writes[j]))
        out.append((phase, int(moved[j])))
    return out


def _runs(src_runs: tuple, dst_runs: tuple, bounds: np.ndarray):
    """Merged block runs ``(src starts, dst starts, lengths)`` of a batch,
    from each side's :meth:`_Side.runs`.

    ``bounds`` are the write groups' staged element offsets, ending with the
    total; no run crosses a group start.
    """
    total = int(bounds[-1])
    (s_start, s_len), (d_start, d_len) = src_runs, dst_runs
    if np.array_equal(s_len, d_len):
        # the common case: both sides split alike, runs are the segments
        run_src, run_dst, lens = s_start, d_start, s_len
    else:
        # cut at the union of source, destination and group boundaries
        s_off, d_off = np.cumsum(s_len) - s_len, np.cumsum(d_len) - d_len
        cuts = sorted_unique(np.concatenate((s_off, d_off, bounds[:-1])))
        cuts = cuts[cuts < total]
        lens = np.diff(np.append(cuts, total))
        i = np.searchsorted(s_off, cuts, "right") - 1
        j = np.searchsorted(d_off, cuts, "right") - 1
        run_src = s_start[i] + (cuts - s_off[i])
        run_dst = d_start[j] + (cuts - d_off[j])
    starts = bounds[:-1][bounds[:-1] < total]
    fixed = np.zeros(lens.size, dtype=bool)
    fixed[np.searchsorted(np.cumsum(lens) - lens, starts)] = True
    return _merge(run_src, run_dst, lens, fixed)


def _local_phases(ops: tuple[LocalCopy, ...], where: str) -> list:
    """Sequential local copies → phases ``(where, True, copies)``.

    Consecutive copies share one gather/scatter phase while they share a
    reduce op and touch pairwise-distinct ranks; a repeated rank (or an op
    change) starts a new phase, preserving the reference executor's
    sequential semantics.
    """
    phases = []
    start = 0
    cur_op: object = None
    cur_ranks: set[int] = set()
    for i, op in enumerate(ops):
        if i > start and (op.op != cur_op or op.rank in cur_ranks):
            phases.append((where, True, ops[start:i]))
            start = i
        if i == start:
            cur_op, cur_ranks = op.op, set()
        cur_ranks.add(op.rank)
    if ops:
        phases.append((where, True, ops[start:]))
    return phases


def _where(i: int, label: str) -> str:
    return f"step {i}" + (f" [{label}]" if label else "")


def _permute(every: EveryRank, part: tuple, p: int) -> tuple:
    """``part``, the lowering of ``every``'s copy on rank 0, as the phase
    running it on every rank and the elements that moves."""
    phase, moved = part
    if phase is None:
        return None, 0
    # rank 0's flat positions are its columns
    src, dst = (_positions(starts, phase.width, phase.lens) for starts in (phase.src, phase.dst))
    return _Permute(every.copy, src, dst, phase.writes), moved * p


def _rotation_step(rot: BlockRotation, layout: BufferLayout) -> _StepPlan:
    """The steps of ``rot``, whose step 0 lowered cleanly, as one phase."""
    ph, lens = rot.phase, np.diff(rot.edges)

    def row_start(ranks: np.ndarray, buf: str) -> np.ndarray:
        return ranks * layout.total + layout.offsets[buf]

    ufunc = None if ph.op is None else _ufunc_for(ph.op)
    comm = tuple(int(lens[(rot.block - k) % lens.size].sum()) for k in range(rot.reps))
    rotation = _Rotation(rot, row_start(ph.src, ph.src_buf), row_start(ph.dst, ph.dst_buf),
                         (_Write(slice(None), ufunc, True),))
    return _StepPlan((rotation,), comm)


def _plan_steps(p: int, layout: BufferLayout, steps, columns, cap: int) -> CompiledPlan:
    """Lower ``steps`` into a plan, whole steps per batch.

    ``steps`` yields, per step, its phases ``(where, local, payload)`` as
    ``pre``, transfer and ``post`` lists, its size and transfer count, and
    the :class:`BlockRotation` it stands for step 0 of (``None``: a plain
    step); a batch closes once its sizes reach ``cap``.
    ``columns(layout, phases)`` is the front end reading a batch's
    payloads; an :class:`EveryRank` payload lowers as its copy on rank 0.
    A failed batch raises only once ``steps`` is exhausted, so
    an error the step source raises while rendering a later step comes
    first, as it would while building a schedule.
    """
    pending: list = []  # phases not yet lowered
    pending_size = transfers_run = 0
    lowered: list = []
    shape: list[tuple] = []  # per step: pre, transfers?, post, rotation
    failure: Exception | None = None

    def lower() -> None:
        nonlocal failure
        if failure is None:
            try:
                parts = _lower_columns(layout, p, [
                    (where, local, ph.copy if isinstance(ph, EveryRank) else ph)
                    for where, local, ph in pending
                ], columns)
            except Exception as exc:  # re-raised once the steps are drained
                failure = exc
                return
            lowered.extend(
                _permute(ph, part, p) if isinstance(ph, EveryRank) else part
                for (_, _, ph), part in zip(pending, parts)
            )

    for pre, xfer, post, size, transfers, rotation in steps:
        pending += pre + xfer + post
        pending_size += size
        transfers_run += transfers
        shape.append((len(pre), bool(xfer), len(post), rotation))
        if pending_size >= cap:
            lower()
            pending, pending_size = [], 0
    if pending:
        lower()
    if failure is not None:
        raise failure

    plan_steps: list[_StepPlan] = []
    local_elems = 0
    at = 0
    for n_pre, has_xfer, n_post, rotation in shape:
        n = n_pre + has_xfer + n_post
        parts = lowered[at:at + n]
        at += n
        if rotation is not None:
            plan_steps.append(_rotation_step(rotation, layout))
            continue
        comm = parts[n_pre][1] if has_xfer else 0
        local_elems += sum(moved for _, moved in parts) - comm
        plan_steps.append(_StepPlan(
            tuple(phase for phase, _ in parts if phase is not None), (comm,)
        ))
    return CompiledPlan(
        p=p,
        layout=layout,
        steps=tuple(plan_steps),
        transfers_run=transfers_run,
        local_elems=local_elems,
    )


def compile_plan(schedule: Schedule, layout: BufferLayout | None = None) -> CompiledPlan:
    """Lower a schedule into a :class:`CompiledPlan`.

    ``layout`` defaults to :meth:`BufferLayout.for_schedule` — the columnar
    equivalent of what :func:`repro.collectives.verify.init_buffers`
    allocates.  Compilation validates ranks, segment bounds, and transfer
    size balance (the checks the reference executor performs while running),
    so a plan that compiles executes without further checks.

    Example::

        >>> from repro.collectives.registry import build
        >>> plan = compile_plan(build("bcast", "bine", 8, 8))
        >>> plan.num_steps
        3
    """
    p = schedule.p
    if p <= 0:
        raise ScheduleError("schedule needs p > 0")
    layout = layout or BufferLayout.for_schedule(schedule)

    def steps():
        for i, step in enumerate(schedule.steps):
            where = _where(i, step.label)
            xfer = [(where, False, step.transfers)] if step.transfers else []
            yield (
                _local_phases(step.pre, where), xfer, _local_phases(step.post, where),
                len(step.pre) + len(step.transfers) + len(step.post),
                len(step.transfers), None,
            )

    return _plan_steps(p, layout, steps(), _object_columns, _BATCH_ITEMS)


def _segments(ph: ArrayPhase | EveryRank) -> int:
    """Segments a local-copy batch adds to a lowering pass."""
    return (ph.copy if isinstance(ph, EveryRank) else ph).lo.size


def _replays(rot: BlockRotation, layout: BufferLayout) -> bool:
    """Whether every step of ``rot`` lowers as its step 0 does, rotated.

    That holds with one segment per item, the same at both ends, every
    block inside both buffers, and each destination rank taking distinct
    blocks: no step then overlaps its writes, so none keeps a last write,
    collides on a reduce or fails validation where step 0 passes.
    """
    ph, edges = rot.phase, rot.edges
    if rot.reps < 1 or not ph.src.size or ph.dst_segments is not None or (ph.counts != 1).any():
        return False
    width = min(layout.widths.get(ph.src_buf, -1), layout.widths.get(ph.dst_buf, -1))
    if edges[0] < 0 or edges[-1] > width or (np.diff(edges) < 0).any():
        return False
    count = edges.size - 1
    key = np.sort(ph.dst * count + rot.block % count)
    return bool((key[1:] != key[:-1]).all())


def plan_from_arrays(
    p: int, meta: dict, steps: Iterable[ArrayStep | BlockRotation], buffers=("vec",)
) -> tuple[Schedule, CompiledPlan]:
    """The plan of ``schedule_from_arrays(p, meta, steps)``, with no schedule.

    Returns the steps-free schedule stub (``p`` and ``meta`` only, what
    verification reads) and a plan equal to compiling the built schedule
    once its compact phases are written out (:meth:`CompiledPlan.expanded`):
    both front ends feed one back end.  A :class:`BlockRotation` whose
    steps all lower alike becomes one rotation phase, and an
    :class:`EveryRank` copy one permutation phase.  ``buffers`` names every
    buffer the steps touch (``meta["n"]`` elements each).  The checks
    building would run still run: what making a step's :class:`Transfer`
    objects raises (:meth:`ArrayPhase.check_transfers`) raises at its step
    and, with schedule validation on, :meth:`Schedule.finalize`'s
    rank-range and overlapping-write checks raise for the first failing
    step once every step has rendered.  ``steps`` is consumed lazily, a
    batch at a time.
    """
    if p <= 0:
        raise ScheduleError("schedule needs p > 0")
    try:
        layout, layout_error = BufferLayout({name: meta["n"] for name in buffers}), None
    except ValueError as exc:  # raised after any error building would raise
        layout, layout_error = None, exc
    validate = validation_enabled()

    def entries():
        """Each step with the rotation it stands for, if any."""
        for item in steps:
            if not isinstance(item, BlockRotation):
                yield item, None
            elif layout is not None and _replays(item, layout):
                yield item.step(0), item
            else:
                yield from ((step, None) for step in item)

    def phases():
        invalid = None
        i = 0
        for step, rotation in entries():
            reps = 1 if rotation is None else rotation.reps
            where = _where(i, step.label)
            i += reps
            xfer, transfers, segments = [], 0, 0
            if step.transfers is not None and step.transfers.src.size:
                ph = step.transfers
                ph.check_transfers()
                if validate and invalid is None:
                    invalid = ph.finalize_error(p, step.label)
                xfer, transfers, segments = [(where, False, ph)], ph.src.size, ph.lo.size
            yield (
                [(where, True, ph) for ph in step.pre], xfer,
                [(where, True, ph) for ph in step.post],
                segments + sum(_segments(ph) for ph in step.pre + step.post),
                transfers * reps, rotation,
            )
        if invalid is not None:
            raise invalid

    if layout_error is not None:
        for _ in phases():
            pass
        raise layout_error
    plan = _plan_steps(p, layout, phases(), _array_columns, _BATCH_SEGMENTS)
    return Schedule(p=p, steps=[], meta=dict(meta)), plan
