"""Ground-truth verification of collective schedules against NumPy.

Every schedule carries ``meta["collective"]``; this module knows, for each of
the paper's eight collectives, how to initialise per-rank buffers with
deterministic rank-dependent data and what the post-condition is.  The
executor runs the schedule and :func:`check` compares outcomes elementwise —
the exact observable an MPI correctness test would assert.

Two execution engines share the oracle:

* :func:`run_and_check` — the reference interpreter
  (:func:`repro.runtime.executor.execute`), one seed at a time;
* :func:`run_and_check_compiled` — the columnar fast path
  (:mod:`repro.runtime.compiled`): compile the schedule once, execute *all*
  seeds in one batched pass, check each layer.  :func:`compiled_plan_for`
  makes one cell's plan, so grid-scale verification amortizes compilation
  across seeds; entries with a ``steps`` hook get theirs from their
  step arrays, without a schedule ever being built.  Plans are not
  memoized: a grid visits each cell once, and holds one plan at a time.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.core.blocks import Partition
from repro.runtime.buffers import RankBuffers
from repro.runtime.compiled import (
    BufferLayout,
    CompiledPlan,
    buffers_used,
    compile_plan,
    matrix_to_buffers,
    plan_from_arrays,
)
from repro.runtime.executor import execute
from repro.runtime.memo import Memo
from repro.runtime.reduce_ops import named_op
from repro.runtime.schedule import Schedule

__all__ = [
    "init_buffers",
    "init_matrix",
    "expected_state",
    "check",
    "check_matrix",
    "run_and_check",
    "run_and_check_compiled",
    "compiled_plan_for",
]

_DTYPE = np.int64


def _pattern(rank: int, n: int, seed: int) -> np.ndarray:
    """Deterministic per-rank input vector (distinct across ranks/elements)."""
    rng = np.random.default_rng(seed * 100003 + rank)
    return rng.integers(-1000, 1000, size=n, dtype=_DTYPE)


#: stacked per-rank patterns, memoized per (p, n, seed) — one grid cell's
#: init *and* expected-state share a single generation pass, and cells of a
#: bulk verification sharing (p, n, seed) share it too.  Entries are
#: read-only by convention; bounded FIFO keeps 1024-rank tables from
#: accumulating.
_PATTERN_CACHE = Memo("verify._PATTERN_CACHE", maxsize=16, counter="pattern")


def _patterns(p: int, n: int, seed: int) -> np.ndarray:
    """``(p, n)`` matrix whose row ``r`` is ``_pattern(r, n, seed)``."""

    def generate() -> np.ndarray:
        pats = np.vstack([_pattern(r, n, seed) for r in range(p)])
        # freeze the entry: expected_state hands out views of it, and a
        # caller mutating one must get a loud error, not a corrupted cache
        pats.setflags(write=False)
        return pats

    return _PATTERN_CACHE.get_or((p, n, seed), generate)


def _buffers_used(schedule: Schedule) -> set[str]:
    return buffers_used(schedule) or {"vec"}


def _reduce_all(op, patterns: np.ndarray) -> np.ndarray:
    """Fold all rank rows with ``op`` — identical to the sequential loop.

    Built-in ops are NumPy ufuncs over int64, so ``ufunc.reduce`` along the
    rank axis is associative-exact; non-ufunc ops fall back to the loop.
    """
    if isinstance(op.fn, np.ufunc):
        return op.fn.reduce(patterns, axis=0)
    acc = patterns[0].copy()
    for r in range(1, patterns.shape[0]):
        acc = op(acc, patterns[r])
    return acc


def _block_diagonal(patterns: np.ndarray, part: Partition) -> np.ndarray:
    """``full`` vector with block ``b`` taken from rank ``b``'s pattern."""
    p, n = patterns.shape
    if n % p == 0:
        b = n // p
        ranks = np.arange(p)
        return patterns.reshape(p, p, b)[ranks, ranks].reshape(n)
    full = np.zeros(n, dtype=patterns.dtype)
    for r in range(p):
        lo, hi = part.bounds(r)
        full[lo:hi] = patterns[r, lo:hi]
    return full


def init_buffers(schedule: Schedule, seed: int = 0) -> RankBuffers:
    """Allocate and fill buffers according to the collective's precondition."""
    p, n = schedule.p, schedule.meta["n"]
    layout = BufferLayout({name: n for name in _buffers_used(schedule)})
    matrix = init_matrix(schedule, layout, seed)
    bufs = RankBuffers(p)
    for name in layout.names:
        bufs.allocate(name, n, dtype=_DTYPE, fill=0)
    return matrix_to_buffers(matrix, layout, bufs)


def expected_state(schedule: Schedule, seed: int = 0):
    """Post-condition: list of ``(rank, buffer, element_range, expected)``.

    Expected arrays may be read-only views into the shared pattern cache
    (writing to one raises); copy before mutating.
    """
    coll = schedule.meta["collective"]
    p, n = schedule.p, schedule.meta["n"]
    root = schedule.meta.get("root", 0)
    op = named_op(schedule.meta.get("op", "sum"))
    part = Partition(n, p)
    inputs = _patterns(p, n, seed)
    out = []

    if coll == "bcast":
        for r in range(p):
            out.append((r, "vec", (0, n), inputs[root]))
    elif coll == "reduce":
        out.append((root, "vec", (0, n), _reduce_all(op, inputs)))
    elif coll == "allreduce":
        acc = _reduce_all(op, inputs)
        for r in range(p):
            out.append((r, "vec", (0, n), acc))
    elif coll == "reduce_scatter":
        acc = _reduce_all(op, inputs)
        for r in range(p):
            lo, hi = part.bounds(r)
            out.append((r, "vec", (lo, hi), acc[lo:hi]))
    elif coll == "gather":
        out.append((root, "vec", (0, n), _block_diagonal(inputs, part)))
    elif coll == "allgather":
        full = _block_diagonal(inputs, part)
        for r in range(p):
            out.append((r, "vec", (0, n), full))
    elif coll == "scatter":
        for r in range(p):
            lo, hi = part.bounds(r)
            out.append((r, "vec", (lo, hi), inputs[root][lo:hi]))
    elif coll == "alltoall":
        # data rank o addressed to r sits in o's send block r; with uniform
        # blocks, rank r's recv is column-block r of the pattern matrix
        if n % p == 0:
            for r in range(p):
                rlo, rhi = part.bounds(r)
                out.append((r, "recv", (0, n), inputs[:, rlo:rhi].reshape(n)))
        else:
            for r in range(p):
                recv = np.zeros(n, dtype=_DTYPE)
                rlo, rhi = part.bounds(r)
                for o in range(p):
                    lo, hi = part.bounds(o)
                    recv[lo:hi] = inputs[o, rlo:rhi]
                out.append((r, "recv", (0, n), recv))
    else:
        raise ValueError(f"unknown collective {coll!r}")
    return out


def _assert_cell(schedule, rank, name, lo, hi, got, want) -> None:
    if not np.array_equal(got, want):
        bad = np.nonzero(got != want)[0][:5]
        raise AssertionError(
            f"{schedule.meta}: rank {rank} buffer {name!r}[{lo}:{hi}] wrong "
            f"at offsets {bad.tolist()}: got {got[bad].tolist()}, "
            f"want {want[bad].tolist()}"
        )


def check(schedule: Schedule, buffers: RankBuffers, seed: int = 0) -> None:
    """Assert the executor left ``buffers`` in the expected post-state."""
    for rank, name, (lo, hi), want in expected_state(schedule, seed):
        _assert_cell(schedule, rank, name, lo, hi, buffers.get(rank, name)[lo:hi], want)


def check_matrix(
    schedule: Schedule, matrix: np.ndarray, layout: BufferLayout, seed: int = 0
) -> None:
    """:func:`check` against a compiled-executor buffer matrix."""
    for rank, name, (lo, hi), want in expected_state(schedule, seed):
        off = layout.offsets[name]
        _assert_cell(
            schedule, rank, name, lo, hi, matrix[rank, off + lo : off + hi], want
        )


def run_and_check(schedule: Schedule, seed: int = 0) -> RankBuffers:
    """Initialise, execute, verify; returns the final buffers."""
    bufs = init_buffers(schedule, seed)
    execute(schedule, bufs)
    check(schedule, bufs, seed)
    return bufs


# -- compiled fast path ------------------------------------------------------


def init_matrix(
    schedule: Schedule, layout: BufferLayout, seed: int = 0
) -> np.ndarray:
    """The collective's precondition as a ``(p, layout.total)`` matrix.

    This is the single source of truth for input data — :func:`init_buffers`
    unpacks it into a :class:`RankBuffers` — and fills whole column slices
    with vectorized writes.  Buffers come from the layout's names (not the
    schedule's steps), so a metadata-only stub from
    :func:`compiled_plan_for` works.
    """
    coll = schedule.meta["collective"]
    p, n = schedule.p, schedule.meta["n"]
    root = schedule.meta.get("root", 0)
    matrix = np.zeros((p, layout.total), dtype=_DTYPE)

    def view(name: str) -> np.ndarray:
        off = layout.offsets[name]
        return matrix[:, off : off + n]

    if coll in ("bcast", "scatter"):
        view("vec")[root] = _patterns(p, n, seed)[root]
    elif coll in ("reduce", "allreduce", "reduce_scatter"):
        view("vec")[:] = _patterns(p, n, seed)
    elif coll in ("gather", "allgather"):
        pats = _patterns(p, n, seed)
        part = Partition(n, p)
        vec = view("vec")
        if n % p == 0:
            # build into a contiguous scratch (vec may be a column view whose
            # reshape would silently copy), then assign through the view
            b = n // p
            ranks = np.arange(p)
            tmp = np.zeros((p, n), dtype=_DTYPE)
            tmp.reshape(p, p, b)[ranks, ranks] = pats.reshape(p, p, b)[ranks, ranks]
            vec[:] = tmp
        else:
            for r in range(p):
                lo, hi = part.bounds(r)
                vec[r, lo:hi] = pats[r, lo:hi]
    elif coll == "alltoall":
        view("send")[:] = _patterns(p, n, seed)
    else:
        raise ValueError(f"unknown collective {coll!r}")
    return matrix


def run_and_check_compiled(
    schedule: Schedule,
    seeds: tuple[int, ...] = (0,),
    plan: CompiledPlan | None = None,
) -> np.ndarray:
    """Compile once, execute every seed in one batched pass, verify each.

    Returns the ``(len(seeds), p, total)`` stack of final buffer matrices
    (layer ``i`` is seed ``seeds[i]``), so callers can diff against the
    reference executor.  Pass a pre-compiled ``plan`` (e.g. from
    :func:`compiled_plan_for`) to amortize compilation across calls.
    """
    if plan is None:
        plan = compile_plan(schedule)
    matrices = np.stack(
        [init_matrix(schedule, plan.layout, seed) for seed in seeds]
    )
    plan.execute_batch(matrices)
    for i, seed in enumerate(seeds):
        check_matrix(schedule, matrices[i], plan.layout, seed)
    return matrices


def compiled_plan_for(
    collective: str,
    algorithm: str,
    p: int,
    n: int,
    root: int = 0,
    op: str = "sum",
) -> tuple[Schedule, CompiledPlan]:
    """``(schedule stub, plan)`` for one registry cell, made on every call.

    The returned schedule is a **steps-free stub** carrying only ``p`` and
    ``meta``: everything :func:`init_matrix` / :func:`check_matrix` /
    :func:`run_and_check_compiled` need.  An entry with a ``steps`` hook
    (every entry but the three bcast trees and alltoall) lowers the plan
    straight from its step arrays and never builds a schedule (millions
    of ``Transfer`` objects for a 1024-rank ring).  The bcast trees build
    through a ``builder`` over the same tree steps instead, so
    verification keeps one cheap entry on the build → compile path that
    ``benchmarks/perf``'s ``verify_grid`` workload times; they and
    alltoall build, are compiled, and drop the step list right after.
    Either way the plan, its compact phases written out
    (:meth:`CompiledPlan.expanded`), is the one ``compile_plan(build(...))``
    gives.

    Example::

        >>> sched, plan = compiled_plan_for("bcast", "bine", 8, 8)
        >>> plan.num_steps, sched.num_steps  # stub drops the step list
        (3, 0)
    """
    from repro.collectives.registry import spec_for

    spec = spec_for(collective, algorithm)
    span = {"collective": collective, "algorithm": algorithm, "p": p}
    if spec.steps is not None:
        with obs.span("lower.plan", **span, n=n):
            meta, buffers, steps = spec.steps(p, n, root, op)
            return plan_from_arrays(p, meta, steps, buffers)
    with obs.span("schedule.build", **span):
        schedule = spec.build(p, n, root, op)
    stub = Schedule(p=schedule.p, steps=[], meta=dict(schedule.meta))
    with obs.span("lower.plan", **span, n=n):
        return stub, compile_plan(schedule)
