"""Ring and linear baselines (paper Sec. 5: ring allreduce, linear algorithms).

Ring algorithms move one block to a neighbour per step for ``p − 1`` steps:
bandwidth-optimal and perfectly local, but linear in step count — the
regime where the paper shows Bine winning on small/medium vectors and large
node counts (Fig. 9a/10a).  Linear (flat) gather/scatter/alltoall send every
block directly and model the "linear algorithms often outperform logarithmic
ones at small scale" effect (Sec. 5.3.2).

A ring pass is described once, as a block rotation of one step's arrays
(:func:`ring_pass`): its executor schedule, its verifier plan
(:func:`ring_plan`, one phase per pass), the torus bucket algorithm's
per-line rings and, at ``n = p``, its sweep table (:func:`ring_table`,
one row run ``p − 1`` times) all read the same ``r → r + 1`` rank arrays.
"""

from __future__ import annotations

import numpy as np

from repro.core.blocks import Partition
from repro.collectives.butterfly_collectives import block_edges, step_table
from repro.collectives.common import VEC
from repro.runtime.compiled import plan_from_arrays
from repro.runtime.schedule import (
    ArrayPhase,
    BlockRotation,
    Schedule,
    Step,
    Transfer,
    schedule_from_arrays,
)

__all__ = [
    "ring_reduce_scatter",
    "ring_allgather",
    "ring_allreduce",
    "ring_pass",
    "ring_plan",
    "ring_table",
    "linear_gather",
    "linear_scatter",
]


def _seg(part: Partition, block: int):
    return (part.bounds(block),)


def _meta(collective: str, p: int, n: int, **extra) -> dict:
    """Schedule meta of a ring; rejects ``p < 2``."""
    if p < 2:
        raise ValueError("ring needs p >= 2")
    return {"collective": collective, "algorithm": "ring", "p": p, "n": n, **extra}


def _table_pass(p: int, has_op: bool) -> tuple:
    """The ``r → r + 1`` table step that one ring pass runs ``p − 1`` times."""
    ranks = np.arange(p)
    return (ranks, (ranks + 1) % p, 1, 1, has_op)


def ring_pass(p: int, n: int, shift: int, op: str | None, tag: str) -> BlockRotation:
    """The ``p − 1`` steps of one ring pass over ``Partition(n, p)``: at
    step ``k`` rank ``r`` forwards block ``(r − shift − k) mod p`` to
    ``r + 1``.  A negative ``n`` raises on the call; iterating renders
    the steps as arrays."""
    Partition(n, p)
    src, dst, *_ = _table_pass(p, op is not None)
    edge = block_edges(n, p)
    block = (src - shift) % p
    first = ArrayPhase(src, dst, np.ones(p, dtype=np.intp), edge[block], edge[block + 1],
                       op=op, tag=f"ring-{tag}[{{k}}]")
    return BlockRotation(first, block, edge, p - 1, f"ring {tag} step {{k}}")


#: collective → (its passes as (shift, reduces?, tag), extra meta)
_RINGS = {
    "reduce_scatter": (((1, True, "rs"),), {}),
    "allgather": (((0, False, "ag"),), {}),
    # rings inherently pipeline fine-grained chunks (Sec. 5.2.2)
    "allreduce": (((1, True, "rs"), (0, False, "ag")), {"segmented": True}),
}


def _ring(collective: str, p: int, n: int, op: str, render):
    """``render(p, meta, steps)`` of a ring collective's passes."""
    passes, extra = _RINGS[collective]
    ops = {"op": op} if any(reduces for _, reduces, _ in passes) else {}
    meta = _meta(collective, p, n, **ops, **extra)
    return render(p, meta, [
        ring_pass(p, n, shift, op if reduces else None, tag)
        for shift, reduces, tag in passes
    ])


def ring_reduce_scatter(p: int, n: int, op: str = "sum") -> Schedule:
    """Ring reduce-scatter: rank ``r`` ends holding reduced block ``r``.

    At step ``k`` rank ``r`` forwards its running partial of block
    ``(r − 1 − k) mod p`` to ``r + 1`` and reduces the incoming partial of
    block ``(r − 2 − k) mod p``.
    """
    return _ring("reduce_scatter", p, n, op, schedule_from_arrays)


def ring_allgather(p: int, n: int) -> Schedule:
    """Ring allgather: each rank starts with block ``r``, ends with all."""
    return _ring("allgather", p, n, "sum", schedule_from_arrays)


def ring_allreduce(p: int, n: int, op: str = "sum") -> Schedule:
    """Ring allreduce = ring reduce-scatter + ring allgather (NCCL-style)."""
    return _ring("allreduce", p, n, op, schedule_from_arrays)


def ring_plan(collective: str, p: int, n: int, op: str = "sum"):
    """The verifier's ``(schedule stub, plan)`` of a ring collective, equal
    to compiling its built schedule, rendered from the same pass arrays."""
    return _ring(collective, p, n, op, plan_from_arrays)


def ring_table(collective: str, p: int):
    """The sweep table of a ring collective at ``n = p``: one step row per
    pass, each run ``p − 1`` times."""
    passes, extra = _RINGS[collective]
    reduces = [r for _, r, _ in passes]
    meta = _meta(collective, p, p, **({"op": "sum"} if any(reduces) else {}), **extra)
    return step_table(meta, [_table_pass(p, r) for r in reduces], reps=[p - 1] * len(passes))


def linear_gather(p: int, n: int, root: int = 0) -> Schedule:
    """Flat gather: every rank sends its block straight to the root."""
    part = Partition(n, p)
    transfers = tuple(
        Transfer(
            src=r, dst=root, src_buf=VEC, dst_buf=VEC,
            src_segments=_seg(part, r), dst_segments=_seg(part, r),
            tag="linear-gather",
        )
        for r in range(p)
        if r != root
    )
    sched = Schedule(
        p, meta={"collective": "gather", "algorithm": "linear", "p": p, "n": n, "root": root}
    )
    sched.add(Step(transfers=transfers, label="linear gather"))
    return sched.finalize()


def linear_scatter(p: int, n: int, root: int = 0) -> Schedule:
    """Flat scatter: the root sends each rank its block directly."""
    part = Partition(n, p)
    transfers = tuple(
        Transfer(
            src=root, dst=r, src_buf=VEC, dst_buf=VEC,
            src_segments=_seg(part, r), dst_segments=_seg(part, r),
            tag="linear-scatter",
        )
        for r in range(p)
        if r != root
    )
    sched = Schedule(
        p, meta={"collective": "scatter", "algorithm": "linear", "p": p, "n": n, "root": root}
    )
    sched.add(Step(transfers=transfers, label="linear scatter"))
    return sched.finalize()
