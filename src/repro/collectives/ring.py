"""Ring and linear baselines (paper Sec. 5: ring allreduce, linear algorithms).

Ring algorithms move one block to a neighbour per step for ``p − 1`` steps:
bandwidth-optimal and perfectly local, but linear in step count — the
regime where the paper shows Bine winning on small/medium vectors and large
node counts (Fig. 9a/10a).  Linear (flat) gather/scatter/alltoall send every
block directly and model the "linear algorithms often outperform logarithmic
ones at small scale" effect (Sec. 5.3.2).
"""

from __future__ import annotations

import numpy as np

from repro.core.blocks import Partition
from repro.collectives.butterfly_collectives import step_table
from repro.collectives.common import VEC
from repro.runtime.schedule import Schedule, Step, Transfer

__all__ = [
    "ring_reduce_scatter",
    "ring_allgather",
    "ring_allreduce",
    "ring_reduce_scatter_table",
    "ring_allgather_table",
    "ring_allreduce_table",
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


def _ring_pass(p: int, n: int, shift: int, op: str | None, tag: str) -> list:
    """The ``p − 1`` steps of one ring pass: at step ``k`` rank ``r``
    forwards block ``(r − shift − k) mod p`` to ``r + 1``."""
    part = Partition(n, p)
    return [
        Step(transfers=tuple(
            Transfer(
                src=r, dst=(r + 1) % p, src_buf=VEC, dst_buf=VEC,
                src_segments=_seg(part, (r - shift - k) % p),
                dst_segments=_seg(part, (r - shift - k) % p),
                op=op, tag=f"ring-{tag}[{k}]",
            )
            for r in range(p)
        ), label=f"ring {tag} step {k}")
        for k in range(p - 1)
    ]


def ring_reduce_scatter(p: int, n: int, op: str = "sum") -> Schedule:
    """Ring reduce-scatter: rank ``r`` ends holding reduced block ``r``.

    At step ``k`` rank ``r`` forwards its running partial of block
    ``(r − 1 − k) mod p`` to ``r + 1`` and reduces the incoming partial of
    block ``(r − 2 − k) mod p``.
    """
    sched = Schedule(p, meta=_meta("reduce_scatter", p, n, op=op))
    sched.steps = _ring_pass(p, n, 1, op, "rs")
    return sched.finalize()


def ring_allgather(p: int, n: int) -> Schedule:
    """Ring allgather: each rank starts with block ``r``, ends with all."""
    sched = Schedule(p, meta=_meta("allgather", p, n))
    sched.steps = _ring_pass(p, n, 0, None, "ag")
    return sched.finalize()


def ring_allreduce(p: int, n: int, op: str = "sum") -> Schedule:
    """Ring allreduce = ring reduce-scatter + ring allgather (NCCL-style)."""
    # Rings inherently pipeline fine-grained chunks (Sec. 5.2.2).
    sched = Schedule(p, meta=_meta("allreduce", p, n, op=op, segmented=True))
    sched.steps = _ring_pass(p, n, 1, op, "rs") + _ring_pass(p, n, 0, None, "ag")
    return sched.finalize()


def ring_reduce_scatter_table(p: int):
    """The sweep table of :func:`ring_reduce_scatter` at ``n = p``: one
    step row run ``p − 1`` times."""
    meta = _meta("reduce_scatter", p, p, op="sum")
    return step_table(meta, [_table_pass(p, True)], reps=[p - 1])


def ring_allgather_table(p: int):
    """The sweep table of :func:`ring_allgather` at ``n = p``: one step
    row run ``p − 1`` times."""
    meta = _meta("allgather", p, p)
    return step_table(meta, [_table_pass(p, False)], reps=[p - 1])


def ring_allreduce_table(p: int):
    """The sweep table of :func:`ring_allreduce` at ``n = p``: the
    reduce-scatter row then the allgather row, each run ``p − 1`` times."""
    meta = _meta("allreduce", p, p, op="sum", segmented=True)
    steps = [_table_pass(p, True), _table_pass(p, False)]
    return step_table(meta, steps, reps=[p - 1] * 2)


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
