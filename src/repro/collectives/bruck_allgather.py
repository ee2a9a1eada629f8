"""Bruck-family allgathers: Bruck and the Sparbit baseline (Sec. 5, [37]).

Bruck's allgather doubles the held circular block range each round by
pulling from ``(r + h) mod p`` — ``⌈log2 p⌉`` rounds for any ``p``.  Since
block ranges are circular, a send linearises to at most two wire segments.

Sparbit [Loch & Koslovski] is a data-locality-aware logarithmic allgather
whose defining cost trait, for our model, is that blocks keep their natural
(non-rotated) placement, so late rounds ship *scattered* block sets: we
reproduce that by running the Bruck round structure with per-block wire
segments.  (The paper uses Sparbit purely as a non-contiguous log-time
baseline, which this captures; exact send ordering internals differ.)
"""

from __future__ import annotations

import numpy as np

from repro.core.blocks import CircularRange, Partition
from repro.collectives.butterfly_collectives import step_table
from repro.collectives.common import VEC
from repro.runtime.schedule import Schedule, Step, Transfer

__all__ = ["allgather_bruck", "allgather_sparbit"]


def _rounds(p: int):
    """Bruck round plan: yields (held_count, pulled_count) until all held."""
    h = 1
    while h < p:
        c = min(h, p - h)
        yield h, c
        h += c


def _meta(p: int, n: int, name: str) -> dict:
    """Schedule meta of either allgather; rejects ``p < 1``."""
    if p < 1:
        raise ValueError("p must be positive")
    return {"collective": "allgather", "algorithm": name, "p": p, "n": n}


def _build(p: int, n: int, name: str, per_block: bool) -> Schedule:
    sched = Schedule(p, meta=_meta(p, n, name))
    part = Partition(n, p)
    for k, (h, c) in enumerate(_rounds(p)):
        transfers = []
        for r in range(p):
            src = (r + h) % p
            # r pulls src's first c blocks [src, src+c) into the same slots.
            blocks = CircularRange(src, c, p).indices()
            if per_block:
                segs = tuple(part.bounds(b) for b in blocks)
            else:
                segs = tuple(part.segments(blocks))
            transfers.append(
                Transfer(
                    src=src, dst=r, src_buf=VEC, dst_buf=VEC,
                    src_segments=segs, dst_segments=segs,
                    tag=f"{name}[{k}]",
                )
            )
        sched.add(Step(transfers=tuple(transfers), label=f"{name} round {k}"))
    return sched.finalize()


def _table(p: int, name: str, per_block: bool):
    """The sweep table of :func:`_build` at ``n = p``: round ``(h, c)`` pulls
    ``c`` elements from ``(r + h) mod p``, in two segments where the range
    wraps (Bruck) or in ``c`` (Sparbit)."""
    meta, ranks = _meta(p, p, name), np.arange(p)
    steps = []
    for h, c in _rounds(p):
        src = (ranks + h) % p
        steps.append((src, ranks, c, c if per_block else 1 + (src + c > p), False))
    return step_table(meta, steps)


def allgather_bruck(p: int, n: int) -> Schedule:
    """Bruck allgather (any ``p``): ⌈log2 p⌉ rounds, ≤ 2 segments per send."""
    return _build(p, n, "bruck", per_block=False)


def allgather_sparbit(p: int, n: int) -> Schedule:
    """Sparbit-like allgather: Bruck rounds with per-block (scattered) sends."""
    return _build(p, n, "sparbit", per_block=True)

