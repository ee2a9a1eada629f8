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

Both are described once, as one step of rank arrays per round
(:func:`bruck_steps`): the registry builds the executor's schedule and
lowers the verifier's plan and the sweep table from those rounds.
"""

from __future__ import annotations

import numpy as np

from repro.core.blocks import Partition
from repro.collectives.butterfly_collectives import (
    block_edges,
    circular_bounds,
    wire_arrays,
)
from repro.collectives.common import VEC
from repro.runtime.schedule import ArrayPhase, ArrayStep

__all__ = ["bruck_steps"]


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


def _round_steps(p: int, n: int, name: str, per_block: bool):
    """The rounds as arrays: in round ``k``, ``(h, c)``, rank ``r`` pulls
    ``src = (r + h) mod p``'s first ``c`` blocks ``[src, src + c)`` into
    the same slots, one segment per block in circular order (Sparbit) or
    coalesced as ``Partition.segments`` does (Bruck, ≤ 2 per send)."""
    ranks = np.arange(p)
    edge = block_edges(n, p)
    for k, (h, c) in enumerate(_rounds(p)):
        src = (ranks + h) % p
        if per_block:
            blocks = ((src[:, None] + np.arange(c)) % p).ravel()
            counts, lo, hi = np.full(p, c), edge[blocks], edge[blocks + 1]
        else:
            cut, lo, hi = wire_arrays(n, p, False, circular_bounds(src, c, p))
            counts = np.diff(cut)
        yield ArrayStep(f"{name} round {k}", ArrayPhase(
            src, ranks, counts, lo, hi, tag=f"{name}[{k}]",
        ))


def bruck_steps(p: int, n: int, name: str, per_block: bool):
    """``(meta, buffers, rounds)`` of either allgather, all in ``vec``."""
    meta = _meta(p, n, name)
    Partition(n, p)  # rejects a negative n
    return meta, {VEC}, _round_steps(p, n, name, per_block)

