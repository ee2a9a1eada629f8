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
lowers the verifier's plan from those rounds, and the sweep table from
their element and segment counts (Sparbit's in closed form, so its
``Θ(p²)`` per-block segments are made only to build or plan).
"""

from __future__ import annotations

from functools import partial

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


def _per_block(src: np.ndarray, c: int, edge: np.ndarray) -> tuple:
    """One segment per block of each circular range ``[src, src + c)``."""
    blocks = ((src[:, None] + np.arange(c)) % src.size).ravel()
    return np.full(src.size, c), edge[blocks], edge[blocks + 1]


def _round_steps(p: int, n: int, name: str, per_block: bool):
    """The rounds as arrays: in round ``k``, ``(h, c)``, rank ``r`` pulls
    ``src = (r + h) mod p``'s first ``c`` blocks ``[src, src + c)`` into
    the same slots, one segment per block in circular order (Sparbit:
    counted in closed form, its ``p · c`` segments made only when read)
    or coalesced as ``Partition.segments`` does (Bruck, ≤ 2 per send)."""
    ranks = np.arange(p)
    edge = block_edges(n, p)
    for k, (h, c) in enumerate(_rounds(p)):
        src, tag = (ranks + h) % p, f"{name}[{k}]"
        if per_block:
            end = src + c  # the range wraps past block p − 1 where end > p
            nelems = edge[np.minimum(end, p)] - edge[src] + edge[np.maximum(end - p, 0)]
            phase = ArrayPhase(src, ranks, nelems, np.full(p, c),
                               partial(_per_block, src, c, edge), tag=tag)
        else:
            cut, lo, hi = wire_arrays(n, p, False, circular_bounds(src, c, p))
            phase = ArrayPhase.of(src, ranks, np.diff(cut), lo, hi, tag=tag)
        yield ArrayStep(f"{name} round {k}", phase)


def bruck_steps(p: int, n: int, name: str, per_block: bool):
    """``(meta, buffers, rounds)`` of either allgather, all in ``vec``."""
    meta = _meta(p, n, name)
    Partition(n, p)  # rejects a negative n
    return meta, {VEC}, _round_steps(p, n, name, per_block)

