"""Ring and linear baselines (paper Sec. 5: ring allreduce, linear algorithms).

Ring algorithms move one block to a neighbour per step for ``p − 1`` steps:
bandwidth-optimal and perfectly local, but linear in step count — the
regime where the paper shows Bine winning on small/medium vectors and large
node counts (Fig. 9a/10a).  Linear (flat) gather/scatter/alltoall send every
block directly and model the "linear algorithms often outperform logarithmic
ones at small scale" effect (Sec. 5.3.2).

A ring pass is described once, as a block rotation of one step's arrays
(:func:`ring_pass`): :func:`ring_steps` hands a ring collective's passes
to the registry, which builds the executor's schedule from them and
lowers the verifier's plan (one phase per pass) and the sweep table (one
row run ``p − 1`` times) from them; the torus bucket algorithm runs one
pass per torus line.  A linear gather or scatter is one step of such
arrays (:func:`linear_steps`).
"""

from __future__ import annotations

import numpy as np

from repro.core.blocks import Partition
from repro.collectives.butterfly_collectives import block_edges
from repro.collectives.common import VEC
from repro.runtime.schedule import ArrayPhase, ArrayStep, BlockRotation

__all__ = [
    "ring_pass",
    "ring_steps",
    "linear_steps",
]


def _meta(collective: str, p: int, n: int, **extra) -> dict:
    """Schedule meta of a ring; rejects ``p < 2``."""
    if p < 2:
        raise ValueError("ring needs p >= 2")
    return {"collective": collective, "algorithm": "ring", "p": p, "n": n, **extra}


def ring_pass(p: int, n: int, shift: int, op: str | None, tag: str) -> BlockRotation:
    """The ``p − 1`` steps of one ring pass over ``Partition(n, p)``: at
    step ``k`` rank ``r`` forwards block ``(r − shift − k) mod p`` to
    ``r + 1``.  A negative ``n`` raises on the call; iterating renders
    the steps as arrays."""
    Partition(n, p)
    src = np.arange(p)
    dst = (src + 1) % p
    edge = block_edges(n, p)
    block = (src - shift) % p
    first = ArrayPhase.of(src, dst, np.ones(p, dtype=np.intp), edge[block], edge[block + 1],
                          op=op, tag=f"ring-{tag}[{{k}}]")
    return BlockRotation(first, block, edge, p - 1, f"ring {tag} step {{k}}")


#: collective → (its passes as (shift, reduces?, tag), extra meta)
_RINGS = {
    "reduce_scatter": (((1, True, "rs"),), {}),
    "allgather": (((0, False, "ag"),), {}),
    # rings inherently pipeline fine-grained chunks (Sec. 5.2.2)
    "allreduce": (((1, True, "rs"), (0, False, "ag")), {"segmented": True}),
}


def ring_steps(collective: str, p: int, n: int, op: str = "sum"):
    """``(meta, buffers, passes)`` of a ring collective: one
    :func:`ring_pass` per pass, all in ``vec``."""
    passes, extra = _RINGS[collective]
    ops = {"op": op} if any(reduces for _, reduces, _ in passes) else {}
    meta = _meta(collective, p, n, **ops, **extra)
    return meta, {VEC}, [
        ring_pass(p, n, shift, op if reduces else None, tag)
        for shift, reduces, tag in passes
    ]


def linear_steps(collective: str, p: int, n: int, root: int = 0):
    """``(meta, buffers, steps)`` of a flat gather or scatter: one step in
    which every other rank sends its block to ``root`` (gather) or
    ``root`` sends each rank its block (scatter)."""
    Partition(n, p)
    ranks = np.arange(p)
    others = ranks[ranks != root]
    edge = block_edges(n, p)
    ends = (others, np.full_like(others, root))
    src, dst = ends if collective == "gather" else ends[::-1]
    meta = {"collective": collective, "algorithm": "linear", "p": p, "n": n, "root": root}
    return meta, {VEC}, [ArrayStep(f"linear {collective}", ArrayPhase.of(
        src, dst, np.ones_like(others), edge[others], edge[others + 1],
        tag=f"linear-{collective}",
    ))]
