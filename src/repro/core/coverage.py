"""Block-responsibility ("coverage") sets for butterfly collectives.

In a recursive-halving reduce-scatter run on any butterfly, each rank starts
responsible for all ``p`` blocks and halves its responsibility every step,
ending with exactly its own block.  The invariant (Sec. 4.3 of the paper,
generalised to any matching family) is::

    resp(r, num_steps) = {r}
    resp(r, j)         = resp(r, j+1)  ⊎  resp(partner(r, j), j+1)

where ``resp(r, j)`` is the block set rank ``r`` holds *before* step ``j``.
At step ``j`` rank ``r`` keeps ``resp(r, j+1)`` and sends its partial sums
for ``resp(partner, j+1)`` — the blocks on the partner's side.

The same sets, read in reverse step order, drive the allgather (blocks held
*grow*), and element-wise routing of alltoall.

Two implementations are provided and cross-checked in tests:

* :func:`responsibility` — generic memoised recursion, valid for *any*
  butterfly (recursive doubling/halving, Bine, Swing);
* :func:`bine_dd_responsibility` — the paper's closed form for the
  distance-doubling Bine butterfly via ν masks (Sec. 3.2.3): rank 0 keeps the
  blocks whose ν label has the ``j`` least-significant bits clear, even rank
  ``r`` sees that set translated by ``+r``, odd ranks mirrored as ``r − ·``.
"""

from __future__ import annotations

import numpy as np

from repro.core.bine_tree import nu_labels
from repro.core.butterfly import Butterfly
from repro.core.negabinary import ones_mask

__all__ = [
    "responsibility",
    "send_blocks",
    "keep_blocks",
    "bine_dd_responsibility",
    "recdoub_responsibility",
    "rechalv_responsibility",
    "count_segments",
    "count_segments_circular",
    "segments_of",
]


def _cache_of(bf: Butterfly) -> dict:
    cache = getattr(bf, "_resp_cache", None)
    if cache is None:
        cache = {}
        object.__setattr__(bf, "_resp_cache", cache)
    return cache


def responsibility(bf: Butterfly, rank: int, step: int) -> frozenset[int]:
    """Blocks rank ``rank`` is responsible for *before* step ``step``.

    ``step`` ranges from 0 (everything: all ``p`` blocks) to
    ``bf.num_steps`` (only ``{rank}``).
    """
    if not 0 <= rank < bf.p:
        raise ValueError(f"rank {rank} out of range for p={bf.p}")
    if not 0 <= step <= bf.num_steps:
        raise ValueError(f"step {step} out of range")
    cache = _cache_of(bf)
    key = (rank, step)
    if key in cache:
        return cache[key]
    # Iterative worklist to avoid deep recursion at large p.
    stack = [key]
    while stack:
        r, j = stack[-1]
        if (r, j) in cache:
            stack.pop()
            continue
        if j == bf.num_steps:
            cache[(r, j)] = frozenset((r,))
            stack.pop()
            continue
        q = bf.partner(r, j)
        need = [(r, j + 1), (q, j + 1)]
        missing = [k for k in need if k not in cache]
        if missing:
            stack.extend(missing)
            continue
        own, other = cache[need[0]], cache[need[1]]
        if own & other:
            raise AssertionError(
                f"{bf.kind}: responsibility sets overlap at rank {r} step {j}"
            )
        cache[(r, j)] = own | other
        stack.pop()
    return cache[key]


def send_blocks(bf: Butterfly, rank: int, step: int) -> frozenset[int]:
    """Blocks ``rank`` sends to its partner at ``step`` of a reduce-scatter."""
    return responsibility(bf, bf.partner(rank, step), step + 1)


def keep_blocks(bf: Butterfly, rank: int, step: int) -> frozenset[int]:
    """Blocks ``rank`` keeps across ``step`` of a reduce-scatter."""
    return responsibility(bf, rank, step + 1)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def bine_dd_responsibility(p: int, rank: int, step: int) -> frozenset[int]:
    """Closed-form responsibility for the distance-doubling Bine butterfly.

    ``resp(0, j) = {b : ν(b) & ones(j) == 0}``; even ranks translate the set
    (``b ↦ (b + r) mod p``), odd ranks mirror it (``b ↦ (r − b) mod p``) —
    the even/odd asymmetry mirrors Eq. 5's sign rule.
    """
    base = np.flatnonzero((nu_labels(p) & ones_mask(step)) == 0).tolist()
    if rank % 2 == 0:
        return frozenset((b + rank) % p for b in base)
    return frozenset((rank - b) % p for b in base)


def recdoub_responsibility(p: int, rank: int, step: int) -> frozenset[int]:
    """Closed form for recursive doubling: share the ``step`` low bits."""
    mask = ones_mask(step)
    return frozenset(b for b in range(p) if (b ^ rank) & mask == 0)


def rechalv_responsibility(p: int, rank: int, step: int) -> frozenset[int]:
    """Closed form for recursive halving: share the ``step`` high bits.

    These sets are aligned contiguous ranges — the reason binomial
    reduce-scatter always transmits contiguous memory.
    """
    s = p.bit_length() - 1
    width = s - step
    lo = (rank >> width) << width
    return frozenset(range(lo, lo + (1 << width)))


# ---------------------------------------------------------------------------
# Segment counting (drives the non-contiguous-data cost, Sec. 4.3.1 / Fig. 14)
# ---------------------------------------------------------------------------

def count_segments(blocks: frozenset[int] | set[int]) -> int:
    """Number of maximal runs of consecutive block indices (linear buffer)."""
    if not blocks:
        return 0
    runs = 0
    for b in blocks:
        if b - 1 not in blocks:
            runs += 1
    return runs


def count_segments_circular(blocks: frozenset[int] | set[int], p: int) -> int:
    """Number of maximal runs treating the buffer as circular mod ``p``."""
    if not blocks:
        return 0
    if len(blocks) == p:
        return 1
    runs = 0
    for b in blocks:
        if (b - 1) % p not in blocks:
            runs += 1
    return runs


def segments_of(blocks: frozenset[int] | set[int]) -> list[tuple[int, int]]:
    """Sorted maximal runs as half-open ``(start, stop)`` block ranges."""
    out: list[tuple[int, int]] = []
    run_start: int | None = None
    prev: int | None = None
    for b in sorted(blocks):
        if run_start is None:
            run_start = prev = b
        elif b == prev + 1:
            prev = b
        else:
            out.append((run_start, prev + 1))
            run_start = prev = b
    if run_start is not None:
        out.append((run_start, prev + 1))
    return out
