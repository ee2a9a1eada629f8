"""Shared helpers for collective schedule builders.

Conventions used across the package:

* every rank owns an ``n``-element main buffer named ``"vec"``; composed
  algorithms may add ``"tmp"`` (permuted staging) and alltoall uses
  ``"slots"``/``"recv"``;
* blocks are the MPI-style split of ``n`` elements over ``p`` ranks
  (:class:`repro.core.blocks.Partition`);
* the *global Bine permutation* π(b) = ``reverse(ν(b))`` (paper Fig. 8) maps
  block indices to positions; all permuted-layout algorithms are
  position-preserving flows in π space, which is what makes the "send"
  strategy able to skip data movement entirely.
"""

from __future__ import annotations

from enum import Enum

from repro.core.blocks import Partition
from repro.core.bine_tree import nu_labels
from repro.core.negabinary import bit_reverse
from repro.core.tree import log2_exact
from repro.runtime.memo import label_table
from repro.runtime.schedule import Segment

__all__ = [
    "Strategy",
    "VEC",
    "TMP",
    "global_pi",
    "global_pi_inv",
    "block_segments",
    "blocks_as_segments",
    "per_block_segments",
    "require_pow2",
    "require_divisible",
]

#: main working buffer name
VEC = "vec"
#: permuted staging buffer name
TMP = "tmp"


class Strategy(str, Enum):
    """Non-contiguous-data handling strategies of paper Sec. 4.3.1."""

    #: every block is its own wire segment (max overlap, max overhead)
    BLOCKS = "blocks"
    #: pre/post local permutation into π space; single-segment sends
    PERMUTE = "permute"
    #: transmit as if permuted; single-segment sends; result lands permuted
    SEND = "send"
    #: distance-halving direction with circular ranges; ≤ 2 segments
    TWO_TRANSMISSIONS = "two_transmissions"
    #: coalesced natural-layout segments (what Swing does)
    NATURAL = "natural"


@label_table("common._pi_table")
def _pi_table(p: int) -> tuple[int, ...]:
    """Memoized π table — builders look π up per transfer, so cache per p."""
    s = log2_exact(p)
    return tuple(bit_reverse(nu, s) for nu in nu_labels(p))


@label_table("common._pi_inv_table")
def _pi_inv_table(p: int) -> tuple[int, ...]:
    inv = [0] * p
    for b, pos in enumerate(_pi_table(p)):
        inv[pos] = b
    return tuple(inv)


def global_pi(p: int) -> list[int]:
    """π(b) = reverse(ν(b)): position of block ``b`` in the permuted layout."""
    return list(_pi_table(p))


def global_pi_inv(p: int) -> list[int]:
    """Block stored at each position: ``inv[π(b)] = b``."""
    return list(_pi_inv_table(p))


def block_segments(part: Partition, blocks) -> tuple[Segment, ...]:
    """Coalesced element segments covering ``blocks`` (natural layout)."""
    return tuple(part.segments(blocks))


def per_block_segments(part: Partition, blocks) -> tuple[Segment, ...]:
    """One element segment per block, never coalesced (block-by-block)."""
    return tuple(part.bounds(b) for b in sorted(set(blocks)))


def blocks_as_segments(part: Partition, blocks, strategy: Strategy) -> tuple[Segment, ...]:
    """Segments for a block set under the requested segmentation policy."""
    if strategy is Strategy.BLOCKS:
        return per_block_segments(part, blocks)
    return block_segments(part, blocks)


def require_pow2(p: int, what: str) -> int:
    try:
        return log2_exact(p)
    except ValueError:
        raise ValueError(
            f"{what} requires a power-of-two rank count (got p={p}); "
            "wrap with repro.collectives.nonpow2 helpers for other counts"
        ) from None


def require_divisible(n: int, p: int, what: str) -> int:
    if n % p != 0:
        raise ValueError(
            f"{what} requires the vector length to be divisible by p "
            f"(got n={n}, p={p}); use the 'natural' or 'blocks' strategy instead"
        )
    return n // p
