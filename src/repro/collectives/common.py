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

import numpy as np

from repro.core.bine_tree import nu_inverse, nu_labels
from repro.core.negabinary import bit_reverse
from repro.core.tree import log2_exact
from repro.runtime.schedule import Schedule, schedule_from_arrays

__all__ = [
    "Strategy",
    "VEC",
    "TMP",
    "global_pi",
    "global_pi_inv",
    "require_pow2",
    "require_divisible",
    "build_stream",
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


def global_pi(p: int) -> np.ndarray:
    """π(b) = reverse(ν(b)): position of block ``b`` in the permuted layout."""
    return bit_reverse(nu_labels(p), log2_exact(p))


def global_pi_inv(p: int) -> np.ndarray:
    """Block stored at each position: ``inv[π(b)] = b``."""
    return nu_inverse(bit_reverse(np.arange(p), log2_exact(p)), p)


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


def build_stream(stream) -> Schedule:
    """The :class:`~repro.runtime.schedule.Schedule` of a ``(meta,
    buffers, steps)`` stream, what a registry entry's ``steps`` hook
    returns (building finds the buffers itself)."""
    meta, _, steps = stream
    return schedule_from_arrays(meta["p"], meta, steps)
