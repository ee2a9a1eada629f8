"""Bine tree construction (paper Secs. 2.2-2.3, 3.2 and Appendix A).

Two families are built here, both as :class:`~repro.core.tree.Tree` objects:

* **distance-halving** Bine trees (Sec. 2.3): rank ``r`` (relative to the
  root) receives at step ``i = s − u`` where ``u`` counts identical trailing
  negabinary digits, and forwards at step ``i`` to
  ``nb2rank(rank2nb(r) ⊕ 11…1)`` with ``s − i`` ones (Eq. 1);

* **distance-doubling** Bine trees (Sec. 3.2): each rank gets a label
  ``ν(r) = h(r) ⊕ (h(r) >> 1)`` where ``h`` is the (mirrored for even ranks)
  negabinary pattern; the tree is then the binomial tree over ``ν`` labels —
  a rank receives at the step of its highest set ν-bit and forwards to the
  rank whose ν differs in bit ``j`` at step ``j``.

Trees for roots ``t ≠ 0`` are the root-0 tree with all identifiers rotated by
``t`` (Sec. 2.2).  Inside butterflies odd-rooted trees are *mirrored* instead;
that variant is exposed via ``mirror=True`` and used by
:mod:`repro.core.butterfly`.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.core.negabinary import (
    check_range,
    nb_to_rank,
    ones_mask,
    rank_to_nb,
    trailing_equal_bits,
)
from repro.core.tree import Tree, build_tree, log2_exact

__all__ = [
    "bine_tree_distance_halving",
    "bine_tree_distance_doubling",
    "nu_labels",
    "nu_label",
    "nu_inverse",
    "dh_recv_step",
    "dh_partner",
    "dd_recv_step",
    "dd_partner",
]


# ---------------------------------------------------------------------------
# Distance-halving Bine trees (Sec. 2.3)
# ---------------------------------------------------------------------------

def dh_recv_step(rank: int, p: int) -> int:
    """Step at which relative rank ``rank`` receives in the dist-halving tree.

    The paper's rule ``i = s − u`` (Sec. 2.3.2).  The root (relative rank 0)
    never receives and reports ``-1``.
    """
    s = log2_exact(p)
    if rank == 0:
        return -1
    u = trailing_equal_bits(rank_to_nb(rank, p), s)
    return s - u


def dh_partner(rank: int | np.ndarray, step: int, p: int) -> int | np.ndarray:
    """Destination of relative rank ``rank`` (an int or a rank array) at
    ``step`` (Eq. 1).

    Valid for any rank that already holds the data at ``step``; the result is
    the rank whose negabinary pattern differs in the ``s − step`` least
    significant digits.
    """
    s = log2_exact(p)
    if not 0 <= step < s:
        raise ValueError(f"step {step} out of range for s={s}")
    return nb_to_rank(rank_to_nb(rank, p) ^ ones_mask(s - step), p)


def bine_tree_distance_halving(p: int, root: int = 0) -> Tree:
    """Build the distance-halving Bine broadcast tree over ``p`` ranks."""
    return build_tree(p, root, kind="bine-dh", partner=partial(dh_partner, p=p))


# ---------------------------------------------------------------------------
# Distance-doubling Bine trees (Sec. 3.2, Appendix A)
# ---------------------------------------------------------------------------

def nu_label(rank: int | np.ndarray, p: int) -> int | np.ndarray:
    """ν(r, p) from Sec. 3.2.1: Gray-style recoding of the negabinary label.

    ``h(r) = rank2nb(p − r)`` for even ``r`` (with ``h(0) = 0``) and
    ``rank2nb(r)`` for odd ``r``; then ``ν = h ⊕ (h >> 1)``.  An int gives
    an int, a rank array an array.
    """
    log2_exact(p)
    rank = check_range(rank, p)
    sign = 2 * (rank & 1) - 1  # odd ranks +1, even ranks −1 (mirrored)
    h = rank_to_nb(sign * rank % p, p)
    return h ^ (h >> 1)


def nu_labels(p: int) -> np.ndarray:
    """ν labels for all ranks ``0 … p−1`` (a bijection onto ``0 … p−1``)."""
    return nu_label(np.arange(p), p)


def nu_inverse(label: int | np.ndarray, p: int) -> int | np.ndarray:
    """The rank whose ν label is ``label`` (an int or a label array).

    Undoes the Gray recoding with the prefix XOR ``h ⊕= h >> 2**k``, maps
    ``h`` back with ``nb2rank`` and mirrors even results (their ``h`` is
    that of ``p − r``).
    """
    s = log2_exact(p)
    h, shift = check_range(label, p, "label"), 1
    while shift < s:
        h = h ^ (h >> shift)
        shift <<= 1
    rank = nb_to_rank(h, p)
    return (2 * (rank & 1) - 1) * rank % p


def dd_recv_step(rank: int, p: int) -> int:
    """Receive step in the distance-doubling tree: highest set bit of ν(r)."""
    if rank == 0:
        return -1
    return nu_label(rank, p).bit_length() - 1


def dd_partner(rank: int | np.ndarray, step: int, p: int) -> int | np.ndarray:
    """Destination of relative rank ``rank`` (an int or a rank array) at
    ``step`` in the dd tree.

    The rank whose ν label differs exactly in bit ``step`` (Sec. 3.2.2).
    """
    s = log2_exact(p)
    if not 0 <= step < s:
        raise ValueError(f"step {step} out of range for s={s}")
    return nu_inverse(nu_label(rank, p) ^ (1 << step), p)


def bine_tree_distance_doubling(p: int, root: int = 0) -> Tree:
    """Build the distance-doubling Bine broadcast tree over ``p`` ranks."""
    return build_tree(p, root, kind="bine-dd", partner=partial(dd_partner, p=p))
