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

import numpy as np

from repro.core.negabinary import (
    nb_to_rank,
    ones_mask,
    rank_to_nb,
    rank_to_nb_table,
    trailing_equal_bits,
)
from repro.core.tree import Tree, build_tree, log2_exact
from repro.runtime.memo import label_table

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


def dh_partner(rank: int, step: int, p: int) -> int:
    """Destination of relative rank ``rank`` at ``step`` (Eq. 1).

    Valid for any rank that already holds the data at ``step``; the result is
    the rank whose negabinary pattern differs in the ``s − step`` least
    significant digits.
    """
    s = log2_exact(p)
    if not 0 <= step < s:
        raise ValueError(f"step {step} out of range for s={s}")
    return nb_to_rank(rank_to_nb(rank, p) ^ ones_mask(s - step), p)


def _dh_partners(p: int):
    """:func:`dh_partner` over rank arrays, as ``partner(ranks, step)``."""
    s = log2_exact(p)
    nb = np.array(rank_to_nb_table(p), dtype=np.intp)
    rank_of = np.empty_like(nb)
    rank_of[nb] = np.arange(p)
    return lambda ranks, step: rank_of[nb[ranks] ^ ones_mask(s - step)]


def bine_tree_distance_halving(p: int, root: int = 0) -> Tree:
    """Build the distance-halving Bine broadcast tree over ``p`` ranks."""
    return build_tree(p, root, kind="bine-dh", partner=_dh_partners(p))


# ---------------------------------------------------------------------------
# Distance-doubling Bine trees (Sec. 3.2, Appendix A)
# ---------------------------------------------------------------------------

@label_table("bine_tree._nu_table")
def _nu_table(p: int) -> tuple[int, ...]:
    """Memoized ν labels for all ranks of ``p`` (shared by every builder)."""
    log2_exact(p)
    nb = rank_to_nb_table(p)
    table = []
    for rank in range(p):
        if rank == 0:
            h = 0
        elif rank % 2 == 0:
            h = nb[p - rank]
        else:
            h = nb[rank]
        table.append(h ^ (h >> 1))
    return tuple(table)


@label_table("bine_tree._nu_inverse_table")
def _nu_inverse_table(p: int) -> tuple[int, ...]:
    """Memoized inverse ν table (bijection-checked once per ``p``)."""
    inv = [-1] * p
    for r, v in enumerate(_nu_table(p)):
        if not 0 <= v < p or inv[v] != -1:
            raise AssertionError(f"ν is not a bijection at p={p}: rank {r} -> {v}")
        inv[v] = r
    return tuple(inv)


def nu_label(rank: int, p: int) -> int:
    """ν(r, p) from Sec. 3.2.1: Gray-style recoding of the negabinary label.

    ``h(r) = rank2nb(p − r)`` for even ``r`` (with ``h(0) = 0``) and
    ``rank2nb(r)`` for odd ``r``; then ``ν = h ⊕ (h >> 1)``.
    """
    table = _nu_table(p)
    if not 0 <= rank < p:
        raise ValueError(f"rank {rank} out of range for p={p}")
    return table[rank]


def nu_labels(p: int) -> list[int]:
    """ν labels for all ranks ``0 … p−1`` (a bijection onto ``0 … p−1``)."""
    return list(_nu_table(p))


def nu_inverse(p: int) -> list[int]:
    """Inverse ν table: ``inv[ν(r)] = r``."""
    return list(_nu_inverse_table(p))


def dd_recv_step(rank: int, p: int) -> int:
    """Receive step in the distance-doubling tree: highest set bit of ν(r)."""
    if rank == 0:
        return -1
    return nu_label(rank, p).bit_length() - 1


def dd_partner(rank: int, step: int, p: int) -> int:
    """Destination of relative rank ``rank`` at ``step`` in the dd tree.

    The rank whose ν label differs exactly in bit ``step`` (Sec. 3.2.2).
    """
    s = log2_exact(p)
    if not 0 <= step < s:
        raise ValueError(f"step {step} out of range for s={s}")
    return _nu_inverse_table(p)[nu_label(rank, p) ^ (1 << step)]


def bine_tree_distance_doubling(p: int, root: int = 0) -> Tree:
    """Build the distance-doubling Bine broadcast tree over ``p`` ranks."""
    nu = np.array(_nu_table(p), dtype=np.intp)
    rank_of = np.array(_nu_inverse_table(p), dtype=np.intp)
    return build_tree(
        p, root, kind="bine-dd", partner=lambda ranks, j: rank_of[nu[ranks] ^ (1 << j)]
    )
