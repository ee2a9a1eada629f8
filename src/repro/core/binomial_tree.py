"""Standard binomial trees — the paper's primary baseline (Sec. 2.1, Fig. 1-2).

Two variants, matching the production implementations the paper compares
against:

* **distance-doubling** (Open MPI ``coll_base_bcast`` binomial): at step ``i``
  every relative rank ``r < 2**i`` sends to ``r + 2**i``; the distance between
  communicating ranks doubles each step (0→1, then 0→2 / 1→3, …).

* **distance-halving** (MPICH ``bcast_intra_binomial``): at step ``i`` the
  ranks that are multiples of ``2**(s−i)`` send to ``r + 2**(s−i−1)``; the
  distance halves each step (0→p/2, then 0→p/4 / p/2→3p/4, …).
"""

from __future__ import annotations

from repro.core.tree import Tree, build_tree, log2_exact

__all__ = [
    "binomial_tree_distance_doubling",
    "binomial_tree_distance_halving",
    "binomial_dd_recv_step",
    "binomial_dh_recv_step",
]


def binomial_dd_recv_step(rank: int, p: int) -> int:
    """Receive step in the distance-doubling binomial tree: ⌊log2 r⌋."""
    log2_exact(p)
    if rank == 0:
        return -1
    return rank.bit_length() - 1


def binomial_dh_recv_step(rank: int, p: int) -> int:
    """Receive step in the distance-halving binomial tree.

    Rank ``r ≠ 0`` is first reached when the halving frontier matches its
    lowest set bit: ``i = s − 1 − ctz(r)``.
    """
    s = log2_exact(p)
    if rank == 0:
        return -1
    ctz = (rank & -rank).bit_length() - 1
    return s - 1 - ctz


def binomial_tree_distance_doubling(p: int, root: int = 0) -> Tree:
    """Open-MPI-style binomial broadcast tree (top of paper Fig. 1)."""
    return build_tree(p, root, kind="binomial-dd", partner=lambda r, i: r ^ (1 << i))


def binomial_tree_distance_halving(p: int, root: int = 0) -> Tree:
    """MPICH-style binomial broadcast tree (bottom of paper Fig. 1)."""
    s = log2_exact(p)
    return build_tree(
        p, root, kind="binomial-dh", partner=lambda r, i: r ^ (1 << (s - 1 - i))
    )
