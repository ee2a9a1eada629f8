"""Generic broadcast-tree abstraction shared by Bine and binomial trees.

Every tree here doubles its holders at each step: at step ``i`` the
``2**i`` ranks already holding the data each send to one new rank.  Such a
tree is fully described by its **reach order** ``order``, the permutation
of the ``p`` ranks in the order they first hold the data (``order[0]`` is
the root).  Every query is position arithmetic on it:

* step ``i``'s edges are ``(order[:2**i], order[2**i:2**(i+1)])``, the
  ``j``-th holder sending to the ``j``-th new rank;
* ``order[k]`` receives at step ``k.bit_length() − 1`` (``−1`` for the
  root), from ``order[k − 2**⌊log2 k⌋]``;
* the subtree of ``order[k]`` is ``order[k::2**k.bit_length()]``, so the
  subtrees of all step-``i`` children at once are one reshape
  (:meth:`Tree.subtrees`).

:func:`build_tree` forms the order from a ``partner`` rule on *relative*
ranks (rotated so the root is 0) evaluated over rank arrays, one
concatenation per step, and checks it is a permutation.  All collective
schedules that are tree-shaped (bcast, reduce, gather, scatter) are
generated from this one structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = ["Tree", "TreeError", "build_tree", "log2_exact"]


class TreeError(ValueError):
    """Raised when a tree rule does not produce a valid spanning tree."""


def log2_exact(p: int) -> int:
    """log2 of a power of two, raising :class:`ValueError` otherwise."""
    if p <= 0 or p & (p - 1):
        raise ValueError(f"p={p} is not a positive power of two")
    return p.bit_length() - 1


@dataclass(frozen=True, eq=False)
class Tree:
    """A broadcast tree over ``p = 2**s`` ranks, as its reach order.

    All rank identifiers in the public API are *absolute*.  ``edges[i]``
    is the ``(parent, child)`` rank-array pair of step ``i``; a rank
    appears as a child exactly once across all steps (except the root,
    never a child).
    """

    p: int
    root: int
    kind: str
    #: (p,) read-only permutation of the ranks in the order they are reached
    order: np.ndarray

    @property
    def num_steps(self) -> int:
        return self.p.bit_length() - 1

    @property
    def edges(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        o = self.order
        return tuple((o[:1 << i], o[1 << i:2 << i]) for i in range(self.num_steps))

    def subtrees(self, step: int) -> np.ndarray:
        """``(2**step, p / 2**(step+1))`` array whose row ``j`` holds the
        subtree of the ``j``-th child reached at ``step``."""
        return self.order.reshape(-1, 2 << step)[:, 1 << step:].T

    # -- queries ------------------------------------------------------------

    def recv_step(self, rank: int) -> int:
        """Step at which ``rank`` receives the data (``-1`` for the root)."""
        return self._position(rank).bit_length() - 1

    def parent(self, rank: int) -> int | None:
        """Parent of ``rank`` in the tree, ``None`` for the root."""
        k = self._position(rank)
        return int(self.order[k - (1 << k.bit_length() >> 1)]) if k else None

    def children(self, rank: int) -> tuple[tuple[int, int], ...]:
        """``(step, child)`` pairs for all children of ``rank``, step order."""
        k = self._position(rank)
        return tuple(
            (i, int(self.order[k + (1 << i)]))
            for i in range(k.bit_length(), self.num_steps)
        )

    def subtree(self, rank: int) -> list[int]:
        """All ranks in the subtree rooted at ``rank``, itself first, in
        reach order."""
        k = self._position(rank)
        return self.order[k::1 << k.bit_length()].tolist()

    def all_edges(self) -> list[tuple[int, int, int]]:
        """Flat ``(step, parent, child)`` list over the whole broadcast."""
        return [
            (i, u, v)
            for i, (par, child) in enumerate(self.edges)
            for u, v in zip(par.tolist(), child.tolist())
        ]

    @cached_property
    def _pos(self) -> np.ndarray:
        pos = np.empty_like(self.order)
        pos[self.order] = np.arange(self.p)
        return pos

    def _position(self, rank: int) -> int:
        if not 0 <= rank < self.p:
            raise ValueError(f"rank {rank} out of range for p={self.p}")
        return int(self._pos[rank])


def build_tree(
    p: int,
    root: int,
    *,
    kind: str,
    partner: Callable[[np.ndarray, int], np.ndarray],
) -> Tree:
    """The :class:`Tree` whose holders at step ``i`` send to
    ``partner(holders, i)``, ``holders`` the relative ranks reached so far
    in reach order.

    Raises :class:`TreeError` when a partner is out of range or a rank is
    reached twice (strict spanning-tree check — non-power-of-two
    relaxations live in :mod:`repro.core.nonpow2`).
    """
    steps = log2_exact(p)
    if not 0 <= root < p:
        raise ValueError(f"root {root} out of range for p={p}")
    order = np.zeros(1, dtype=np.intp)
    for i in range(steps):
        new = partner(order, i)
        outside = np.flatnonzero((new < 0) | (new >= p))
        if outside.size:
            j = outside[0]
            raise TreeError(f"{kind}: partner({order[j]},{i}) = {new[j]} out of range")
        order = np.concatenate([order, new])
    by_rank = np.argsort(order, kind="stable")
    repeat = by_rank[1:][order[by_rank[1:]] == order[by_rank[:-1]]]
    if repeat.size:
        k = int(repeat.min())
        i = k.bit_length() - 1
        raise TreeError(
            f"{kind}: rank {order[k]} reached twice (step {i}, from {order[k - (1 << i)]})"
        )
    order = (order + root) % p
    order.flags.writeable = False
    return Tree(p=p, root=root, kind=kind, order=order)
