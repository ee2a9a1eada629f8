"""Non-power-of-two rank counts (paper Appendix C).

Two techniques are implemented:

* **Even-p duplicate-subtree pruning** — for even ``p`` the Bine tree rules
  are run unchanged; some ranks would be reached twice, and the send that
  arrives *later* (whose subtree is provably the smaller, contained one) is
  simply skipped.  No extra communication volume (Fig. 15).

* **Power-of-two fold** — the classic technique usable for any ``p`` (and the
  only option for odd ``p``): the last ``p − p′`` ranks first fold their data
  onto the first ``p − p′`` ranks, the collective runs over the leading
  ``p′ = 2^⌊log2 p⌋`` ranks, and results unfold back.  This doubles the
  volume handled by the folded ranks, which is why the paper prefers pruning
  when ``p`` is even.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.tree import Tree, TreeError

__all__ = [
    "PrunedTree",
    "bine_tree_dh_pruned",
    "FoldPlan",
    "fold_plan",
    "ceil_log2",
]


def ceil_log2(p: int) -> int:
    """Smallest ``s`` with ``2**s >= p``."""
    if p <= 0:
        raise ValueError("p must be positive")
    return (p - 1).bit_length()


@dataclass(frozen=True, eq=False)
class PrunedTree:
    """A Bine tree over even non-power-of-two ``p`` with duplicate subtrees removed.

    ``edges[i]`` is the ``(parent, child)`` rank-array pair of step ``i``,
    as on :class:`~repro.core.tree.Tree`; ``pruned_edges`` lists the
    virtual subtree roots that were pruned, as ``(step, parent, rank)``.
    """

    p: int
    root: int
    kind: str
    num_steps: int
    edges: tuple[tuple[np.ndarray, np.ndarray], ...]
    pruned_edges: tuple[tuple[int, int, int], ...]  # (step, src, dst)

    all_edges = Tree.all_edges


def bine_tree_dh_pruned(p: int, root: int = 0) -> PrunedTree:
    """Distance-halving Bine tree for even (non-power-of-two) ``p``.

    Construction (Appendix C, Fig. 15): build the *virtual* Bine tree over
    ``2^⌈log2 p⌉`` negabinary labels; each label maps to the real rank
    ``value mod p``, so ``2^s − p`` real ranks carry two labels and would be
    reached twice.  The arrival that happens *later* roots the smaller,
    redundant subtree — prune it.  Communication volume matches the
    power-of-two case exactly (no folding).

    Raises :class:`TreeError` for odd ``p > 1`` (pairwise sends make a
    second arrival unavoidable; use :func:`fold_plan` instead — Appendix C).
    """
    if p <= 0:
        raise ValueError("p must be positive")
    if p % 2 == 1 and p > 1:
        raise TreeError(f"pruned construction requires even p, got {p}")
    s = max(ceil_log2(p), 1) if p > 1 else 0
    from repro.core.bine_tree import bine_tree_distance_halving
    from repro.core.negabinary import from_negabinary, rank_to_nb

    p_virt = 1 << s
    vtree = bine_tree_distance_halving(p_virt)
    real = [from_negabinary(rank_to_nb(v, p_virt)) % p for v in range(p_virt)]

    reached = [False] * p
    reached[real[0]] = True
    alive = [False] * p_virt
    alive[0] = True
    edges: list[tuple[np.ndarray, np.ndarray]] = []
    pruned: list[tuple[int, int, int]] = []
    # Walk virtual edges in step order; an edge whose real target was already
    # reached roots a duplicate subtree — drop it (its descendants stay dead
    # because their virtual parent is dead).
    for step, (par, child) in enumerate(vtree.edges):
        kept = []
        for u, v in zip(par.tolist(), child.tolist()):
            if not alive[u]:
                continue
            ru, rv = real[u], real[v]
            if reached[rv]:
                pruned.append((step, (ru + root) % p, (rv + root) % p))
                continue
            alive[v] = reached[rv] = True
            kept.append((ru, rv))
        edges.append(tuple((np.array(kept, dtype=np.intp).reshape(-1, 2).T + root) % p))
    if not all(reached):
        unreached = [r for r in range(p) if not reached[r]]
        raise TreeError(
            f"pruned Bine tree over p={p} leaves ranks unreached: {unreached}"
        )
    return PrunedTree(
        p=p,
        root=root,
        kind="bine-dh-pruned",
        num_steps=s,
        edges=tuple(edges),
        pruned_edges=tuple(pruned),
    )


@dataclass(frozen=True)
class FoldPlan:
    """Pre/post communication for running a power-of-two kernel over any ``p``.

    ``pre_pairs``: ``(extra_rank, proxy_rank)`` — before the kernel, each
    extra rank (``>= p_prime``) sends its contribution to its proxy.
    ``post_pairs``: the reverse transfers restoring results to extra ranks.
    """

    p: int
    p_prime: int
    pre_pairs: tuple[tuple[int, int], ...]

    @property
    def extra(self) -> int:
        return self.p - self.p_prime

    @property
    def post_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((proxy, extra) for extra, proxy in self.pre_pairs)

    def proxy_of(self, rank: int) -> int:
        """Rank that acts for ``rank`` inside the power-of-two kernel."""
        if rank < self.p_prime:
            return rank
        return rank - self.p_prime


def fold_plan(p: int) -> FoldPlan:
    """Fold ranks ``p′ … p−1`` onto ranks ``0 … p−p′−1`` (Appendix C)."""
    if p <= 0:
        raise ValueError("p must be positive")
    p_prime = 1 << (p.bit_length() - 1)
    if p_prime == p:
        return FoldPlan(p=p, p_prime=p, pre_pairs=())
    pairs = tuple((r, r - p_prime) for r in range(p_prime, p))
    return FoldPlan(p=p, p_prime=p_prime, pre_pairs=pairs)
