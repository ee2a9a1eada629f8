"""The per-rank tree builder: the test suite's oracle for broadcast trees.

:func:`repro.core.tree.build_tree` forms a tree's reach order over rank
arrays, one concatenation per step, and answers every query by position
arithmetic.  This module keeps the builder it replaced, which simulates
the broadcast rank by rank from two relative-rank rules, checks every
arrival against the closed-form ``recv_step`` rule, and rotates each rank
onto the root:

* :func:`build_tree` and :class:`OracleTree` — that builder and the
  explicit per-rank tables it fills;
* :func:`oracle_tree` / :func:`oracle_torus_tree` — the Bine (dh, dd),
  binomial (dd, dh) and torus Bine trees built from their scalar rules
  (``dh_recv_step`` / ``dh_partner``, ``dd_recv_step`` / ``dd_partner``,
  ``binomial_*_recv_step`` with the ``active_at`` frontiers, and the
  torus tree's per-coordinate arrival steps);
* :func:`tree_mismatches` — an oracle tree against an array tree: edges
  in order, ``recv_step``, ``parent``, ``children`` and subtree sets.

Import it from a test module like ``tests/segment_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.bine_tree import dd_partner, dd_recv_step, dh_partner, dh_recv_step
from repro.core.binomial_tree import binomial_dd_recv_step, binomial_dh_recv_step
from repro.core.torus_opt import TorusShape, dimension_schedule
from repro.core.tree import Tree, TreeError, log2_exact

FAMILIES = ("bine-dh", "bine-dd", "binomial-dd", "binomial-dh")


@dataclass(frozen=True)
class OracleTree:
    """An explicit step-annotated broadcast tree over ``p`` ranks.

    All rank identifiers are *absolute*.  ``edges[i]`` lists ``(parent,
    child)`` pairs active at step ``i``; a rank appears as a child exactly
    once across all steps (except the root, never a child).
    """

    p: int
    root: int
    kind: str
    num_steps: int
    edges: tuple[tuple[tuple[int, int], ...], ...]
    _recv_step: tuple[int, ...] = field(repr=False)
    _parent: tuple[int, ...] = field(repr=False)
    _children: tuple[tuple[tuple[int, int], ...], ...] = field(repr=False)

    def subtree(self, rank: int) -> list[int]:
        """All ranks in the subtree rooted at ``rank`` (including it),
        depth-first, children in step order."""
        out: list[int] = []
        stack = [rank]
        while stack:
            node = stack.pop()
            out.append(node)
            for _, child in reversed(self._children[node]):
                stack.append(child)
        return out


def build_tree(
    p: int,
    root: int,
    *,
    kind: str,
    recv_step: Callable[[int], int],
    partner: Callable[[int, int], int],
    num_steps: int | None = None,
    active_at: Callable[[int, int], bool] | None = None,
) -> OracleTree:
    """Materialise an :class:`OracleTree` from relative-rank rules.

    The broadcast is simulated step by step: every rank already holding the
    data forwards to ``partner(r, step)``; the receiver must report exactly
    this step from ``recv_step``, and must not have been reached before
    (strict spanning-tree check — non-power-of-two relaxations live in
    :mod:`repro.core.nonpow2`).

    ``active_at(r, step)`` optionally restricts which holders send at a given
    step (binomial distance-doubling trees need it: only ranks below the
    doubling frontier send).
    """
    if not 0 <= root < p:
        raise ValueError(f"root {root} out of range for p={p}")
    steps = log2_exact(p) if num_steps is None else num_steps

    recv = [-2] * p  # relative-rank indexed; -2 = unreached
    parent = [-1] * p
    children: list[list[tuple[int, int]]] = [[] for _ in range(p)]
    edges: list[list[tuple[int, int]]] = [[] for _ in range(steps)]

    recv[0] = -1
    holders = [0]
    for step in range(steps):
        new_holders = []
        for r in holders:
            if active_at is not None and not active_at(r, step):
                continue
            q = partner(r, step)
            if not 0 <= q < p:
                raise TreeError(f"{kind}: partner({r},{step}) = {q} out of range")
            if recv[q] != -2:
                raise TreeError(
                    f"{kind}: rank {q} reached twice (step {step}, from {r})"
                )
            expected = recv_step(q)
            if expected != step:
                raise TreeError(
                    f"{kind}: rank {q} reached at step {step}, "
                    f"recv_step predicts {expected}"
                )
            recv[q] = step
            parent[q] = r
            children[r].append((step, q))
            edges[step].append((r, q))
            new_holders.append(q)
        holders.extend(new_holders)
    unreached = [r for r in range(p) if recv[r] == -2]
    if unreached:
        raise TreeError(f"{kind}: ranks never reached: {unreached[:8]}…")

    # Rotate relative ranks onto absolute ones.
    def absr(r: int) -> int:
        return (r + root) % p

    abs_recv = [0] * p
    abs_parent = [-1] * p
    abs_children: list[tuple[tuple[int, int], ...]] = [()] * p
    for r in range(p):
        abs_recv[absr(r)] = recv[r]
        abs_parent[absr(r)] = -1 if parent[r] < 0 else absr(parent[r])
        abs_children[absr(r)] = tuple((st, absr(c)) for st, c in children[r])
    abs_edges = tuple(
        tuple((absr(u), absr(v)) for (u, v) in es) for es in edges
    )
    return OracleTree(
        p=p,
        root=root,
        kind=kind,
        num_steps=steps,
        edges=abs_edges,
        _recv_step=tuple(abs_recv),
        _parent=tuple(abs_parent),
        _children=tuple(abs_children),
    )


def oracle_tree(family: str, p: int, root: int = 0) -> OracleTree:
    """``family``'s tree (one of :data:`FAMILIES`) built rank by rank."""
    s = log2_exact(p)
    rules = {
        "bine-dh": dict(recv_step=lambda r: dh_recv_step(r, p),
                        partner=lambda r, i: dh_partner(r, i, p)),
        "bine-dd": dict(recv_step=lambda r: dd_recv_step(r, p),
                        partner=lambda r, j: dd_partner(r, j, p)),
        "binomial-dd": dict(recv_step=lambda r: binomial_dd_recv_step(r, p),
                            partner=lambda r, i: r + (1 << i),
                            active_at=lambda r, i: r < (1 << i)),
        "binomial-dh": dict(recv_step=lambda r: binomial_dh_recv_step(r, p),
                            partner=lambda r, i: r + (1 << (s - i - 1)),
                            active_at=lambda r, i: r % (1 << (s - i)) == 0),
    }
    return build_tree(p, root, kind=family, **rules[family])


def oracle_torus_tree(shape: TorusShape, root: int = 0) -> OracleTree:
    """The torus Bine tree built rank by rank: a rank receives at the
    latest global step among its per-dimension arrival steps."""
    order = dimension_schedule(shape)
    gstep = {di: g for g, di in enumerate(order)}

    def recv_step(rel: int) -> int:
        if rel == 0:
            return -1
        latest = -1
        for dim, c in enumerate(shape.coords(rel)):
            if c != 0:
                latest = max(latest, gstep[(dim, dh_recv_step(c, shape.dims[dim]))])
        return latest

    def partner(rel: int, g: int) -> int:
        dim, i = order[g]
        coords = list(shape.coords(rel))
        coords[dim] = dh_partner(coords[dim], i, shape.dims[dim])
        return shape.rank(tuple(coords))

    return build_tree(
        shape.num_ranks,
        root,
        kind=f"bine-torus-{'x'.join(map(str, shape.dims))}",
        recv_step=recv_step,
        partner=partner,
        num_steps=len(order),
    )


def tree_mismatches(oracle: OracleTree, tree: Tree) -> list[str]:
    """Where ``tree`` differs from ``oracle``: edges step by step in
    order, every rank's ``recv_step``, ``parent``, ``children`` and
    subtree set, and the subtree sets of each step's children as
    :meth:`Tree.subtrees` gives them."""
    p, out = oracle.p, []
    if (tree.p, tree.root, tree.kind, tree.num_steps) != (
            p, oracle.root, oracle.kind, oracle.num_steps):
        return [f"header {tree.p, tree.root, tree.kind, tree.num_steps}"]
    for i, (par, child) in enumerate(tree.edges):
        if list(zip(par.tolist(), child.tolist())) != list(oracle.edges[i]):
            out.append(f"edges of step {i}")
        got = [set(row) for row in tree.subtrees(i).tolist()]
        if got != [set(oracle.subtree(v)) for v in child.tolist()]:
            out.append(f"subtrees of step {i}")
    for r in range(p):
        par = oracle._parent[r]
        if tree.recv_step(r) != oracle._recv_step[r]:
            out.append(f"recv_step({r})")
        if tree.parent(r) != (None if par < 0 else par):
            out.append(f"parent({r})")
        if tree.children(r) != oracle._children[r]:
            out.append(f"children({r})")
        if set(tree.subtree(r)) != set(oracle.subtree(r)):
            out.append(f"subtree({r})")
    return out
