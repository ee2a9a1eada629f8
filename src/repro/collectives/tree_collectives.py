"""Tree-shaped collectives: broadcast, reduce, gather, scatter (paper Sec. 4).

All four are generated from a :class:`~repro.core.tree.Tree` (Bine or
binomial, any variant), so a single implementation covers every tree family:

* **broadcast** — data flows root→leaves along tree edges in step order;
* **reduce** — the exact reverse: children send partial reductions to
  parents, steps run backwards (small-vector algorithm of Sec. 4.5);
* **gather** — like reduce but concatenating *blocks*: a child sends the
  circular block range of its whole subtree (Fig. 7);
* **scatter** — the reverse of gather: a parent sends each child its
  subtree's circular block range (Sec. 4.2).

Gather and scatter rely on subtrees being circularly contiguous block
ranges, which holds for distance-halving Bine trees and binomial trees
(validated in the test suite); wrapped ranges linearise into at most two
wire segments — the "two transmissions" of Sec. 4.3.1.

The four are one description: :func:`tree_steps` walks the tree's steps
(forwards for broadcast and scatter, backwards for reduce and gather) as
one step of parent/child rank arrays each, every edge carrying the
child's ranges — the whole vector, its subtree's circular block range,
or (:mod:`repro.collectives.composed`) its subtree's π window.
:func:`tree_stream` hands those steps to the registry, which builds the
executor's schedule and lowers the verifier's plan from them.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from repro.core.blocks import Partition, wrap_range_from_set
from repro.core.tree import Tree
from repro.collectives.butterfly_collectives import circular_bounds, wire_arrays
from repro.collectives.common import VEC, build_stream
from repro.runtime.schedule import ArrayPhase, ArrayStep, Schedule

__all__ = [
    "tree_steps",
    "tree_stream",
    "bcast_from_tree",
    "reduce_from_tree",
    "gather_from_tree",
    "scatter_from_tree",
]

# PrunedTree (Appendix C) quacks like Tree for every query used here.
TreeLike = Tree

#: ``ranges(child)``: the ``(counts, lo, hi)`` segments each child's edge carries
Ranges = Callable[[np.ndarray], tuple]


def tree_steps(tree: TreeLike, ranges: Ranges, up: bool, tag: str, label: str,
               op: str | None = None) -> Iterator[ArrayStep]:
    """``tree``'s edges as steps of rank arrays.

    Step ``i`` of the tree becomes one step labelled ``f"{label} {i}"``
    whose transfers, tagged ``f"{tag}[{i}]"``, run every edge ``(parent,
    child)`` of that step parent → child, or child → parent with the
    steps reversed when ``up``; each carries ``ranges(child)``.
    """
    order = range(tree.num_steps)
    for i in reversed(order) if up else order:
        phase = None
        if tree.edges[i]:
            parent, child = np.array(tree.edges[i], dtype=np.intp).T
            src, dst = (child, parent) if up else (parent, child)
            phase = ArrayPhase(src, dst, *ranges(child), op=op, tag=f"{tag}[{i}]")
        yield ArrayStep(f"{label} {i}", phase)


def _whole_vector(n: int) -> Ranges:
    def ranges(child: np.ndarray) -> tuple:
        ones = np.ones_like(child)
        return ones, 0 * ones, n * ones

    return ranges


def _subtree_blocks(tree: TreeLike, n: int) -> Ranges:
    """Each child's subtree as a circular block range of ``Partition(n,
    p)``: one segment, or two where it wraps (rejects a negative ``n``)."""
    p = tree.p
    Partition(n, p)

    def ranges(child: np.ndarray) -> tuple:
        spans = [wrap_range_from_set(tree.subtree(v), p) for v in child.tolist()]
        start = np.array([s.start for s in spans], dtype=np.intp)
        length = np.array([s.length for s in spans], dtype=np.intp)
        cut, lo, hi = wire_arrays(n, p, False, circular_bounds(start, length, p))
        return np.diff(cut)[:child.size], lo, hi

    return ranges


def tree_stream(tree: TreeLike, n: int, collective: str, op: str = "sum"):
    """``(meta, buffers, steps)`` of ``collective`` (bcast, reduce, gather
    or scatter) along ``tree``, all in ``vec``.

    >>> from repro.core.bine_tree import bine_tree_distance_halving
    >>> meta, buffers, steps = tree_stream(bine_tree_distance_halving(8), 8, "gather")
    >>> [st.label for st in steps]
    ['gather step 2', 'gather step 1', 'gather step 0']
    """
    up, reduces = collective in ("reduce", "gather"), collective == "reduce"
    meta = {
        "collective": collective, "algorithm": tree.kind, "p": tree.p, "n": n,
        "root": tree.root, **({"op": op} if reduces else {}),
    }
    blocks = collective in ("gather", "scatter")
    ranges = _subtree_blocks(tree, n) if blocks else _whole_vector(n)
    steps = tree_steps(tree, ranges, up, collective, f"{collective} step",
                       op if reduces else None)
    return meta, {VEC}, steps


def bcast_from_tree(tree: TreeLike, n: int) -> Schedule:
    """Broadcast ``n`` elements from ``tree.root`` along ``tree``.

    Every rank's ``vec`` ends equal to the root's.  Each edge carries the
    full vector — the small-vector algorithm; see
    :mod:`repro.collectives.composed` for the scatter+allgather large-vector
    variant.
    """
    return build_stream(tree_stream(tree, n, "bcast"))


def reduce_from_tree(tree: TreeLike, n: int, op: str = "sum") -> Schedule:
    """Reduce ``n``-element contributions to ``tree.root`` (reverse broadcast).

    Every rank's ``vec`` starts as its contribution; the root's ``vec`` ends
    as the elementwise reduction.  Non-root buffers hold partial sums
    afterwards (same garbage-on-exit behaviour as MPI_Reduce send buffers).
    """
    return build_stream(tree_stream(tree, n, "reduce", op))


def gather_from_tree(tree: TreeLike, n: int) -> Schedule:
    """Gather one block per rank to ``tree.root`` (paper Fig. 7).

    Every rank's ``vec`` is the full ``n``-element space with only its own
    block meaningful; the root ends holding all blocks in natural positions.
    Children send at the *reverse* of their broadcast step, transmitting the
    circular block range of their entire subtree in one go.
    """
    return build_stream(tree_stream(tree, n, "gather"))


def scatter_from_tree(tree: TreeLike, n: int) -> Schedule:
    """Scatter blocks from ``tree.root`` (Sec. 4.2, reverse of gather).

    The root starts with the full vector; every rank ends with its own block
    at its natural position.  At each broadcast step a parent forwards the
    receiving child's whole subtree range.
    """
    return build_stream(tree_stream(tree, n, "scatter"))
