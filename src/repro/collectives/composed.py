"""Large-vector composed collectives (paper Secs. 4.4-4.5).

* **broadcast (large)** — scatter + allgather.  MPICH composes a binomial
  distance-halving scatter with a recursive-doubling allgather; the Bine
  version composes a distance-doubling Bine *tree* scatter with the
  distance-halving Bine butterfly allgather, both in π ("send") space, so no
  data is ever reordered locally and every transfer is contiguous.
* **reduce (large, Rabenseifner)** — reduce-scatter + gather.  Bine runs the
  distance-doubling butterfly reduce-scatter in send mode and gathers along
  the reversed distance-doubling Bine tree: the gather inverts the implicit
  permutation, delivering the natural vector at the root with contiguous
  sends (for root 0; other roots are correct but may need extra segments).
* **hierarchical allreduce** (Sec. 6.2) — intra-node reduce-scatter →
  inter-node Bine allreduce per GPU slice → intra-node allgather, all
  written as step arrays: the per-GPU inter-node allreduces run in
  lockstep through :func:`~repro.runtime.schedule.overlay_steps`.

The large bcast/reduce are ``(meta, parts)`` plans, each part a tree
half's steps (:func:`~repro.collectives.tree_collectives.tree_steps`) or a
butterfly :class:`Flow`.  :func:`composed_steps` chains the halves' step
arrays, from which the registry builds the schedule and lowers the
verifier's plan and the sweep table.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.core.bine_tree import bine_tree_distance_doubling
from repro.core.binomial_tree import binomial_tree_distance_halving
from repro.core.butterfly import (
    bine_butterfly_doubling,
    recursive_halving_butterfly,
)
from repro.core.tree import Tree
from repro.collectives.butterfly_collectives import (
    Flow,
    _merged,
    allgather_flow,
    allreduce_rsag_flow,
    flow_buffers,
    flow_steps,
    reduce_scatter_flow,
)
from repro.collectives.common import (
    Strategy,
    VEC,
    global_pi,
    require_divisible,
    require_pow2,
)
from repro.collectives.tree_collectives import tree_steps, tree_stream
from repro.runtime.schedule import (
    ArrayPhase,
    ArrayStep,
    Schedule,
    overlay_steps,
    schedule_from_arrays,
)

__all__ = [
    "bcast_scatter_allgather_binomial_plan",
    "bcast_scatter_allgather_bine_plan",
    "reduce_rsag_rabenseifner_plan",
    "reduce_rsag_bine_plan",
    "composed_steps",
    "hierarchical_allreduce_bine",
]


def composed_steps(plan):
    """``(meta, buffers, steps)`` of a ``(meta, parts)`` plan: the parts'
    steps back to back."""
    meta, parts = plan
    buffers = set().union(*(
        flow_buffers(part) if isinstance(part, Flow) else {VEC} for part in parts
    ))
    steps = [flow_steps(part) if isinstance(part, Flow) else part for part in parts]
    return meta, buffers, chain.from_iterable(steps)


def bcast_scatter_allgather_binomial_plan(p: int, n: int, root: int = 0):
    """MPICH-style large broadcast: binomial-dh scatter + recursive-doubling AG.

    The paper's Fig. 1 / Sec. 5.1.1 baseline whose allgather phase floods
    global links — the configuration where Bine cuts up to 94 % of traffic.
    """
    require_pow2(p, "scatter+allgather broadcast")
    tree = binomial_tree_distance_halving(p, root)
    return (
        {"collective": "bcast", "algorithm": "scatter-allgather-binomial",
         "p": p, "n": n, "root": root},
        (tree_stream(tree, n, "scatter")[2],
         allgather_flow(recursive_halving_butterfly(p), n, Strategy.NATURAL)),
    )


def _pi_tree(tree: Tree, n: int, collective: str):
    """Steps scattering (or gathering) along a tree whose subtree *π
    windows* are the payload.

    The scatter's root holds the natural vector; each edge forwards the
    receiving child's subtree π-position window untouched (send
    semantics): the data that lands at rank ``r`` is the natural block
    π(r) — exactly the state the π-space allgather resumes from.  The
    gather runs the same edges backwards, in reverse step order.  A
    window that is not contiguous travels as its maximal runs.
    """
    p, gather = tree.p, collective == "gather"
    bs = require_divisible(n, p, "bine large reduce" if gather else "bine large broadcast")
    pi = global_pi(p)

    def windows(i: int, child: np.ndarray) -> tuple:
        pos = np.sort(pi[tree.subtrees(i)], axis=1)
        item = np.repeat(np.arange(child.size), pos.shape[1])
        item, lo, hi = _merged(item, pos.ravel(), pos.ravel() + 1)
        return np.bincount(item, minlength=child.size), lo * bs, hi * bs

    return tree_steps(tree, windows, gather, f"pi-{collective}", f"pi {collective}")


def bcast_scatter_allgather_bine_plan(p: int, n: int, root: int = 0):
    """Bine large broadcast: dd-tree π scatter + dh butterfly allgather (Sec. 4.5).

    No local permutes anywhere: the scatter distributes π windows and the
    send-mode allgather reassembles the natural vector on every rank.
    """
    require_pow2(p, "bine large broadcast")
    tree = bine_tree_distance_doubling(p, root)
    return (
        {"collective": "bcast", "algorithm": "scatter-allgather-bine",
         "p": p, "n": n, "root": root},
        (_pi_tree(tree, n, "scatter"),
         allgather_flow(bine_butterfly_doubling(p), n, Strategy.SEND,
                        initial_exchange=False)),
    )


def reduce_rsag_rabenseifner_plan(p: int, n: int, root: int = 0, op: str = "sum"):
    """Rabenseifner reduce: recursive-halving RS + binomial gather to root."""
    require_pow2(p, "Rabenseifner reduce")
    return (
        {"collective": "reduce", "algorithm": "rabenseifner",
         "p": p, "n": n, "root": root, "op": op},
        (reduce_scatter_flow(recursive_halving_butterfly(p), n, op, Strategy.NATURAL),
         tree_stream(binomial_tree_distance_halving(p, root), n, "gather")[2]),
    )


def reduce_rsag_bine_plan(p: int, n: int, root: int = 0, op: str = "sum"):
    """Bine large reduce: dd-butterfly RS (send) + reversed dd-tree gather.

    After the send-mode reduce-scatter rank ``r`` holds reduced block π(r) at
    position π(r); gathering those windows up the distance-doubling tree
    reassembles the natural reduced vector at the root — "the gather inverts
    the block permutation done by the reduce-scatter" (Sec. 4.5).
    """
    require_pow2(p, "bine large reduce")
    return (
        {"collective": "reduce", "algorithm": "rsag-bine",
         "p": p, "n": n, "root": root, "op": op},
        (reduce_scatter_flow(bine_butterfly_doubling(p), n, op, Strategy.SEND,
                             fixup=False),
         _pi_tree(bine_tree_distance_doubling(p, root), n, "gather")),
    )


def hierarchical_allreduce_bine(
    num_nodes: int, gpus_per_node: int, n: int, op: str = "sum"
) -> Schedule:
    """Hierarchical GPU allreduce (paper Sec. 6.2).

    Phase 1: intra-node reduce-scatter over each node's fully connected
    GPUs (one direct exchange round per peer).  Phase 2: ``gpus_per_node``
    concurrent inter-node Bine allreduces, each over the slice its local-id
    owns.  Phase 3: intra-node allgather mirroring phase 1.

    Global rank numbering is ``node * gpus_per_node + local_gpu``.
    """
    require_pow2(num_nodes, "hierarchical bine allreduce")
    require_pow2(gpus_per_node, "hierarchical bine allreduce")
    p = num_nodes * gpus_per_node
    require_divisible(n, gpus_per_node, "hierarchical bine allreduce")
    slice_n = n // gpus_per_node
    meta = {
        "collective": "allreduce", "algorithm": "hierarchical-bine",
        "p": p, "n": n, "op": op,
        "num_nodes": num_nodes, "gpus_per_node": gpus_per_node,
        "hierarchical": True,
    }

    # every ordered GPU pair of every node, node-major then source GPU
    gpus = np.arange(gpus_per_node)
    node, g_src, g_dst = np.meshgrid(np.arange(num_nodes), gpus, gpus, indexing="ij")
    peers = g_src != g_dst
    base, g_src, g_dst = node[peers] * gpus_per_node, g_src[peers], g_dst[peers]

    def intra(label: str, g: np.ndarray, op: str | None, tag: str) -> ArrayStep:
        # one fully connected round (all-port concurrent): pair i moves slice g[i]
        return ArrayStep(label, ArrayPhase.of(
            base + g_src, base + g_dst, np.ones_like(g), g * slice_n,
            (g + 1) * slice_n, op=op, tag=tag,
        ))

    # Phase 2's inter-node Bine allreduce, run per local GPU id on its slice
    inner = list(flow_steps(allreduce_rsag_flow(
        bine_butterfly_doubling(num_nodes), slice_n, op, Strategy.SEND
    )))
    nodes = np.arange(num_nodes) * gpus_per_node
    return schedule_from_arrays(p, meta, chain(
        # Phase 1 — intra-node reduce-scatter: every GPU pushes each peer's slice
        [intra("intra-node reduce-scatter", g_dst, op, "intra rs")],
        overlay_steps((inner, nodes + g, g * slice_n) for g in range(gpus_per_node)),
        # Phase 3 — intra-node allgather: every GPU pushes its own slice
        [intra("intra-node allgather", g_src, None, "intra ag")],
    ))
