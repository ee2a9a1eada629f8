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
  inter-node Bine allreduce per GPU slice → intra-node allgather.

The large bcast/reduce are ``(meta, parts)`` plans, each part a tree
:class:`Schedule` or a butterfly :class:`Flow`: :func:`composed_table`
concatenates their sweep tables without building the butterfly half.
"""

from __future__ import annotations

from repro.core.bine_tree import (
    bine_tree_distance_doubling,
    bine_tree_distance_halving,
)
from repro.core.binomial_tree import binomial_tree_distance_halving
from repro.core.butterfly import (
    bine_butterfly_doubling,
    recursive_halving_butterfly,
)
from repro.core.coverage import segments_of
from repro.core.tree import Tree
from repro.collectives.butterfly_collectives import (
    Flow,
    allgather_flow,
    allreduce_reduce_scatter_allgather,
    concat_tables,
    reduce_scatter_flow,
    render_schedule,
    render_table,
)
from repro.collectives.common import (
    Strategy,
    VEC,
    global_pi,
    require_divisible,
    require_pow2,
)
from repro.collectives.tree_collectives import gather_from_tree, scatter_from_tree
from repro.runtime.schedule import Schedule, Step, Transfer

__all__ = [
    "bcast_scatter_allgather_binomial_plan",
    "bcast_scatter_allgather_bine_plan",
    "reduce_rsag_rabenseifner_plan",
    "reduce_rsag_bine_plan",
    "composed_schedule",
    "composed_table",
    "hierarchical_allreduce_bine",
    "remap_schedule",
]


def composed_schedule(plan) -> Schedule:
    """The executor's :class:`Schedule` of a ``(meta, parts)`` plan."""
    meta, parts = plan
    sched = Schedule(meta["p"], meta=meta)
    for part in parts:
        sched.steps.extend(
            (render_schedule(part) if isinstance(part, Flow) else part).steps
        )
    return sched.finalize()


def composed_table(plan):
    """The sweep's transfer table of a ``(meta, parts)`` plan at ``n = p``."""
    from repro.model.compiled import lower_schedule  # keeps registry imports light

    meta, parts = plan
    return concat_tables(meta, *(
        render_table(part) if isinstance(part, Flow) else lower_schedule(part)
        for part in parts
    ))


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
        (scatter_from_tree(tree, n),
         allgather_flow(recursive_halving_butterfly(p), n, Strategy.NATURAL)),
    )


def _pi_tree_scatter(tree: Tree, n: int) -> Schedule:
    """Scatter along a tree whose subtree *π windows* are the payload.

    The root holds the natural vector; each edge forwards the receiving
    child's subtree π-position window untouched (send semantics): the data
    that lands at rank ``r`` is the natural block π(r) — exactly the state
    the π-space allgather resumes from.
    """
    p = tree.p
    bs = require_divisible(n, p, "bine large broadcast")
    pi = global_pi(p)
    sched = Schedule(
        p, meta={"collective": "scatter", "algorithm": f"pi-{tree.kind}",
                 "p": p, "n": n, "root": tree.root},
    )
    for step_idx in range(tree.num_steps):
        transfers = []
        for (u, v) in tree.edges[step_idx]:
            positions = {pi[x] for x in tree.subtree(v)}
            segs = tuple(
                (lo * bs, hi * bs) for lo, hi in segments_of(positions)
            )
            transfers.append(
                Transfer(
                    src=u, dst=v, src_buf=VEC, dst_buf=VEC,
                    src_segments=segs, dst_segments=segs,
                    tag=f"pi-scatter[{step_idx}]",
                )
            )
        sched.add(Step(transfers=tuple(transfers), label=f"pi scatter {step_idx}"))
    return sched.finalize()


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
        (_pi_tree_scatter(tree, n),
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
         gather_from_tree(binomial_tree_distance_halving(p, root), n)),
    )


def _pi_tree_gather(tree: Tree, n: int) -> Schedule:
    """Gather π windows to the tree root (reverse of :func:`_pi_tree_scatter`)."""
    p = tree.p
    bs = require_divisible(n, p, "bine large reduce")
    pi = global_pi(p)
    sched = Schedule(
        p, meta={"collective": "gather", "algorithm": f"pi-{tree.kind}",
                 "p": p, "n": n, "root": tree.root},
    )
    for step_idx in reversed(range(tree.num_steps)):
        transfers = []
        for (u, v) in tree.edges[step_idx]:
            positions = {pi[x] for x in tree.subtree(v)}
            segs = tuple(
                (lo * bs, hi * bs) for lo, hi in segments_of(positions)
            )
            transfers.append(
                Transfer(
                    src=v, dst=u, src_buf=VEC, dst_buf=VEC,
                    src_segments=segs, dst_segments=segs,
                    tag=f"pi-gather[{step_idx}]",
                )
            )
        sched.add(Step(transfers=tuple(transfers), label=f"pi gather {step_idx}"))
    return sched.finalize()


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
         _pi_tree_gather(bine_tree_distance_doubling(p, root), n)),
    )


def remap_schedule(sched: Schedule, rank_map, elem_offset: int) -> Schedule:
    """Embed a schedule into a larger job: relabel ranks and shift elements.

    ``rank_map[i]`` is the global rank acting as local rank ``i``;
    ``elem_offset`` shifts every segment (the sub-vector this instance
    operates on).  Buffer names are preserved.
    """

    def shift(segs):
        return tuple((lo + elem_offset, hi + elem_offset) for lo, hi in segs)

    out = Schedule(max(rank_map) + 1, meta=dict(sched.meta))
    for step in sched.steps:
        out.add(
            Step(
                transfers=tuple(
                    Transfer(
                        src=rank_map[t.src], dst=rank_map[t.dst],
                        src_buf=t.src_buf, dst_buf=t.dst_buf,
                        src_segments=shift(t.src_segments),
                        dst_segments=shift(t.dst_segments),
                        op=t.op, tag=t.tag,
                    )
                    for t in step.transfers
                ),
                pre=tuple(
                    type(lc)(
                        rank=rank_map[lc.rank], src_buf=lc.src_buf,
                        dst_buf=lc.dst_buf,
                        src_segments=shift(lc.src_segments),
                        dst_segments=shift(lc.dst_segments),
                        op=lc.op, tag=lc.tag,
                    )
                    for lc in step.pre
                ),
                post=tuple(
                    type(lc)(
                        rank=rank_map[lc.rank], src_buf=lc.src_buf,
                        dst_buf=lc.dst_buf,
                        src_segments=shift(lc.src_segments),
                        dst_segments=shift(lc.dst_segments),
                        op=lc.op, tag=lc.tag,
                    )
                    for lc in step.post
                ),
                label=step.label,
            )
        )
    return out


def _merge_parallel(p: int, meta: dict, schedules: list[Schedule]) -> Schedule:
    """Overlay independent schedules step-by-step (they must not conflict)."""
    out = Schedule(p, meta=meta)
    depth = max(s.num_steps for s in schedules)
    for i in range(depth):
        transfers: list = []
        pre: list = []
        post: list = []
        label = ""
        for s in schedules:
            if i < s.num_steps:
                st = s.steps[i]
                transfers.extend(st.transfers)
                pre.extend(st.pre)
                post.extend(st.post)
                label = label or st.label
        out.add(Step(transfers=tuple(transfers), pre=tuple(pre), post=tuple(post), label=label))
    return out.finalize()


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

    def gslice(g: int) -> tuple[int, int]:
        return (g * slice_n, (g + 1) * slice_n)

    meta = {
        "collective": "allreduce", "algorithm": "hierarchical-bine",
        "p": p, "n": n, "op": op,
        "num_nodes": num_nodes, "gpus_per_node": gpus_per_node,
        "hierarchical": True,
    }
    sched = Schedule(p, meta=meta)

    # Phase 1 — intra-node reduce-scatter: every GPU pushes each peer's slice
    # to that peer in one fully-connected round (all-port concurrent).
    transfers = []
    for node in range(num_nodes):
        base = node * gpus_per_node
        for g_src in range(gpus_per_node):
            for g_dst in range(gpus_per_node):
                if g_src == g_dst:
                    continue
                seg = (gslice(g_dst),)
                transfers.append(
                    Transfer(
                        src=base + g_src, dst=base + g_dst,
                        src_buf=VEC, dst_buf=VEC,
                        src_segments=seg, dst_segments=seg, op=op,
                        tag="intra rs",
                    )
                )
    sched.add(Step(transfers=tuple(transfers), label="intra-node reduce-scatter"))

    # Phase 2 — inter-node Bine allreduce per local GPU id on its slice.
    inner = [
        remap_schedule(
            allreduce_reduce_scatter_allgather(
                bine_butterfly_doubling(num_nodes), slice_n, op, Strategy.SEND
            ),
            rank_map=[node * gpus_per_node + g for node in range(num_nodes)],
            elem_offset=g * slice_n,
        )
        for g in range(gpus_per_node)
    ]
    merged = _merge_parallel(p, {}, inner)
    sched.steps.extend(merged.steps)

    # Phase 3 — intra-node allgather (reverse of phase 1, no reduction).
    transfers = []
    for node in range(num_nodes):
        base = node * gpus_per_node
        for g_src in range(gpus_per_node):
            seg = (gslice(g_src),)
            for g_dst in range(gpus_per_node):
                if g_src == g_dst:
                    continue
                transfers.append(
                    Transfer(
                        src=base + g_src, dst=base + g_dst,
                        src_buf=VEC, dst_buf=VEC,
                        src_segments=seg, dst_segments=seg,
                        tag="intra ag",
                    )
                )
    sched.add(Step(transfers=tuple(transfers), label="intra-node allgather"))
    return sched.finalize()
