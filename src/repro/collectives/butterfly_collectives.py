"""Butterfly collectives: reduce-scatter, allgather, allreduce (Secs. 4.3-4.4).

All three are position-preserving flows over a butterfly's responsibility
sets (:mod:`repro.core.coverage`):

* **reduce-scatter** runs the butterfly forward: at step ``j`` rank ``r``
  sends its partial sums for ``resp(partner, j+1)`` and reduces the incoming
  ``resp(r, j+1)`` into place — vector-halving;
* **allgather** is the exact reverse flow with ``op=None`` — vector-doubling;
* **allreduce** is either recursive doubling (small vectors: whole-vector
  exchange+reduce each step) or reduce-scatter + allgather (large vectors).

The four non-contiguous-data strategies of Sec. 4.3.1 map onto layouts:

========================  ============================================
``Strategy.NATURAL``      coalesced natural-layout segments (Swing-like)
``Strategy.BLOCKS``       one wire segment per block
``Strategy.PERMUTE``      local pre/post permutation into π space; all
                          sends single-segment
``Strategy.SEND``         π-space flow without the permutation; results
                          land at π positions; an optional fix-up exchange
                          (or the paired allgather) restores order
``Strategy.TWO_TRANSMISSIONS``  run the *distance-halving* butterfly whose
                          natural responsibility sets are circular ranges
                          (≤ 2 segments) at the price of more global traffic
========================  ============================================
"""

from __future__ import annotations

import numpy as np

from repro.core.blocks import Partition
from repro.core.butterfly import (
    Butterfly,
    bine_butterfly_doubling,
    bine_butterfly_halving,
    recursive_halving_butterfly,
    swing_butterfly,
)
from repro.collectives.common import (
    TMP,
    VEC,
    Strategy,
    global_pi,
    global_pi_inv,
    require_divisible,
)
from repro.collectives.fastresp import resp_backend, sorted_runs
from repro.runtime.memo import Memo
from repro.runtime.schedule import LocalCopy, Schedule, Step, Transfer

__all__ = [
    "reduce_scatter_butterfly",
    "allgather_butterfly",
    "allreduce_recursive",
    "allreduce_reduce_scatter_allgather",
    "rs_butterfly_for",
    "RS_FLAVORS",
]

#: reduce-scatter flavors → (butterfly builder, strategy)
RS_FLAVORS = {
    "bine-natural": (bine_butterfly_doubling, Strategy.NATURAL),
    "bine-blocks": (bine_butterfly_doubling, Strategy.BLOCKS),
    "bine-permute": (bine_butterfly_doubling, Strategy.PERMUTE),
    "bine-send": (bine_butterfly_doubling, Strategy.SEND),
    "bine-two-transmissions": (bine_butterfly_halving, Strategy.TWO_TRANSMISSIONS),
    "swing": (swing_butterfly, Strategy.NATURAL),
    "recursive-halving": (recursive_halving_butterfly, Strategy.NATURAL),
}


def rs_butterfly_for(flavor: str, p: int) -> tuple[Butterfly, Strategy]:
    """Resolve a reduce-scatter flavor name to its butterfly and strategy."""
    try:
        builder, strategy = RS_FLAVORS[flavor]
    except KeyError:
        raise KeyError(f"unknown RS flavor {flavor!r}; have {sorted(RS_FLAVORS)}") from None
    return builder(p), strategy


def _segments_for(part: Partition, blocks: np.ndarray, strategy: Strategy):
    """Wire segments for a sorted block array under a segmentation policy."""
    if strategy is Strategy.BLOCKS:
        return tuple(part.bounds(int(b)) for b in blocks)
    if part.n == part.p:
        # canonical build size: block index == element offset
        return tuple(sorted_runs(blocks))
    return tuple(part.segments(blocks.tolist()))


#: butterfly kinds whose matching (hence responsibility sets) is a pure
#: function of (kind, p) — safe keys for the cross-schedule segment cache.
#: Swing shares the distance-doubling Bine sets, so the two kinds alias.
_CACHEABLE_KINDS = {
    "bine-doubling": "bine-doubling",
    "swing": "bine-doubling",
    "bine-halving": "bine-halving",
    "recdoub": "recdoub",
    "rechalv": "rechalv",
}

#: (kind, p, strategy/π, step, rank) → segment tuple at the canonical build
#: size.  Reduce-scatter and allgather walk the same responsibility sets
#: (allreduce builds both back to back, and sweep campaigns revisit the same
#: butterflies per collective), so entries are reused several times over.
#: Unbounded and uncounted: the builders' inner loop reads it as a plain dict.
_SEG_CACHE = Memo("butterfly_collectives._SEG_CACHE")


def _seg_getter(bf: Butterfly, part: Partition, resp, strategy: Strategy):
    """``segs(rank, step)`` with cross-schedule caching at canonical size."""
    ckind = _CACHEABLE_KINDS.get(bf.kind)
    if ckind is None or part.n != part.p:
        return lambda rank, step: _segments_for(part, resp(rank, step), strategy)

    prefix = (ckind, part.p, strategy.value)

    def segs(rank: int, step: int):
        key = prefix + (step, rank)
        out = _SEG_CACHE.get(key)
        if out is None:
            out = _SEG_CACHE[key] = _segments_for(part, resp(rank, step), strategy)
        return out

    return segs


def _pi_window_getter(bf: Butterfly, resp, pi_arr: np.ndarray, block_size: int):
    """``window(rank, step)`` for π-space flows, cached like :func:`_seg_getter`."""
    ckind = _CACHEABLE_KINDS.get(bf.kind)
    p = bf.p

    def compute(rank: int, step: int):
        return _pi_window(
            pi_arr, resp(rank, step), block_size, f"{bf.kind} rank {rank} step {step}"
        )

    if ckind is None:
        return compute
    prefix = (ckind, p, "pi", block_size)

    def window(rank: int, step: int):
        key = prefix + (step, rank)
        out = _SEG_CACHE.get(key)
        if out is None:
            out = _SEG_CACHE[key] = compute(rank, step)
        return out

    return window


def _pi_window(pi_arr: np.ndarray, blocks: np.ndarray, block_size: int, ctx: str):
    """Single contiguous element segment covering π(blocks), or raise."""
    positions = pi_arr[blocks]
    lo = int(positions.min())
    hi = int(positions.max()) + 1
    if hi - lo != positions.size:
        raise AssertionError(f"π window not contiguous for {ctx}")
    return ((lo * block_size, hi * block_size),)


def _permute_segments(p: int, n: int, pi: list[int]):
    """``(natural, permuted)`` segment tuples of the Fig. 8 block permutation.

    Identical for every rank, so builders compute them once per schedule and
    share the tuples across all ``p`` local copies.
    """
    bs = n // p
    natural = tuple((b * bs, (b + 1) * bs) for b in range(p))
    permuted = tuple((pi[b] * bs, (pi[b] + 1) * bs) for b in range(p))
    return natural, permuted


def _permute_pack(
    rank: int, src: str, dst: str, tag: str, segs
) -> LocalCopy:
    """Local copy moving natural block ``b`` to π(b) positions (Fig. 8)."""
    natural, permuted = segs
    return LocalCopy(
        rank=rank,
        src_buf=src,
        dst_buf=dst,
        src_segments=natural,
        dst_segments=permuted,
        tag=tag,
    )


def _permute_unpack(
    rank: int, src: str, dst: str, tag: str, segs
) -> LocalCopy:
    """Inverse of :func:`_permute_pack`."""
    natural, permuted = segs
    return LocalCopy(
        rank=rank,
        src_buf=src,
        dst_buf=dst,
        src_segments=permuted,
        dst_segments=natural,
        tag=tag,
    )


def reduce_scatter_butterfly(
    bf: Butterfly,
    n: int,
    op: str = "sum",
    strategy: Strategy = Strategy.NATURAL,
    *,
    fixup: bool = True,
) -> Schedule:
    """Vector-halving reduce-scatter over butterfly ``bf``.

    Every rank's ``vec`` starts as its full contribution.  On exit rank ``r``
    holds the reduced block ``r`` at its natural position — except under
    ``Strategy.SEND`` with ``fixup=False``, where rank ``r`` holds reduced
    block ``π(r)`` at position ``π(r)`` (the state the paired allgather
    consumes; see :func:`allreduce_reduce_scatter_allgather`).
    """
    p, s = bf.p, bf.num_steps
    part = Partition(n, p)
    meta = {
        "collective": "reduce_scatter",
        "algorithm": bf.kind,
        "strategy": strategy.value,
        "p": p,
        "n": n,
        "op": op,
    }
    sched = Schedule(p, meta=meta)

    resp = resp_backend(bf)

    if strategy in (Strategy.NATURAL, Strategy.BLOCKS, Strategy.TWO_TRANSMISSIONS):
        seg_of = _seg_getter(bf, part, resp, strategy)
        for j in range(s):
            transfers = []
            for r in range(p):
                q = bf.partner(r, j)
                segs = seg_of(q, j + 1)
                transfers.append(
                    Transfer(
                        src=r, dst=q, src_buf=VEC, dst_buf=VEC,
                        src_segments=segs, dst_segments=segs, op=op,
                        tag=f"rs[{j}]",
                    )
                )
            sched.add(Step(transfers=tuple(transfers), label=f"rs step {j}"))
        return sched.finalize()

    # π-space flows (permute / send)
    bs = require_divisible(n, p, f"reduce-scatter strategy {strategy.value}")
    pi = global_pi(p)
    pi_arr = np.array(pi)
    window = _pi_window_getter(bf, resp, pi_arr, bs)
    work = TMP if strategy is Strategy.PERMUTE else VEC
    for j in range(s):
        pre = ()
        if j == 0 and strategy is Strategy.PERMUTE:
            segs2 = _permute_segments(p, n, pi)
            pre = tuple(
                _permute_pack(r, VEC, TMP, "rs permute-in", segs2) for r in range(p)
            )
        transfers = []
        for r in range(p):
            q = bf.partner(r, j)
            segs = window(q, j + 1)
            transfers.append(
                Transfer(
                    src=r, dst=q, src_buf=work, dst_buf=work,
                    src_segments=segs, dst_segments=segs, op=op,
                    tag=f"rs[{j}]",
                )
            )
        post = ()
        if j == s - 1 and strategy is Strategy.PERMUTE:
            post = tuple(
                LocalCopy(
                    rank=r, src_buf=TMP, dst_buf=VEC,
                    src_segments=((pi[r] * bs, (pi[r] + 1) * bs),),
                    dst_segments=((r * bs, (r + 1) * bs),),
                    tag="rs permute-out",
                )
                for r in range(p)
            )
        sched.add(Step(transfers=tuple(transfers), pre=pre, post=post, label=f"rs step {j}"))

    if strategy is Strategy.SEND and fixup:
        # Final exchange: rank r holds block π(r); ship it home (Sec. 4.3.1).
        transfers = tuple(
            Transfer(
                src=r, dst=pi[r], src_buf=VEC, dst_buf=VEC,
                src_segments=((pi[r] * bs, (pi[r] + 1) * bs),),
                dst_segments=((pi[r] * bs, (pi[r] + 1) * bs),),
                tag="rs send-fixup",
            )
            for r in range(p)
            if pi[r] != r
        )
        sched.add(Step(transfers=transfers, label="rs send fixup"))
    return sched.finalize()


def allgather_butterfly(
    bf: Butterfly,
    n: int,
    strategy: Strategy = Strategy.NATURAL,
    *,
    initial_exchange: bool = True,
) -> Schedule:
    """Vector-doubling allgather: the reverse flow of ``reduce_scatter(bf)``.

    ``bf`` is the butterfly of the reduce-scatter being reversed, so the
    *matchings run backwards* (for Bine pass the distance-doubling butterfly
    and the allgather becomes distance-halving, Eq. 4).  Every rank's ``vec``
    starts with only its own block meaningful; all ranks end with the full
    vector.

    Under ``Strategy.SEND``, ``initial_exchange=True`` prepends the
    paper's reordering transmission (rank ``v`` ships its block to
    ``π⁻¹(v)``); ``False`` assumes ranks already hold block ``π(r)`` at
    position ``π(r)`` — the reduce-scatter(SEND, fixup=False) exit state.
    """
    p, s = bf.p, bf.num_steps
    part = Partition(n, p)
    meta = {
        "collective": "allgather",
        "algorithm": bf.kind,
        "strategy": strategy.value,
        "p": p,
        "n": n,
    }
    sched = Schedule(p, meta=meta)

    resp = resp_backend(bf)

    if strategy in (Strategy.NATURAL, Strategy.BLOCKS, Strategy.TWO_TRANSMISSIONS):
        seg_of = _seg_getter(bf, part, resp, strategy)
        for k in range(s):
            j = s - 1 - k
            transfers = []
            for r in range(p):
                q = bf.partner(r, j)
                segs = seg_of(r, j + 1)
                transfers.append(
                    Transfer(
                        src=r, dst=q, src_buf=VEC, dst_buf=VEC,
                        src_segments=segs, dst_segments=segs,
                        tag=f"ag[{k}]",
                    )
                )
            sched.add(Step(transfers=tuple(transfers), label=f"ag step {k}"))
        return sched.finalize()

    bs = require_divisible(n, p, f"allgather strategy {strategy.value}")
    pi = global_pi(p)
    pi_arr = np.array(pi)
    pi_inv = global_pi_inv(p)
    work = TMP if strategy is Strategy.PERMUTE else VEC

    if strategy is Strategy.PERMUTE:
        pre = tuple(
            LocalCopy(
                rank=r, src_buf=VEC, dst_buf=TMP,
                src_segments=((r * bs, (r + 1) * bs),),
                dst_segments=((pi[r] * bs, (pi[r] + 1) * bs),),
                tag="ag permute-in",
            )
            for r in range(p)
        )
        sched.add(Step(pre=pre, label="ag permute in"))
    elif strategy is Strategy.SEND and initial_exchange:
        transfers = tuple(
            Transfer(
                src=v, dst=pi_inv[v], src_buf=VEC, dst_buf=VEC,
                src_segments=((v * bs, (v + 1) * bs),),
                dst_segments=((v * bs, (v + 1) * bs),),
                tag="ag send-reorder",
            )
            for v in range(p)
            if pi_inv[v] != v
        )
        sched.add(Step(transfers=transfers, label="ag send reorder"))

    window = _pi_window_getter(bf, resp, pi_arr, bs)
    for k in range(s):
        j = s - 1 - k
        transfers = []
        for r in range(p):
            q = bf.partner(r, j)
            segs = window(r, j + 1)
            transfers.append(
                Transfer(
                    src=r, dst=q, src_buf=work, dst_buf=work,
                    src_segments=segs, dst_segments=segs,
                    tag=f"ag[{k}]",
                )
            )
        post = ()
        if k == s - 1 and strategy is Strategy.PERMUTE:
            segs2 = _permute_segments(p, n, pi)
            post = tuple(
                _permute_unpack(r, TMP, VEC, "ag permute-out", segs2) for r in range(p)
            )
        sched.add(Step(transfers=tuple(transfers), post=post, label=f"ag step {k}"))
    if strategy is Strategy.SEND:
        # π-space content is natural blocks at natural positions already.
        pass
    return sched.finalize()


def allreduce_recursive(bf: Butterfly, n: int, op: str = "sum") -> Schedule:
    """Small-vector allreduce: whole-vector exchange + reduce every step.

    Works on any proper butterfly; with the Bine distance-halving butterfly
    this is the paper's small-vector Bine allreduce (Sec. 4.4).
    """
    p, s = bf.p, bf.num_steps
    sched = Schedule(
        p,
        meta={
            "collective": "allreduce",
            "algorithm": f"recursive-{bf.kind}",
            "p": p,
            "n": n,
            "op": op,
        },
    )
    for j in range(s):
        transfers = tuple(
            Transfer(
                src=r, dst=bf.partner(r, j), src_buf=VEC, dst_buf=VEC,
                src_segments=((0, n),), dst_segments=((0, n),), op=op,
                tag=f"ar[{j}]",
            )
            for r in range(p)
        )
        sched.add(Step(transfers=transfers, label=f"allreduce step {j}"))
    return sched.finalize()


def allreduce_reduce_scatter_allgather(
    bf: Butterfly,
    n: int,
    op: str = "sum",
    strategy: Strategy = Strategy.NATURAL,
    *,
    segmented: bool = False,
) -> Schedule:
    """Large-vector allreduce: reduce-scatter followed by allgather.

    Under ``Strategy.SEND`` neither phase performs any data reordering: the
    allgather implicitly undoes the reduce-scatter's implicit permutation
    (the paper's key Bine trick for contiguous transmission).  ``segmented``
    marks the schedule for pipelined execution in the cost model
    (Sec. 5.2.2); it does not change the bytes moved.
    """
    rs = reduce_scatter_butterfly(bf, n, op, strategy, fixup=False)
    ag = allgather_butterfly(bf, n, strategy, initial_exchange=False)
    sched = Schedule(
        bf.p,
        meta={
            "collective": "allreduce",
            "algorithm": f"rsag-{bf.kind}",
            "strategy": strategy.value,
            "p": bf.p,
            "n": n,
            "op": op,
            "segmented": segmented,
        },
    )
    if strategy is Strategy.PERMUTE:
        # One permute in, one permute out — skip the RS's unpack and the
        # AG's pack, keeping the flow in π space across the seam.
        rs_steps = list(rs.steps)
        rs_steps[-1] = Step(
            transfers=rs_steps[-1].transfers, pre=rs_steps[-1].pre,
            post=(), label=rs_steps[-1].label,
        )
        ag_steps = [st for st in ag.steps if st.transfers or st.post]
        ag_steps = [st for st in ag_steps if st.label != "ag permute in"]
        sched.steps = rs_steps + ag_steps
    else:
        sched.steps = list(rs.steps) + list(ag.steps)
    return sched.finalize()
