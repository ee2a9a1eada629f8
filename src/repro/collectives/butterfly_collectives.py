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

Each flow is described once, as a :class:`Flow`: a per-step plan over rank
arrays (partner row, whose responsibility set is sent at which resp step,
op, buffer, local-op rows).  Two renderings consume it:

* :func:`render_schedule` — the executor's :class:`Schedule`, with segment
  tuples from the cached responsibility-set backends;
* :func:`render_table` — the profiler's
  :class:`~repro.model.compiled.TransferTable` at the canonical size
  ``n = p``, straight from closed-form set sizes and run counts: no
  per-rank Python, no segment tuples.  It equals
  ``lower_schedule(render_schedule(flow))`` column for column.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from repro.core.bine_tree import nu_labels
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
from repro.runtime.errors import ScheduleError
from repro.runtime.memo import Memo
from repro.runtime.schedule import LocalCopy, Schedule, Step, Transfer

__all__ = [
    "reduce_scatter_butterfly",
    "allgather_butterfly",
    "allreduce_recursive",
    "allreduce_reduce_scatter_allgather",
    "Flow",
    "FlowStep",
    "reduce_scatter_flow",
    "allgather_flow",
    "allreduce_recursive_flow",
    "allreduce_rsag_flow",
    "render_schedule",
    "render_table",
    "step_table",
    "concat_tables",
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

_PI_SPACE = (Strategy.PERMUTE, Strategy.SEND)


def rs_butterfly_for(flavor: str, p: int) -> tuple[Butterfly, Strategy]:
    """Resolve a reduce-scatter flavor name to its butterfly and strategy."""
    try:
        builder, strategy = RS_FLAVORS[flavor]
    except KeyError:
        raise KeyError(f"unknown RS flavor {flavor!r}; have {sorted(RS_FLAVORS)}") from None
    return builder(p), strategy


# -- the plan ----------------------------------------------------------------


class _Local(NamedTuple):
    """Per-rank local copy between the natural and π layouts (Fig. 8).

    Natural ``vec`` → π ``tmp`` when ``to_pi`` (else back), moving every
    block when ``whole`` (else only the rank's own block).
    """

    tag: str
    to_pi: bool
    whole: bool


_RS_PACK = _Local("rs permute-in", True, True)
_RS_UNPACK_OWN = _Local("rs permute-out", False, False)
_AG_PACK_OWN = _Local("ag permute-in", True, False)
_AG_UNPACK = _Local("ag permute-out", False, True)


@dataclass(frozen=True, eq=False)
class FlowStep:
    """One step of a butterfly flow, as rank arrays.

    Row ``i`` is a transfer ``src[i] → dst[i]`` carrying the responsibility
    set of rank ``owner[i]`` before butterfly step ``resp_step`` (resp step
    0 is the whole vector), or, with ``resp_step=None``, the single block
    ``owner[i]``.  ``pre``/``post`` are one local copy on every rank.
    """

    label: str
    tag: str
    src: np.ndarray
    dst: np.ndarray
    owner: np.ndarray
    resp_step: int | None
    op: str | None = None
    buf: str = VEC
    pre: _Local | None = None
    post: _Local | None = None


@dataclass(frozen=True, eq=False)
class Flow:
    """A butterfly collective as a step plan, before rendering."""

    bf: Butterfly
    n: int
    strategy: Strategy
    meta: dict
    steps: tuple[FlowStep, ...]


def _partner_rows(bf: Butterfly) -> np.ndarray:
    return np.array(bf.partners, dtype=np.intp).reshape(bf.num_steps, bf.p)


def _pi_array(p: int) -> np.ndarray:
    return np.array(global_pi(p), dtype=np.intp)


def reduce_scatter_flow(
    bf: Butterfly,
    n: int,
    op: str = "sum",
    strategy: Strategy = Strategy.NATURAL,
    *,
    fixup: bool = True,
) -> Flow:
    """Plan of :func:`reduce_scatter_butterfly`."""
    p, s = bf.p, bf.num_steps
    if strategy in _PI_SPACE:
        require_divisible(n, p, f"reduce-scatter strategy {strategy.value}")
    permute = strategy is Strategy.PERMUTE
    rows, ranks = _partner_rows(bf), np.arange(p)
    steps = [
        FlowStep(
            f"rs step {j}", f"rs[{j}]", ranks, rows[j], rows[j], j + 1, op,
            TMP if permute else VEC,
            pre=_RS_PACK if permute and j == 0 else None,
            post=_RS_UNPACK_OWN if permute and j == s - 1 else None,
        )
        for j in range(s)
    ]
    if strategy is Strategy.SEND and fixup:
        # Final exchange: rank r holds block π(r); ship it home (Sec. 4.3.1).
        pi = _pi_array(p)
        moved = np.nonzero(pi != ranks)[0]
        steps.append(FlowStep(
            "rs send fixup", "rs send-fixup", moved, pi[moved], pi[moved], None,
        ))
    meta = {"collective": "reduce_scatter", "algorithm": bf.kind,
            "strategy": strategy.value, "p": p, "n": n, "op": op}
    return Flow(bf, n, strategy, meta, tuple(steps))


def allgather_flow(
    bf: Butterfly,
    n: int,
    strategy: Strategy = Strategy.NATURAL,
    *,
    initial_exchange: bool = True,
) -> Flow:
    """Plan of :func:`allgather_butterfly`."""
    p, s = bf.p, bf.num_steps
    if strategy in _PI_SPACE:
        require_divisible(n, p, f"allgather strategy {strategy.value}")
    permute = strategy is Strategy.PERMUTE
    rows, ranks = _partner_rows(bf), np.arange(p)
    steps = []
    if permute:
        none = ranks[:0]
        steps.append(FlowStep(
            "ag permute in", "", none, none, none, None, pre=_AG_PACK_OWN,
        ))
    elif strategy is Strategy.SEND and initial_exchange:
        pi_inv = np.array(global_pi_inv(p), dtype=np.intp)
        moved = np.nonzero(pi_inv != ranks)[0]
        steps.append(FlowStep(
            "ag send reorder", "ag send-reorder", moved, pi_inv[moved], moved, None,
        ))
    steps += [
        FlowStep(
            f"ag step {k}", f"ag[{k}]", ranks, rows[s - 1 - k], ranks, s - k,
            buf=TMP if permute else VEC,
            post=_AG_UNPACK if permute and k == s - 1 else None,
        )
        for k in range(s)
    ]
    meta = {"collective": "allgather", "algorithm": bf.kind,
            "strategy": strategy.value, "p": p, "n": n}
    return Flow(bf, n, strategy, meta, tuple(steps))


def allreduce_recursive_flow(bf: Butterfly, n: int, op: str = "sum") -> Flow:
    """Plan of :func:`allreduce_recursive`."""
    rows, ranks = _partner_rows(bf), np.arange(bf.p)
    steps = tuple(
        FlowStep(f"allreduce step {j}", f"ar[{j}]", ranks, rows[j], ranks, 0, op)
        for j in range(bf.num_steps)
    )
    meta = {"collective": "allreduce", "algorithm": f"recursive-{bf.kind}",
            "p": bf.p, "n": n, "op": op}
    return Flow(bf, n, Strategy.NATURAL, meta, steps)


def allreduce_rsag_flow(
    bf: Butterfly,
    n: int,
    op: str = "sum",
    strategy: Strategy = Strategy.NATURAL,
    *,
    segmented: bool = False,
) -> Flow:
    """Plan of :func:`allreduce_reduce_scatter_allgather`."""
    rs = list(reduce_scatter_flow(bf, n, op, strategy, fixup=False).steps)
    ag = list(allgather_flow(bf, n, strategy, initial_exchange=False).steps)
    if strategy is Strategy.PERMUTE:
        # One permute in, one permute out — skip the RS's unpack and the
        # AG's pack, keeping the flow in π space across the seam.
        if rs:
            rs[-1] = replace(rs[-1], post=None)
        ag = ag[1:]
    meta = {"collective": "allreduce", "algorithm": f"rsag-{bf.kind}",
            "strategy": strategy.value, "p": bf.p, "n": n, "op": op,
            "segmented": segmented}
    return Flow(bf, n, strategy, meta, tuple(rs + ag))


# -- rendering: Schedule -----------------------------------------------------


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
#: (allreduce builds both back to back, and verification revisits the same
#: butterflies per collective), so entries are reused several times over.
#: Only :func:`render_schedule` fills it: sweep tables render without
#: segment tuples.  Unbounded and uncounted: the inner loop reads it as a
#: plain dict.
_SEG_CACHE = Memo("butterfly_collectives._SEG_CACHE")


def _set_segments(bf: Butterfly, n: int, strategy: Strategy):
    """``segs(rank, step)``: wire segments of ``resp(rank, step)``.

    Natural-layout segments are cached across schedules at the canonical
    size ``n = p``, π windows at any size.
    """
    p, resp = bf.p, resp_backend(bf)
    if strategy in _PI_SPACE:
        pi, bs = _pi_array(p), n // p

        def compute(rank: int, step: int):
            ctx = f"{bf.kind} rank {rank} step {step}"
            return _pi_window(pi, resp(rank, step), bs, ctx)

        layout = ("pi", bs)
    else:
        part = Partition(n, p)

        def compute(rank: int, step: int):
            return _segments_for(part, resp(rank, step), strategy)

        layout = (strategy.value,) if n == p else None
    ckind = _CACHEABLE_KINDS.get(bf.kind)
    if ckind is None or layout is None:
        return compute
    prefix = (ckind, p) + layout

    def segs(rank: int, step: int):
        key = prefix + (step, rank)
        out = _SEG_CACHE.get(key)
        if out is None:
            out = _SEG_CACHE[key] = compute(rank, step)
        return out

    return segs


def _pi_window(pi_arr: np.ndarray, blocks: np.ndarray, block_size: int, ctx: str):
    """Single contiguous element segment covering π(blocks), or raise."""
    positions = pi_arr[blocks]
    lo = int(positions.min())
    hi = int(positions.max()) + 1
    if hi - lo != positions.size:
        raise ScheduleError(f"π window not contiguous for {ctx}")
    return ((lo * block_size, hi * block_size),)


def _local_copies(local: _Local | None, p: int, n: int) -> tuple[LocalCopy, ...]:
    """``local`` on every rank, natural ↔ π layout (the Fig. 8 permutation).

    Whole-vector copies share one pair of segment tuples across all ranks.
    """
    if local is None:
        return ()
    bs, pi = n // p, global_pi(p)

    def block(b: int):
        return (b * bs, (b + 1) * bs)

    if local.whole:
        whole = (tuple(map(block, range(p))), tuple(block(pi[b]) for b in range(p)))
        pairs = [whole] * p
    else:
        pairs = [((block(r),), (block(pi[r]),)) for r in range(p)]
    src_buf, dst_buf = (VEC, TMP) if local.to_pi else (TMP, VEC)
    return tuple(
        LocalCopy(
            rank=r, src_buf=src_buf, dst_buf=dst_buf,
            src_segments=nat if local.to_pi else perm,
            dst_segments=perm if local.to_pi else nat,
            tag=local.tag,
        )
        for r, (nat, perm) in enumerate(pairs)
    )


def render_schedule(flow: Flow) -> Schedule:
    """The executor's :class:`Schedule` for ``flow`` (validated on exit)."""
    bf, n, strategy = flow.bf, flow.n, flow.strategy
    p = bf.p
    bs = n // p
    resp_segs = _set_segments(bf, n, strategy)
    sched = Schedule(p, meta=flow.meta)
    for st in flow.steps:
        owners = st.owner.tolist()
        if st.resp_step is None:
            segs = [((b * bs, (b + 1) * bs),) for b in owners]
        elif st.resp_step == 0:
            segs = [((0, n),)] * len(owners)
        else:
            segs = [resp_segs(o, st.resp_step) for o in owners]
        transfers = tuple(
            Transfer(
                src=r, dst=q, src_buf=st.buf, dst_buf=st.buf,
                src_segments=g, dst_segments=g, op=st.op, tag=st.tag,
            )
            for r, q, g in zip(st.src.tolist(), st.dst.tolist(), segs)
        )
        sched.add(Step(
            transfers=transfers,
            pre=_local_copies(st.pre, p, n),
            post=_local_copies(st.post, p, n),
            label=st.label,
        ))
    return sched.finalize()


# -- rendering: TransferTable ------------------------------------------------


def _run_counts(bf: Butterfly, strategy: Strategy):
    """``runs(step, owner)``: wire segments of each owner's set before ``step``.

    Closed forms at ``n = p`` (block ``b`` is element ``b``), one array
    pass per step; entry ``i`` equals the segment count the schedule path
    gets for ``resp(owner[i], step)`` (a scalar when all are equal).
    """
    p, s = bf.p, bf.num_steps
    rows = _partner_rows(bf)
    ranks = np.arange(p)
    if strategy is Strategy.BLOCKS:
        return lambda step, owner: p >> step
    if strategy in _PI_SPACE:
        # each set is one π window; check contiguity exactly as
        # _pi_window does, with min/max merged up the butterfly recursion
        # resp(r, j) = resp(r, j+1) ⊎ resp(partner(r, j), j+1)
        pi = _pi_array(p)
        lo, hi = {s: pi}, {s: pi}
        for j in range(s - 1, 0, -1):
            lo[j] = np.minimum(lo[j + 1], lo[j + 1][rows[j]])
            hi[j] = np.maximum(hi[j + 1], hi[j + 1][rows[j]])

        def windows(step: int, owner: np.ndarray) -> int:
            span = hi[step][owner] - lo[step][owner] + 1
            bad = np.nonzero(span != p >> step)[0]
            if bad.size:
                raise ScheduleError(
                    f"π window not contiguous for {bf.kind} "
                    f"rank {owner[bad[0]]} step {step}"
                )
            return 1

        return windows
    if bf.kind == "rechalv":  # contiguous halves
        return lambda step, owner: 1
    if bf.kind == "recdoub":  # stride 2^step: every block its own run
        return lambda step, owner: p >> step
    if bf.kind in ("bine-doubling", "swing"):
        # resp(r, step) = r ± B, B = {b : ν(b) & ones(step) = 0} (Sec.
        # 3.2.3): a rotation or reflection of B, so its circular run count
        # is B's; a circular run through p−1 → 0 splits into two
        nus = np.array(nu_labels(p), dtype=np.int64)
        even = ranks % 2 == 0

        def rotated(step: int, owner: np.ndarray) -> np.ndarray:
            in_b = (nus & ((1 << step) - 1)) == 0
            circ = np.count_nonzero(in_b & ~np.roll(in_b, 1))
            has_first = np.where(even, in_b[-ranks % p], in_b[ranks])
            has_last = np.where(even, in_b[(p - 1 - ranks) % p], in_b[(ranks + 1) % p])
            return (circ + (has_first & has_last))[owner]

        return rotated
    if bf.kind == "bine-halving":
        # circular (start, len) ranges merged up the recursion, as
        # fastresp's circular backend does per rank
        start = {s: ranks}
        for j in range(s - 1, 0, -1):
            mine, theirs, size = start[j + 1], start[j + 1][rows[j]], p >> (j + 1)
            mine_first = (mine + size) % p == theirs
            bad = np.nonzero(~mine_first & ((theirs + size) % p != mine))[0]
            if bad.size:
                raise ValueError(
                    f"{bf.kind}: responsibility sets not circular-contiguous "
                    f"at rank {bad[0]} step {j}"
                )
            start[j] = np.where(mine_first, mine, theirs)
        return lambda step, owner: 1 + (start[step][owner] + (p >> step) > p)
    raise NotImplementedError(f"no closed-form segment counts for {bf.kind!r}")


def _column(parts, dtype) -> np.ndarray:
    return np.concatenate([np.zeros(0, dtype), *parts]).astype(dtype)


def _offsets(rows) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(rows))).astype(np.intp)


def step_table(meta: dict, steps, local_whole=None, reps=None):
    """The :class:`~repro.model.compiled.TransferTable` at ``n = p`` of
    per-step rank arrays.

    ``steps[i]`` is step ``i`` as ``(src, dst, nelems, num_segments,
    has_op)``: two rank arrays, then values broadcast over its transfers.
    ``local_whole[i]`` lists step ``i``'s local copies, pre then post, each
    one per rank of the whole vector when true, else of one block (default:
    no local copies).  ``reps[i]`` is how many times step ``i`` runs back
    to back (default: once each).
    """
    from repro.model.compiled import TransferTable  # keeps registry imports light

    p = meta["p"]
    rows = [st[0].size for st in steps]
    local_whole = [()] * len(steps) if local_whole is None else local_whole
    whole = [w for step_locals in local_whole for w in step_locals]

    def column(k: int, dtype) -> np.ndarray:
        return _column([np.broadcast_to(st[k], m) for st, m in zip(steps, rows)], dtype)

    return TransferTable(
        p=p,
        n_build=p,
        meta=dict(meta),
        step_off=_offsets(rows),
        step_reps=np.asarray(
            [1] * len(steps) if reps is None else reps, dtype=np.int64
        ),
        src=column(0, np.intp),
        dst=column(1, np.intp),
        nelems=column(2, np.int64),
        num_segments=column(3, np.int64),
        has_op=column(4, bool),
        local_off=_offsets([p * len(step_locals) for step_locals in local_whole]),
        local_rank=np.tile(np.arange(p, dtype=np.intp), len(whole)),
        local_nelems=np.repeat(np.where(whole, p, 1).astype(np.int64), p),
        local_has_op=np.zeros(p * len(whole), dtype=bool),
    )


def concat_tables(meta: dict, *tables):
    """One table running ``tables`` back to back, as a composed schedule
    runs its phases: the lowering of the concatenated schedules (per-step
    columns such as ``step_reps`` concatenate like the row columns)."""
    columns = {}
    for f in fields(tables[0]):
        parts = [getattr(t, f.name) for t in tables]
        if f.name.endswith("_off"):
            columns[f.name] = _offsets(_column(map(np.diff, parts), np.intp))
        elif isinstance(parts[0], np.ndarray):
            columns[f.name] = _column(parts, parts[0].dtype)
    return replace(tables[0], meta=dict(meta), **columns)


def render_table(flow: Flow):
    """The profiler's :class:`~repro.model.compiled.TransferTable` for ``flow``.

    Renders at the canonical build size ``n = p`` only; equal to
    ``lower_schedule(render_schedule(flow))`` in every column.
    """
    bf, p = flow.bf, flow.bf.p
    if flow.n != p:
        raise ValueError(f"tables render at n = p (got n={flow.n}, p={p})")
    runs = None
    steps = []
    for st in flow.steps:
        if st.resp_step is None:  # one block
            size, count = 1, 1
        elif st.resp_step == 0:  # the whole vector
            size, count = p, 1
        else:
            runs = runs or _run_counts(bf, flow.strategy)
            size, count = p >> st.resp_step, runs(st.resp_step, st.owner)
        steps.append((st.src, st.dst, size, count, st.op is not None))
    return step_table(flow.meta, steps, [
        [lc.whole for lc in (st.pre, st.post) if lc is not None] for st in flow.steps
    ])


# -- the public builders -----------------------------------------------------


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
    return render_schedule(reduce_scatter_flow(bf, n, op, strategy, fixup=fixup))


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
    return render_schedule(
        allgather_flow(bf, n, strategy, initial_exchange=initial_exchange)
    )


def allreduce_recursive(bf: Butterfly, n: int, op: str = "sum") -> Schedule:
    """Small-vector allreduce: whole-vector exchange + reduce every step.

    Works on any proper butterfly; with the Bine distance-halving butterfly
    this is the paper's small-vector Bine allreduce (Sec. 4.4).
    """
    return render_schedule(allreduce_recursive_flow(bf, n, op))


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
    return render_schedule(
        allreduce_rsag_flow(bf, n, op, strategy, segmented=segmented)
    )
