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
op, buffer, local-op rows).  :func:`flow_steps` renders it as arrays
(:class:`~repro.runtime.schedule.ArrayStep`), reading one per-step set
geometry (:class:`_SetGeometry`: ν-mask rotations, circular ranges,
hypercube ranges, π windows, evaluated over all ranks at once).  It is
the flow's one description of what moves:

* the sweep's :class:`~repro.model.compiled.TransferTable` is lowered
  from each step's element and segment counts
  (:func:`~repro.model.compiled.lower_steps`), closed-form set sizes and
  run counts when every block holds ``n / p`` elements: no per-rank
  Python, no segment arrays;
* each step's wire segments, every rank's in one NumPy pass, are made
  only when read: :func:`render_schedule` builds the executor's
  :class:`Schedule` from them
  (:func:`~repro.runtime.schedule.schedule_from_arrays`), the registry
  lowers the verifier's plan from them
  (:func:`~repro.runtime.compiled.plan_from_arrays`), and the torus and
  hierarchical builders overlay sub-collectives with them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, cached_property
from typing import Iterator, NamedTuple

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
from repro.runtime.errors import ScheduleError
from repro.runtime.schedule import (
    ArrayPhase,
    ArrayStep,
    EveryRank,
    Schedule,
    expand_runs,
    schedule_from_arrays,
)

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
    "flow_steps",
    "flow_buffers",
    "flow_stream",
    "block_edges",
    "circular_bounds",
    "wire_arrays",
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
    rows, ranks = bf.partners, np.arange(p)
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
        pi = global_pi(p)
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
    rows, ranks = bf.partners, np.arange(p)
    steps = []
    if permute:
        none = ranks[:0]
        steps.append(FlowStep(
            "ag permute in", "", none, none, none, None, pre=_AG_PACK_OWN,
        ))
    elif strategy is Strategy.SEND and initial_exchange:
        pi_inv = global_pi_inv(p)
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
    rows, ranks = bf.partners, np.arange(bf.p)
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


# -- the responsibility-set geometry -----------------------------------------


class _SetGeometry:
    """Every rank's responsibility set under ``bf``, one step at a time.

    The sets obey the butterfly recursion ``resp(r, j) = resp(r, j+1) ⊎
    resp(partner(r, j), j+1)`` (:mod:`repro.core.coverage`); here they are
    evaluated over rank arrays, from the kind's closed form or merged
    along the partner rows: :meth:`counts` (closed-form where the kind
    has one, so sweep tables stay O(p) per step) and :meth:`bounds`.

    Under the π-space strategies a set is one window of π positions;
    :meth:`check` is the one place its contiguity is checked.
    """

    def __init__(self, bf: Butterfly, strategy: Strategy):
        self.bf, self.strategy, self.p, self.rows = bf, strategy, bf.p, bf.partners

    @cached_property
    def _pi_bounds(self):
        # min/max π position of each set, merged up the recursion
        s, pi, rows = self.bf.num_steps, global_pi(self.p), self.rows
        lo, hi = {s: pi}, {s: pi}
        for j in range(s - 1, 0, -1):
            lo[j] = np.minimum(lo[j + 1], lo[j + 1][rows[j]])
            hi[j] = np.maximum(hi[j + 1], hi[j + 1][rows[j]])
        return lo, hi

    @cached_property
    def _circular_start(self) -> dict[int, np.ndarray]:
        # bine-halving: circular (start, len) ranges merged up the
        # recursion; a partner's range must continue one's own
        p, s, rows = self.p, self.bf.num_steps, self.rows
        start = {s: np.arange(p)}
        for j in range(s - 1, 0, -1):
            mine, theirs, size = start[j + 1], start[j + 1][rows[j]], p >> (j + 1)
            mine_first = (mine + size) % p == theirs
            bad = np.nonzero(~mine_first & ((theirs + size) % p != mine))[0]
            if bad.size:
                raise ValueError(
                    f"{self.bf.kind}: responsibility sets not circular-contiguous "
                    f"at rank {bad[0]} step {j}"
                )
            start[j] = np.where(mine_first, mine, theirs)
        return start

    @cached_property
    def _nus(self) -> np.ndarray:
        return nu_labels(self.p)

    def _nu_base(self, step: int) -> np.ndarray:
        # B = {b : ν(b) & ones(step) = 0}: resp(r, step) = r ± B (Sec. 3.2.3)
        return (self._nus & ((1 << step) - 1)) == 0

    def check(self, step: int, owner: np.ndarray) -> None:
        """Raise unless each owner's π window before ``step`` is contiguous,
        naming the first failing owner in ``owner`` order (no-op outside
        π space)."""
        if self.strategy not in _PI_SPACE:
            return
        lo, hi = self._pi_bounds
        span = hi[step][owner] - lo[step][owner] + 1
        bad = np.nonzero(span != self.p >> step)[0]
        if bad.size:
            raise ScheduleError(
                f"π window not contiguous for {self.bf.kind} "
                f"rank {owner[bad[0]]} step {step}"
            )

    def counts(self, step: int):
        """Wire segments of every rank's set before ``step`` when no block
        is empty (an array over ranks, or a scalar when all are equal)."""
        p, kind = self.p, self.bf.kind
        if self.strategy is Strategy.BLOCKS or kind == "recdoub":
            return p >> step  # every block its own run
        if self.strategy in _PI_SPACE or kind == "rechalv":
            return 1  # one window, or contiguous halves
        if kind in ("bine-doubling", "swing"):
            # a rotation or reflection of B, so its circular run count is
            # B's; a circular run through p−1 → 0 splits into two
            ranks, in_b = np.arange(p), self._nu_base(step)
            even = ranks % 2 == 0
            circ = np.count_nonzero(in_b & ~np.roll(in_b, 1))
            has_first = np.where(even, in_b[-ranks % p], in_b[ranks])
            has_last = np.where(even, in_b[(p - 1 - ranks) % p], in_b[(ranks + 1) % p])
            return circ + (has_first & has_last)
        if kind == "bine-halving":
            return 1 + (self._circular_start[step] + (p >> step) > p)
        # no closed form: the runs of the merged blocks, 2**14 blocks at a time
        per = max(1, (1 << 14) // (p >> step))
        return np.concatenate([
            1 + np.count_nonzero(np.diff(self._blocks(part, step), axis=1) > 1, axis=1)
            for part in np.array_split(np.arange(p), range(per, p, per))
        ])

    def _blocks(self, ranks: np.ndarray, step: int) -> np.ndarray:
        """Each of ``ranks``' sets before ``step``, one ascending row per
        rank: every rank the steps ``step, step + 1, …`` carry it to."""
        blocks = ranks[:, None]
        for row in self.rows[step:]:
            blocks = np.hstack((blocks, row[blocks]))
        return np.sort(blocks, axis=1)

    def bounds(self, step: int):
        """Every rank's set before ``step`` as block ranges ``(rank, lo,
        hi)``: flat, rank-major, disjoint and ascending within a rank (π
        windows in π positions).  Ranges may touch; :func:`wire_arrays`
        merges them."""
        p, kind, ranks = self.p, self.bf.kind, np.arange(self.p)
        size = p >> step
        if self.strategy in _PI_SPACE:
            lo = self._pi_bounds[0][step]
            return ranks, lo, lo + size
        if kind == "rechalv":
            lo = ranks - ranks % size
            return ranks, lo, lo + size
        if kind == "bine-halving":
            return circular_bounds(self._circular_start[step], size, p)
        if kind == "recdoub":  # the blocks sharing r's low ``step`` bits
            blocks = ((ranks % (1 << step))[:, None] + (np.arange(size) << step)).ravel()
        else:  # every rank's blocks, merged along the partner rows
            blocks = self._blocks(ranks, step).ravel()
        return np.repeat(ranks, size), blocks, blocks + 1


# -- rendering: steps as arrays ----------------------------------------------


def block_edges(n: int, p: int) -> np.ndarray:
    """Element offset of every block boundary ``0..p`` of ``Partition(n,
    p)``: the first ``n mod p`` blocks hold one extra element."""
    q, r = divmod(n, p)
    b = np.arange(p + 1)
    return b * q + np.minimum(b, r)


def circular_bounds(start: np.ndarray, size: int, p: int):
    """Item ``i``'s circular block range ``[start[i], start[i] + size)``
    as ascending block ranges ``(item, lo, hi)``: a range wrapping past
    ``p − 1`` is ``[0, end − p)`` then ``[start, p)``."""
    items = np.arange(start.size)
    end = start + size
    keep = np.stack([end > p, np.ones(start.size, dtype=bool)], axis=1)
    item = np.stack([items, items], axis=1)[keep]
    lo = np.stack([np.zeros_like(start), start], axis=1)[keep]
    hi = np.stack([end - p, np.minimum(end, p)], axis=1)[keep]
    return item, lo, hi


def _merged(rank: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Rank-major ranges with each rank's touching neighbours joined."""
    join = (rank[1:] == rank[:-1]) & (hi[:-1] == lo[1:])
    first = np.flatnonzero(np.append(True, ~join))
    last = np.append(first[1:], rank.size) - 1
    return rank[first], lo[first], hi[last]


def wire_arrays(n: int, p: int, per_block: bool, bounds):
    """Every item's wire segments from its block ranges ``(item, lo,
    hi)`` (items ``0..p − 1``, item-major), as
    :class:`~repro.core.blocks.Partition` lays blocks out: flat columns
    ``(cut, lo, hi)``, item ``i``'s segments at ``cut[i]:cut[i + 1]``.

    ``per_block`` sends one segment per block, in range order.  Otherwise
    ranges coalesce on element adjacency, as ``Partition.segments`` does:
    with ``n < p`` zero-size blocks join ranges across blocks that are not
    consecutive.
    """
    edge = block_edges(n, p)
    item, lo, hi = bounds
    if per_block:
        lens = hi - lo
        blocks = expand_runs(lo, lens)
        item, lo, hi = np.repeat(item, lens), edge[blocks], edge[blocks + 1]
    else:
        item, lo, hi = _merged(item, edge[lo], edge[hi])
    return np.searchsorted(item, np.arange(p + 1)), lo, hi


def _local_arrays(local: _Local | None, p: int, n: int) -> tuple:
    """``local`` on every rank, natural ↔ π layout (the Fig. 8
    permutation), as one batch of arrays; a whole-vector copy is one copy
    run on every rank (:class:`EveryRank`), whose segment tuples every
    rank shares when built (:func:`~repro.runtime.schedule.local_copies`)."""
    if local is None:
        return ()
    bs, ranks, pi = n // p, np.arange(p), global_pi(p)
    if local.whole:
        items, counts = np.zeros(1, dtype=np.intp), np.array([p])
    else:
        items, counts = ranks, np.ones(p, dtype=np.intp)
    nat, perm = ranks * bs, pi * bs
    lo, dst = (nat, perm) if local.to_pi else (perm, nat)
    phase = ArrayPhase(
        items, items, counts * bs, counts, lambda: (counts, lo, lo + bs), (counts, dst, dst + bs),
        VEC if local.to_pi else TMP, TMP if local.to_pi else VEC, tag=local.tag,
    )
    return (EveryRank(phase) if local.whole else phase,)


def flow_steps(flow: Flow) -> Iterator[ArrayStep]:
    """``flow``'s steps as arrays: what every rank sends, receives and
    copies locally at each step.

    A resp step's counts (closed-form when every block holds ``n / p > 0``
    elements, else from its segments) and its segments, made when read,
    come from the set geometry for every rank at once, once per call.  The
    π-window and circular-range checks run at the first step that needs
    them.  A natural layout rejects a negative ``n`` on the call.
    """
    bf, n, strategy = flow.bf, flow.n, flow.strategy
    p = bf.p
    bs = n // p
    if strategy not in _PI_SPACE:
        Partition(n, p)  # natural layouts reject a negative n
    sets = _SetGeometry(bf, strategy)

    @cache
    def wire(j: int) -> tuple:  # every rank's segments (cut, lo, hi)
        return wire_arrays(n, p, strategy is Strategy.BLOCKS, sets.bounds(j))

    @cache
    def size(j: int) -> tuple:  # every rank's (nelems, num_segments)
        return tuple(np.broadcast_to(c, p) for c in ((p >> j) * bs, sets.counts(j)))

    def segments(j: int, owner: np.ndarray) -> tuple:
        cut, lo, hi = wire(j)
        counts = cut[owner + 1] - cut[owner]
        at = expand_runs(cut[owner], counts)
        return counts, lo[at], hi[at]

    def phase(st: FlowStep) -> ArrayPhase:
        owner, j, kinds = st.owner, st.resp_step, (st.buf, st.buf, st.op, st.tag)
        if j is None or j == 0:  # one block, or the whole vector
            ones = np.ones(owner.size, dtype=np.intp)
            lo, hi = (owner * bs, (owner + 1) * bs) if j is None else (0 * ones, n * ones)
            return ArrayPhase.of(st.src, st.dst, ones, lo, hi, None, *kinds)
        sets.check(j, owner)
        if n % p or not n:  # uneven or empty blocks: counted from the segments
            return ArrayPhase.of(st.src, st.dst, *segments(j, owner), None, *kinds)
        nelems, nsegs = size(j)
        return ArrayPhase(st.src, st.dst, nelems[owner], nsegs[owner],
                          lambda: segments(j, owner), None, *kinds)

    return (
        ArrayStep(st.label, phase(st), _local_arrays(st.pre, p, n),
                  _local_arrays(st.post, p, n))
        for st in flow.steps
    )


def flow_buffers(flow: Flow) -> set[str]:
    """The buffers ``flow``'s steps touch, as building its schedule finds
    them: the transfers' buffer, and ``vec`` and ``tmp`` where a step
    copies between the layouts."""
    buffers = {st.buf for st in flow.steps if st.src.size}
    if any(st.pre or st.post for st in flow.steps):
        buffers |= {VEC, TMP}
    return buffers or {VEC}


def flow_stream(flow: Flow, **meta):
    """``(meta, buffers, steps)`` of ``flow``, what a ``steps`` hook
    returns: its meta updated by ``meta``, :func:`flow_buffers` and
    :func:`flow_steps`."""
    return {**flow.meta, **meta}, flow_buffers(flow), flow_steps(flow)


def render_schedule(flow: Flow) -> Schedule:
    """The executor's :class:`Schedule` for ``flow`` (validated on exit),
    built from :func:`flow_steps`."""
    return schedule_from_arrays(flow.bf.p, flow.meta, flow_steps(flow))


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
