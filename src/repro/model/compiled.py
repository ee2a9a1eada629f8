"""Compiled profiling + grid evaluation — the package's one profiler.

Three lowering stages turn the build → route → profile → evaluate pipeline
into array programs.  Each is bit-identical to an independent scalar
per-transfer reference kept in the test suite (``tests/scalar_oracle.py``;
asserted across the whole registry in ``tests/test_compiled_profile.py``):

* :class:`TransferTable` — a finalized :class:`~repro.runtime.schedule.Schedule`
  flattened *once* per ``(algorithm, p)`` into structure-of-arrays,
  step-segmented columns (``src`` / ``dst`` / ``nelems`` / ``num_segments`` /
  ``has_op`` plus the pre/post local-op columns, and a per-step repeat
  count).  The table depends only on the schedule — not on the topology
  or rank mapping — so one lowering serves every system, placement and
  seed of a campaign.
  :func:`transfer_table_for` memoizes tables per registry cell (a bounded
  FIFO :class:`repro.runtime.memo.Memo`, cleared by
  :func:`repro.runtime.memo.clear_memo_caches`), the
  profiling analogue of :func:`repro.collectives.verify.compiled_plan_for`.

* :class:`CompiledRouteTable` — one CSR route matrix per topology, grown
  in place (one append per step that sees new node pairs): per pair,
  offsets into flat link-id / width / class-id arrays, plus an interned
  hop-signature id and a ``uses_nic`` flag.
  :meth:`CompiledRouteTable.profile_step_arrays` collapses a whole step
  into a :class:`~repro.model.simulator.StepProfile` with gathers,
  ``np.bincount`` and ``np.add.at`` — zero per-transfer Python.  Link-load
  contributions are expanded in transfer order, and ``np.add.at`` is
  unbuffered, so each link sums its loads in the same order a
  per-transfer loop would.

* :func:`evaluate_grid` — evaluates one profile at *all* message sizes of a
  campaign in a single NumPy pass.  Per-step structure arrays (max loads by
  class, injection/ejection/reduce/copy maxima) are cached on the profile
  the first time it is evaluated; each call then applies the per-step
  cost law elementwise over the size axis, with a fixed operation order
  (products left-associated, per-step terms summed in step order via a
  running ``np.cumsum`` — a prefix sum cannot be regrouped pairwise), so
  every column equals a one-size step loop bit for bit.

The sweep layer (:mod:`repro.analysis.sweep`), the DES engine and the
analytic builders (:mod:`repro.model.analytic`) all profile through these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro import obs
from repro.model.cost import CostParams
from repro.model.simulator import (
    PIPELINE_CHUNKS,
    ScheduleProfile,
    StepProfile,
)
from repro.runtime.memo import Memo
from repro.runtime.schedule import Schedule, schedule_validation
from repro.topology.base import LinkClass, Topology
from repro.topology.mapping import RankMap

__all__ = [
    "TransferTable",
    "CompiledRouteTable",
    "GridMetrics",
    "lower_schedule",
    "step_latency",
    "transfer_table_for",
    "profile_table",
    "evaluate_grid",
]


# -- transfer tables ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TransferTable:
    """A schedule's transfers/local ops as step-segmented SoA columns.

    Step ``i``'s transfers are rows ``step_off[i]:step_off[i+1]`` of the
    transfer columns; its local ops (``pre`` then ``post``, in order) are
    rows ``local_off[i]:local_off[i+1]`` of the local columns, and it runs
    ``step_reps[i]`` times back to back (a ring's ``p − 1`` identical
    steps are one row).  Everything the profiler needs, nothing the
    executor needs: segment lists are collapsed to ``nelems`` /
    ``num_segments`` at lowering time.
    """

    p: int
    n_build: int
    meta: dict = field(hash=False)
    #: (num_steps + 1,) row offsets into the transfer columns
    step_off: np.ndarray = field(default=None)
    #: (num_steps,) times each step row runs back to back
    step_reps: np.ndarray = field(default=None)
    src: np.ndarray = field(default=None)
    dst: np.ndarray = field(default=None)
    nelems: np.ndarray = field(default=None)
    num_segments: np.ndarray = field(default=None)
    has_op: np.ndarray = field(default=None)
    #: (num_steps + 1,) row offsets into the local-op columns
    local_off: np.ndarray = field(default=None)
    local_rank: np.ndarray = field(default=None)
    local_nelems: np.ndarray = field(default=None)
    local_has_op: np.ndarray = field(default=None)

    @property
    def num_steps(self) -> int:
        return len(self.step_off) - 1

    @property
    def num_transfers(self) -> int:
        return int(self.src.size)


def lower_schedule(schedule: Schedule) -> TransferTable:
    """Flatten a schedule into a :class:`TransferTable` (one linear pass;
    one row per step, so every ``step_reps`` entry is 1).

    Example::

        >>> from repro.collectives.registry import build
        >>> t = lower_schedule(build("bcast", "bine", 8, 8))
        >>> t.num_steps, t.num_transfers
        (3, 7)
    """
    step_off = [0]
    local_off = [0]
    src: list[int] = []
    dst: list[int] = []
    ne: list[int] = []
    nseg: list[int] = []
    has_op: list[bool] = []
    lrank: list[int] = []
    lne: list[int] = []
    lop: list[bool] = []
    for step in schedule.steps:
        for t in step.transfers:
            src.append(t.src)
            dst.append(t.dst)
            ne.append(t.nelems)
            nseg.append(t.num_segments)
            has_op.append(t.op is not None)
        for lc in chain(step.pre, step.post):
            lrank.append(lc.rank)
            lne.append(lc.nelems)
            lop.append(lc.op is not None)
        step_off.append(len(src))
        local_off.append(len(lrank))
    return TransferTable(
        p=schedule.p,
        n_build=schedule.meta.get("n", schedule.p),
        meta=dict(schedule.meta),
        step_off=np.asarray(step_off, dtype=np.intp),
        step_reps=np.ones(len(schedule.steps), dtype=np.int64),
        src=np.asarray(src, dtype=np.intp),
        dst=np.asarray(dst, dtype=np.intp),
        nelems=np.asarray(ne, dtype=np.int64),
        num_segments=np.asarray(nseg, dtype=np.int64),
        has_op=np.asarray(has_op, dtype=bool),
        local_off=np.asarray(local_off, dtype=np.intp),
        local_rank=np.asarray(lrank, dtype=np.intp),
        local_nelems=np.asarray(lne, dtype=np.int64),
        local_has_op=np.asarray(lop, dtype=bool),
    )


#: table memo — keyed per registry cell; bounded FIFO so 4096-rank tables
#: cannot accumulate without limit.  ``None`` entries record constraint
#: misses (pow2/divisibility) so they are not re-attempted.  The bound must
#: exceed a full campaign's exact-cell count (the reference 3-collective
#: LUMI grid to p=4096 touches ~100 cells; the FIFO replays in sweep order,
#: so a bound below the working set would evict every entry before reuse).
_TABLE_CACHE = Memo("compiled._TABLE_CACHE", maxsize=512, counter="table")


def transfer_table_for(spec, p: int) -> TransferTable | None:
    """Cached :class:`TransferTable` for one ``(collective, algorithm, p)``.

    Entries with a plan render the table straight from it (``spec.table``:
    the butterflies, Bruck, Sparbit, the rings and the composed
    bcast/reduce, whose tree half alone is built and lowered); the tree,
    linear and alltoall entries build the schedule at the canonical size
    ``n = p`` and lower it once.  Either way schedule validation is off
    (the sweep's contract: it renders schedules the test suite already
    validates).  ``None`` when the entry rejects ``p``.
    The table is topology- and mapping-independent, so every system /
    placement / seed of a campaign shares one entry.  Eviction is FIFO at
    512 entries; :func:`repro.runtime.memo.clear_memo_caches` drops
    everything.
    """

    def render() -> TransferTable | None:
        cell = {"collective": spec.collective, "algorithm": spec.name, "p": p}
        try:
            with schedule_validation(False):
                if spec.table is not None:
                    with obs.span("schedule.table", **cell):
                        return spec.table(p)
                with obs.span("schedule.build", **cell):
                    schedule = spec.build(p, p)
        except ValueError:
            return None
        with obs.span("lower.schedule", **cell):
            return lower_schedule(schedule)

    return _TABLE_CACHE.get_or((spec.collective, spec.name, p), render)


# -- CSR route matrices ------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _CsrArrays:
    """An interned route set in CSR layout, plus its sorted pair-key index."""

    #: sorted pair keys ``a * num_nodes + b`` and the pair id of each; an
    #: int64-max sentinel closes ``keys``, so every ``searchsorted``
    #: position indexes a key
    keys: np.ndarray
    key_pid: np.ndarray
    #: (num_pairs + 1,) offsets into the flat link columns
    off: np.ndarray
    link: np.ndarray   # interned link ids
    width: np.ndarray  # parallel physical-link widths
    cls: np.ndarray    # link class ids
    #: per-pair hop-signature id / NIC flag / dense per-class hop counts
    sig: np.ndarray
    nic: np.ndarray
    hops: np.ndarray   # (num_pairs, num_classes) int64


def _expand_rows(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """CSR row expansion: flat indices ``starts[j] .. starts[j]+counts[j])``."""
    total = int(counts.sum())
    cum = np.cumsum(counts)
    return np.repeat(starts - (cum - counts), counts) + np.arange(
        total, dtype=np.intp
    )


class CompiledRouteTable:
    """Interned minimal routes for one topology, in CSR layout.

    The table only grows: :meth:`resolve` looks a step's node pairs up in
    the sorted key column, routes the unseen ones in one batch (each
    ``topo.route`` call happens exactly once per pair per table) and
    appends their rows once, so ``_arrays`` is always current and is never
    rebuilt.  :meth:`profile_step_arrays` is the one step kernel:
    :func:`profile_table` feeds it lowered schedules and the analytic
    builders (:mod:`repro.model.analytic`) feed it rank arrays.
    """

    def __init__(self, topo: Topology):
        self.topo = topo
        self._num_nodes = topo.num_nodes
        self._link_ids: dict[tuple, int] = {}
        self._cls_ids: dict[str, int] = {}
        self.cls_names: list[str] = []
        #: per-pair hop signatures, interned: ``sig_tuples[sig_id]`` is the
        #: sorted ``(class, hop_count)`` tuple a step folds into latency
        #: signatures
        self.sig_tuples: list[tuple] = []
        self._sig_ids: dict[tuple, int] = {}
        none = np.zeros(0, dtype=np.intp)
        self._arrays = _CsrArrays(
            keys=np.array([np.iinfo(np.int64).max]), key_pid=none,
            off=np.zeros(1, dtype=np.intp), link=none, width=np.zeros(0),
            cls=none, sig=none, nic=np.zeros(0, dtype=bool),
            hops=np.zeros((0, 0), dtype=np.int64),
        )

    def resolve(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Pair ids for node arrays ``a → b``, interning unseen pairs."""
        keys = a * self._num_nodes + b
        pos = np.searchsorted(self._arrays.keys, keys)
        unseen = self._arrays.keys[pos] != keys
        if unseen.any():
            self._append(np.unique(keys[unseen]))
            pos = np.searchsorted(self._arrays.keys, keys)
        return self._arrays.key_pid[pos]

    def _append(self, new_keys: np.ndarray) -> None:
        """Route the sorted, unseen ``new_keys`` and append their rows."""
        n = self._num_nodes
        routes = [self.topo.route(k // n, k % n) for k in new_keys.tolist()]
        flat = [link for route in routes for link in route]
        link_ids, cls_ids, sig_ids = self._link_ids, self._cls_ids, self._sig_ids
        link = np.array(
            [link_ids.setdefault(x.key, len(link_ids)) for x in flat], np.intp
        )
        cls = np.array(
            [cls_ids.setdefault(x.cls, len(cls_ids)) for x in flat], np.intp
        )
        width = np.array([x.width for x in flat], np.float64)
        names = self.cls_names = list(cls_ids)
        m, n_cls = len(routes), len(names)
        counts = np.array([len(route) for route in routes], np.intp)
        hops = np.bincount(
            np.repeat(np.arange(m), counts) * n_cls + cls, minlength=m * n_cls
        ).reshape(m, n_cls)
        rows, row_of = np.unique(hops, axis=0, return_inverse=True)
        sig = np.array([
            sig_ids.setdefault(
                tuple(sorted((names[c], h) for c, h in enumerate(r) if h)),
                len(sig_ids),
            )
            for r in rows.tolist()
        ], np.intp)[row_of.reshape(-1)]
        self.sig_tuples = list(sig_ids)
        nic = hops[:, [c != LinkClass.INTRA for c in names]].any(axis=1)

        old = self._arrays
        at = np.searchsorted(old.keys, new_keys)
        self._arrays = _CsrArrays(
            keys=np.insert(old.keys, at, new_keys),
            key_pid=np.insert(old.key_pid, at, np.arange(m) + old.sig.size),
            off=np.concatenate([old.off, old.off[-1] + np.cumsum(counts)]),
            link=np.concatenate([old.link, link]),
            width=np.concatenate([old.width, width]),
            cls=np.concatenate([old.cls, cls]),
            sig=np.concatenate([old.sig, sig]),
            nic=np.concatenate([old.nic, nic]),
            hops=np.vstack(
                [np.pad(old.hops, ((0, 0), (0, n_cls - old.hops.shape[1]))),
                 hops]
            ),
        )

    def profile_step_arrays(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        ne: np.ndarray,
        nsegs: np.ndarray,
        has_op: np.ndarray,
        lrank: np.ndarray,
        lne: np.ndarray,
        lhas_op: np.ndarray,
        node_arr: np.ndarray,
        group_arr: np.ndarray,
    ) -> StepProfile:
        """One step's columns → a :class:`StepProfile`, fully vectorized.

        Bit-identical to a per-transfer scalar fold (the tests' oracle):
        integer aggregates are exact in either accumulation order (all
        magnitudes sit far below 2**53), and the only true-float quantity —
        per-link load, where widths divide unevenly — is accumulated by an
        unbuffered ``np.add.at`` over the transfer-ordered concatenation of
        route links.
        """
        p = node_arr.size
        n_t = src.size
        signatures: set = set()
        max_by_class: dict[str, float] = {}
        class_elems: dict[str, int] = {}

        if n_t:
            a = node_arr[src]
            b = node_arr[dst]
            pids = self.resolve(a, b)
            csr = self._arrays
            nic = csr.nic[pids]
            same_node = a == b
            crosses = group_arr[src] != group_arr[dst]
            # unique (hop-signature, segment-count) latency signatures
            seg_base = int(nsegs.max()) + 1 if n_t else 1
            for code in np.unique(csr.sig[pids] * seg_base + nsegs):
                signatures.add(
                    (self.sig_tuples[int(code) // seg_base], int(code) % seg_base)
                )
            # element·hop products per class (exact int64 matmul)
            hops_t = csr.hops[pids]
            totals = ne @ hops_t
            for ci in np.nonzero(hops_t.any(axis=0))[0]:
                class_elems[self.cls_names[ci]] = int(totals[ci])
            # per-link loads: expand each transfer's route rows in transfer
            # order — the same concatenation a per-transfer loop builds — then
            # accumulate with the same unbuffered np.add.at
            counts = csr.off[pids + 1] - csr.off[pids]
            if counts.sum():
                rows = _expand_rows(csr.off[pids], counts)
                cat_idx = csr.link[rows]
                cat_contrib = np.repeat(ne, counts) / csr.width[rows]
                cat_cls = csr.cls[rows]
                uniq, local = np.unique(cat_idx, return_inverse=True)
                loads = np.zeros(uniq.size, dtype=np.float64)
                np.add.at(loads, local, cat_contrib)
                link_cls = np.zeros(uniq.size, dtype=np.intp)
                link_cls[local] = cat_cls
                for ci in np.unique(link_cls):
                    m = loads[link_cls == ci].max()
                    if m > 0:
                        max_by_class[self.cls_names[ci]] = float(m)

            msgs = np.bincount(src, minlength=p) + np.bincount(dst, minlength=p)
            max_node_msgs = int(msgs.max())
            max_inj = int(np.bincount(src[nic], weights=ne[nic], minlength=p).max())
            max_ej = int(np.bincount(dst[nic], weights=ne[nic], minlength=p).max())
            copy_mask = ~nic & same_node
            copy_by_rank = np.bincount(
                dst[copy_mask], weights=ne[copy_mask], minlength=p
            )
            red_by_rank = np.bincount(
                dst[has_op], weights=ne[has_op], minlength=p
            )
            global_elems = int(ne[crosses].sum())
        else:
            max_node_msgs = max_inj = max_ej = global_elems = 0
            copy_by_rank = np.zeros(p, dtype=np.float64)
            red_by_rank = np.zeros(p, dtype=np.float64)

        if lrank.size:
            copy_by_rank = copy_by_rank + np.bincount(
                lrank, weights=lne, minlength=p
            )
            red_by_rank = red_by_rank + np.bincount(
                lrank[lhas_op], weights=lne[lhas_op], minlength=p
            )

        return StepProfile(
            lat_signatures=tuple(sorted(signatures)),
            max_link_load=tuple(sorted(max_by_class.items())),
            max_inj=max_inj,
            max_ej=max_ej,
            max_reduce=int(red_by_rank.max()) if p else 0,
            max_copy=int(copy_by_rank.max()) if p else 0,
            global_elems=global_elems,
            class_elems=tuple(sorted(class_elems.items())),
            max_node_msgs=max_node_msgs,
        )


def profile_table(
    table: TransferTable,
    topo: Topology,
    rank_map: RankMap,
    *,
    routes: CompiledRouteTable | None = None,
) -> ScheduleProfile:
    """Route every transfer of a lowered schedule and collapse each step.

    Each step row is profiled once and its ``StepProfile`` repeated
    ``step_reps`` times.  Pass ``routes`` to share one CSR route matrix
    across many profiles of the same topology (the sweep layer does).
    """
    if rank_map.num_ranks != table.p:
        raise ValueError(
            f"mapping covers {rank_map.num_ranks} ranks, schedule needs {table.p}"
        )
    if routes is None:
        routes = CompiledRouteTable(topo)
    elif routes.topo is not topo:
        raise ValueError("routes table was built for a different topology")
    node_arr = np.asarray(rank_map.nodes, dtype=np.intp)
    group_arr = np.asarray(rank_map.groups(topo), dtype=np.intp)
    steps = []
    for i in range(table.num_steps):
        s0, s1 = table.step_off[i], table.step_off[i + 1]
        l0, l1 = table.local_off[i], table.local_off[i + 1]
        step = routes.profile_step_arrays(
            table.src[s0:s1],
            table.dst[s0:s1],
            table.nelems[s0:s1],
            table.num_segments[s0:s1],
            table.has_op[s0:s1],
            table.local_rank[l0:l1],
            table.local_nelems[l0:l1],
            table.local_has_op[l0:l1],
            node_arr,
            group_arr,
        )
        steps.extend([step] * int(table.step_reps[i]))
    return ScheduleProfile(
        p=table.p,
        n_build=table.n_build,
        meta=dict(table.meta),
        steps=tuple(steps),
    )


# -- grid evaluation ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _EvalTables:
    """Per-step structure arrays a profile needs for grid evaluation.

    Everything here is params-independent, so the tables are computed once
    per profile (cached on the profile object) and reused across campaigns
    that evaluate the same profile under different cost models.
    """

    inj: np.ndarray   # (S,) int64 per-step max injection (elements)
    ej: np.ndarray
    red: np.ndarray
    cpy: np.ndarray
    #: per link class: (step-index array, load array) COO columns
    load_by_class: tuple[tuple[str, np.ndarray, np.ndarray], ...]


@dataclass(frozen=True, eq=False)
class GridMetrics:
    """Evaluation result for one profile across a whole size grid.

    Column ``j`` equals the evaluation at ``n_elems[j]`` alone bit for
    bit.
    """

    time: np.ndarray
    global_bytes: np.ndarray
    bytes_by_class: dict


def _eval_tables(profile: ScheduleProfile) -> _EvalTables:
    tabs = profile.__dict__.get("_eval_tables")
    if tabs is not None:
        return tabs
    steps = profile.steps
    s = len(steps)
    inj = np.fromiter((st.max_inj for st in steps), np.int64, s)
    ej = np.fromiter((st.max_ej for st in steps), np.int64, s)
    red = np.fromiter((st.max_reduce for st in steps), np.int64, s)
    cpy = np.fromiter((st.max_copy for st in steps), np.int64, s)
    by_class: dict[str, tuple[list[int], list[float]]] = {}
    for i, st in enumerate(steps):
        for cls, load in st.max_link_load:
            idx, vals = by_class.setdefault(cls, ([], []))
            idx.append(i)
            vals.append(load)
    load_by_class = tuple(
        (cls, np.asarray(idx, dtype=np.intp), np.asarray(vals, dtype=np.float64))
        for cls, (idx, vals) in sorted(by_class.items())
    )
    tabs = _EvalTables(inj=inj, ej=ej, red=red, cpy=cpy, load_by_class=load_by_class)
    object.__setattr__(profile, "_eval_tables", tabs)
    return tabs


def step_latency(step: StepProfile, params: CostParams) -> float:
    """One step's latency term — the slowest ``(hops, segments)``
    signature plus per-message CPU cost — for :func:`evaluate_grid` and
    the DES engine alike, so the two agree bit for bit."""
    lat = 0.0
    for hops, segs in step.lat_signatures:
        t = params.alpha + max(0, segs - 1) * params.seg_overhead
        for cls, h in hops:
            t += h * params.alpha_hop.get(cls, 0.0)
        lat = max(lat, t)
    return lat + max(0, step.max_node_msgs - 2) * params.msg_cpu


def _lat_array(profile: ScheduleProfile, params: CostParams) -> np.ndarray:
    """Per-step latency terms (size-invariant, so computed once per call).

    Identical step objects (a repeated table row, or an analytic profile's
    replicated samples) are evaluated once.
    """
    lat = np.empty(len(profile.steps), dtype=np.float64)
    memo: dict[int, float] = {}
    for i, step in enumerate(profile.steps):
        cached = memo.get(id(step))
        if cached is None:
            cached = memo[id(step)] = step_latency(step, params)
        lat[i] = cached
    return lat


def _seq_sum(term: np.ndarray, m: int) -> np.ndarray:
    """Sum step rows in step order — the scalar loop's accumulation order.

    ``np.add.reduce``/``np.sum`` may regroup a reduction pairwise (which
    changes the last ulp), but a running prefix sum cannot:
    ``cumsum[i] = cumsum[i-1] + term[i]`` by definition, so the last row
    equals ``total += term`` applied step by step, bit for bit.
    """
    if term.shape[0] == 0:
        return np.zeros(m, dtype=np.float64)
    return np.cumsum(term, axis=0)[-1]


def evaluate_grid(
    profile: ScheduleProfile, params: CostParams, n_elems
) -> GridMetrics:
    """Time and traffic for every vector size of ``n_elems`` in one pass.

    Two schedule-level meta flags refine the step-sum law:

    * ``segmented`` — reduction compute overlaps transport within a step
      (Sec. 5.2.2);
    * ``pipelined`` — successive steps forward the *same* data (chain/tree
      pipelines like Trinaryx): bandwidth terms overlap across steps, so
      the total pays the per-step latency sum but only
      ``max_bw · (1 + (steps − 1)/chunks)`` of bandwidth;
    * ``ports_used`` — how many NICs the schedule can drive concurrently
      (App. D.4 multiported schedules); capped by the machine's ports.

    Column ``j`` of every output equals a scalar step loop at
    ``n_elems[j]`` bit for bit (each arithmetic step is applied
    elementwise in the loop's order), so a size's result does not depend
    on the rest of the grid.  The per-step structure arrays are cached on
    the profile, so evaluating a second size grid costs only the NumPy
    pass.

    Example::

        >>> from repro.collectives.registry import build
        >>> from repro.systems import lumi
        >>> from repro.topology.mapping import block_mapping
        >>> preset = lumi()
        >>> prof = profile_table(lower_schedule(build("bcast", "bine", 8, 8)),
        ...                      preset.build_topology(), block_mapping(8))
        >>> g = evaluate_grid(prof, preset.params, [8.0, 1024.0])
        >>> bool(g.time[1] == evaluate_grid(prof, preset.params, 1024.0).time[0])
        True
    """
    n_arr = np.atleast_1d(np.asarray(n_elems, dtype=np.float64))
    scale = n_arr / profile.n_build
    m = scale.size
    b = params.itemsize
    s = len(profile.steps)
    tabs = _eval_tables(profile)
    ports = min(params.ports, int(profile.meta.get("ports_used", 1)))

    bw = np.zeros((s, m), dtype=np.float64)
    for cls, step_idx, loads in tabs.load_by_class:
        beta = params.beta.get(cls, 0.0)
        np.maximum.at(bw, step_idx, loads[:, None] * scale * b * beta)
    bw = np.maximum(bw, tabs.inj[:, None] * scale * b * params.inj_beta / ports)
    bw = np.maximum(bw, tabs.ej[:, None] * scale * b * params.inj_beta / ports)
    comp = tabs.red[:, None] * scale * b * params.reduce_beta
    copy = tabs.cpy[:, None] * scale * b * params.copy_beta
    lat = _lat_array(profile, params)[:, None]

    if profile.meta.get("pipelined"):
        total = _seq_sum(lat + copy, m)
        step_bw = bw + comp
        max_step_bw = (
            np.maximum.reduce(step_bw, axis=0) if s else np.zeros(m)
        )
        num_steps = max(1, s)
        total = total + max_step_bw * (1 + (num_steps - 1) / PIPELINE_CHUNKS)
    elif profile.segmented:
        total = _seq_sum(lat + np.maximum(bw, comp) + copy, m)
    else:
        total = _seq_sum(lat + bw + comp + copy, m)

    return GridMetrics(
        time=total,
        global_bytes=profile.total_global_elems() * scale * b,
        bytes_by_class={
            cls: e * scale * b for cls, e in profile.total_class_elems().items()
        },
    )
