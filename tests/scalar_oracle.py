"""The scalar profiler: the test suite's oracle for the compiled pipeline.

The package profiles schedules with one array program
(:func:`repro.model.compiled.profile_table` over a
:class:`~repro.model.compiled.CompiledRouteTable`, scored by
:func:`repro.model.compiled.evaluate_grid`).  This module keeps the
independent per-transfer reference it must equal bit for bit:

* :class:`RouteTable` / :func:`profile_step` / :func:`profile_schedule` —
  route every transfer through a per-pair table and fold each step in
  Python;
* :func:`evaluate_time` — one vector size at a time, a plain step loop;
* :func:`traffic_by_class` / :func:`link_loads_per_step` — re-route every
  transfer through ``topo.route`` with no table at all;
* :class:`ScalarRoutes` — a route table
  :func:`~repro.model.compiled.profile_table` accepts, so alltoall's
  packed and sampled tables (``meta["analytic"]``, no lowered schedule)
  profile without the compiled kernel;
* :func:`oracle_profile` / :func:`scalar_records` / :func:`oracle_records`
  — a sweep's profiles and records rebuilt from the pieces above.

Import it from a test module like ``tests/strategies.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.analysis.sweep import SweepRecord
from repro.collectives.registry import ALGORITHMS
from repro.model.compiled import profile_table, transfer_table_for
from repro.model.cost import CostParams
from repro.model.simulator import PIPELINE_CHUNKS, ScheduleProfile, StepProfile
from repro.runtime.schedule import Schedule, schedule_validation
from repro.topology.base import LinkClass, Topology
from repro.topology.mapping import RankMap


@dataclass(frozen=True)
class _PairRoute:
    """Precomputed routing data for one ordered node pair."""

    #: interned link indices along the minimal route (unique per route)
    link_idx: np.ndarray
    #: parallel physical-link widths (float, for exact load division)
    width: np.ndarray
    #: parallel link class ids (indices into the table's class-name list)
    cls_idx: np.ndarray
    #: ready-made latency signature: sorted ``(class, hop_count)`` pairs
    hops: tuple[tuple[str, int], ...]
    #: route leaves the node (any non-intra link) → counts as NIC traffic
    uses_nic: bool


class RouteTable:
    """Interned minimal routes for one topology, shared across profiles.

    Routes depend only on the node pair, never on the schedule or rank
    mapping, so all algorithms profiled against the same topology can share
    one table.  Links are interned to integer indices; node pairs resolve
    lazily to :class:`_PairRoute` entries that :func:`profile_step`
    consumes without touching the topology again.
    """

    def __init__(self, topo: Topology):
        self.topo = topo
        self._pairs: dict[tuple[int, int], _PairRoute] = {}
        self._link_ids: dict[tuple, int] = {}
        self._cls_ids: dict[str, int] = {}
        self.cls_names: list[str] = []

    def pair(self, a: int, b: int) -> _PairRoute:
        """Routing data for nodes ``a → b`` (computed once, then cached)."""
        key = (a, b)
        pr = self._pairs.get(key)
        if pr is None:
            pr = self._intern(a, b)
            self._pairs[key] = pr
        return pr

    def _intern(self, a: int, b: int) -> _PairRoute:
        route = self.topo.route(a, b)
        idx, width, cls_idx = [], [], []
        hops: dict[str, int] = {}
        uses_nic = False
        for link in route:
            li = self._link_ids.get(link.key)
            if li is None:
                li = self._link_ids[link.key] = len(self._link_ids)
            ci = self._cls_ids.get(link.cls)
            if ci is None:
                ci = self._cls_ids[link.cls] = len(self._cls_ids)
                self.cls_names.append(link.cls)
            idx.append(li)
            width.append(float(link.width))
            cls_idx.append(ci)
            hops[link.cls] = hops.get(link.cls, 0) + 1
            if link.cls != LinkClass.INTRA:
                uses_nic = True
        return _PairRoute(
            link_idx=np.asarray(idx, dtype=np.intp),
            width=np.asarray(width, dtype=np.float64),
            cls_idx=np.asarray(cls_idx, dtype=np.intp),
            hops=tuple(sorted(hops.items())),
            uses_nic=uses_nic,
        )


def profile_step(
    transfers,
    local_ops,
    routes: RouteTable,
    node_of,
    groups,
) -> StepProfile:
    """Collapse one step's transfers/local ops into a :class:`StepProfile`.

    ``transfers`` yields ``(src_rank, dst_rank, nelems, num_segments, has_op)``
    tuples; ``local_ops`` yields ``(rank, nelems, has_op)``; ``node_of`` and
    ``groups`` are per-rank node / group tables; ``routes`` is the shared
    :class:`RouteTable` of the topology being profiled.

    Per-rank aggregates (messages, injection/ejection, reduction, copies)
    accumulate through ``np.bincount``; per-link loads accumulate through one
    ``np.add.at`` over the concatenated route-link indices, which adds
    contributions in transfer order — bit-identical to the sequential
    per-link scalar accumulation it replaces.
    """
    transfers = list(transfers)
    p = len(node_of)
    signatures: set = set()
    max_by_class: dict[str, float] = {}
    class_elems: dict[str, int] = {}

    n_t = len(transfers)
    idx_chunks: list[np.ndarray] = []
    contrib_chunks: list[np.ndarray] = []
    cls_chunks: list[np.ndarray] = []
    nic_l = []
    same_l = []
    crosses_l = []

    if n_t:
        pair_map = routes._pairs
        src_l, dst_l, ne_l, nsegs_l, op_l = zip(*transfers)
        for s_, d_, ne_, nsegs_ in zip(src_l, dst_l, ne_l, nsegs_l):
            a, b = node_of[s_], node_of[d_]
            pr = pair_map.get((a, b))
            if pr is None:
                pr = routes.pair(a, b)
            nic_l.append(pr.uses_nic)
            same_l.append(a == b)
            crosses_l.append(groups[s_] != groups[d_])
            signatures.add((pr.hops, nsegs_))
            if pr.link_idx.size:
                idx_chunks.append(pr.link_idx)
                contrib_chunks.append(ne_ / pr.width)
                cls_chunks.append(pr.cls_idx)
                for cls, h in pr.hops:
                    class_elems[cls] = class_elems.get(cls, 0) + ne_ * h
        src = np.fromiter(src_l, np.intp, n_t)
        dst = np.fromiter(dst_l, np.intp, n_t)
        ne = np.fromiter(ne_l, np.float64, n_t)
        nic = np.fromiter(nic_l, bool, n_t)
        red_mask = np.fromiter(op_l, bool, n_t)
        same_node = np.fromiter(same_l, bool, n_t)
        crosses = np.fromiter(crosses_l, bool, n_t)

    if idx_chunks:
        cat_idx = np.concatenate(idx_chunks)
        cat_contrib = np.concatenate(contrib_chunks)
        cat_cls = np.concatenate(cls_chunks)
        uniq, local = np.unique(cat_idx, return_inverse=True)
        loads = np.zeros(uniq.size, dtype=np.float64)
        # np.add.at is unbuffered: repeated indices add sequentially in
        # array order, so each link sums its contributions in transfer
        # order exactly as the scalar loop did.
        np.add.at(loads, local, cat_contrib)
        link_cls = np.zeros(uniq.size, dtype=np.intp)
        link_cls[local] = cat_cls
        for ci in np.unique(link_cls):
            m = loads[link_cls == ci].max()
            if m > 0:
                max_by_class[routes.cls_names[ci]] = float(m)

    if n_t:
        msgs = np.bincount(src, minlength=p) + np.bincount(dst, minlength=p)
        max_node_msgs = int(msgs.max())
        # NIC injection/ejection; intra-node (clique / shared-memory)
        # traffic rides the node-local fabric instead.
        max_inj = int(np.bincount(src[nic], weights=ne[nic], minlength=p).max())
        max_ej = int(np.bincount(dst[nic], weights=ne[nic], minlength=p).max())
        # same node, ppn > 1: a shared-memory copy
        copy_mask = ~nic & same_node
        copy_by_rank = np.bincount(dst[copy_mask], weights=ne[copy_mask], minlength=p)
        red_by_rank = np.bincount(dst[red_mask], weights=ne[red_mask], minlength=p)
        global_elems = int(ne[crosses].sum())
    else:
        max_node_msgs = max_inj = max_ej = global_elems = 0
        copy_by_rank = np.zeros(p, dtype=np.float64)
        red_by_rank = np.zeros(p, dtype=np.float64)

    for rank, nelems, has_op in local_ops:
        copy_by_rank[rank] += nelems
        if has_op:
            red_by_rank[rank] += nelems

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


def profile_schedule(
    schedule: Schedule,
    topo: Topology,
    rank_map: RankMap,
    *,
    routes: RouteTable | None = None,
) -> ScheduleProfile:
    """Route every transfer and collapse each step into aggregates.

    Pass ``routes`` to share one node-pair route table across many profiles
    of the same topology; omitted, a private table is built for this call.
    """
    if rank_map.num_ranks != schedule.p:
        raise ValueError(
            f"mapping covers {rank_map.num_ranks} ranks, schedule needs {schedule.p}"
        )
    if routes is None:
        routes = RouteTable(topo)
    elif routes.topo is not topo:
        raise ValueError("routes table was built for a different topology")
    groups = rank_map.groups(topo)
    steps = []
    for step in schedule.steps:
        steps.append(
            profile_step(
                (
                    (t.src, t.dst, t.nelems, t.num_segments, t.op is not None)
                    for t in step.transfers
                ),
                (
                    (lc.rank, lc.nelems, lc.op is not None)
                    for lc in chain(step.pre, step.post)
                ),
                routes,
                rank_map.nodes,
                groups,
            )
        )
    return ScheduleProfile(
        p=schedule.p,
        n_build=schedule.meta.get("n", schedule.p),
        meta=dict(schedule.meta),
        steps=tuple(steps),
    )


@dataclass(frozen=True)
class RunMetrics:
    """Evaluation result for one (profile, params, n) combination."""

    time: float
    global_bytes: float
    bytes_by_class: dict


def evaluate_time(
    profile: ScheduleProfile, params: CostParams, n_elems: int
) -> RunMetrics:
    """Time and traffic for a vector of ``n_elems`` elements: the step
    loop :func:`repro.model.compiled.evaluate_grid` runs once per size
    (the ``segmented`` / ``pipelined`` / ``ports_used`` rules are
    documented there)."""
    scale = n_elems / profile.n_build
    b = params.itemsize
    ports = min(params.ports, int(profile.meta.get("ports_used", 1)))
    total = 0.0
    max_step_bw = 0.0
    num_steps = max(1, len(profile.steps))
    for step in profile.steps:
        lat = 0.0
        for hops, segs in step.lat_signatures:
            t = params.alpha + max(0, segs - 1) * params.seg_overhead
            for cls, h in hops:
                t += h * params.alpha_hop.get(cls, 0.0)
            lat = max(lat, t)
        # endpoint message processing serialises (flat algorithms' roots
        # handle p−1 messages "in one step")
        lat += max(0, step.max_node_msgs - 2) * params.msg_cpu
        bw = 0.0
        for cls, load in step.max_link_load:
            bw = max(bw, load * scale * b * params.beta.get(cls, 0.0))
        bw = max(
            bw,
            step.max_inj * scale * b * params.inj_beta / ports,
            step.max_ej * scale * b * params.inj_beta / ports,
        )
        comp = step.max_reduce * scale * b * params.reduce_beta
        copy = step.max_copy * scale * b * params.copy_beta
        if profile.meta.get("pipelined"):
            total += lat + copy
            max_step_bw = max(max_step_bw, bw + comp)
        elif profile.segmented:
            total += lat + max(bw, comp) + copy
        else:
            total += lat + bw + comp + copy
    if profile.meta.get("pipelined"):
        total += max_step_bw * (1 + (num_steps - 1) / PIPELINE_CHUNKS)
    return RunMetrics(
        time=total,
        global_bytes=profile.total_global_elems() * scale * b,
        bytes_by_class={
            cls: e * scale * b for cls, e in profile.total_class_elems().items()
        },
    )


def traffic_by_class(
    schedule: Schedule, topo: Topology, rank_map: RankMap
) -> dict[str, int]:
    """Total element·link products per link class over the whole schedule."""
    out: dict[str, int] = {}
    for _, t in schedule.all_transfers():
        src, dst = rank_map.node_of(t.src), rank_map.node_of(t.dst)
        for link in topo.route(src, dst):
            out[link.cls] = out.get(link.cls, 0) + t.nelems
    return out


def link_loads_per_step(
    schedule: Schedule, topo: Topology, rank_map: RankMap
) -> list[dict[tuple, int]]:
    """Per-step ``link key → element load`` maps."""
    out = []
    for step in schedule.steps:
        loads: dict[tuple, int] = {}
        for t in step.transfers:
            src, dst = rank_map.node_of(t.src), rank_map.node_of(t.dst)
            for link in topo.route(src, dst):
                loads[link.key] = loads.get(link.key, 0) + t.nelems
        out.append(loads)
    return out


class ScalarRoutes(RouteTable):
    """A :class:`RouteTable` that takes the compiled table's step columns.

    :func:`~repro.model.compiled.profile_table` hands each table row to
    ``routes.profile_step_arrays``; this one feeds the columns, as Python
    values, to the scalar :func:`profile_step`.
    """

    def profile_step_arrays(
        self, src, dst, ne, nsegs, has_op, lrank, lne, lhas_op,
        node_arr, group_arr,
    ) -> StepProfile:
        return profile_step(
            zip(src.tolist(), dst.tolist(), ne.tolist(), nsegs.tolist(),
                has_op.tolist()),
            zip(lrank.tolist(), lne.tolist(), lhas_op.tolist()),
            self,
            node_arr.tolist(),
            group_arr.tolist(),
        )


def oracle_profile(cache, spec, p, ppn=1, routes=None):
    """Scalar-pipeline profile of one cell on ``cache``'s rank mapping."""
    routes = routes or ScalarRoutes(cache.topo)
    mapping = cache.mapping_for(p, ppn)
    table = transfer_table_for(spec, p) if spec.table is not None else None
    if table is not None and table.meta.get("analytic"):
        # a packed or sampled cost model, not a lowered schedule: the
        # scalar kernel profiles the table's rows themselves
        return profile_table(table, cache.topo, mapping, routes=routes)
    try:
        with schedule_validation(False):
            schedule = spec.build(p, p)
    except ValueError:
        return None  # pow2/divisibility constraint not met
    return profile_schedule(schedule, cache.topo, mapping, routes=routes)


def scalar_records(profile, system, spec, p, vector_bytes, params,
                   faults="none", ppn=1):
    """One profile's records, scored per size by :func:`evaluate_time`."""
    out = []
    for nb in vector_bytes:
        m = evaluate_time(profile, params, nb / params.itemsize)
        out.append(SweepRecord(
            system, spec.collective, spec.name, spec.family, p, nb,
            float(m.time), float(m.global_bytes), faults, ppn,
        ))
    return out


def oracle_records(cache, collectives, node_counts, vector_bytes, ppn=1,
                   max_p=None):
    """A ``sweep_system`` grid's records, rebuilt by the scalar pipeline.

    Runs on ``cache``'s mappings, so sweep with the same cache first: the
    sweep fixes the scheduler placements the oracle then reads.
    """
    routes = ScalarRoutes(cache.topo)
    records = []
    for (coll, _name), spec in sorted(ALGORITHMS.items()):
        if coll not in collectives:
            continue
        for p in node_counts:
            if max_p and p > max_p.get(coll, p):
                continue
            if not cache.applicable(spec, p, ppn):
                continue
            profile = oracle_profile(cache, spec, p, ppn, routes)
            if profile is not None:
                records += scalar_records(
                    profile, cache.preset.name, spec, p, vector_bytes,
                    cache.preset.params, cache.faults_label, ppn,
                )
    return records
