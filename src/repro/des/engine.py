"""The discrete-event fabric simulator that replays fault timelines.

The engine executes a lowered schedule
(:class:`~repro.model.compiled.TransferTable`) step by step.  Within a
step every transfer becomes a *flow* released at the step's transport
start; a flow occupies one FIFO-served resource per link of its route
plus (for NIC traffic) its endpoints' injection/ejection ports.  Service
rates derive from the same ``Link.width``/class model the analytic
engine divides loads by, so a phase on a calm fabric drains in exactly
the analytic bandwidth term — that is the calibration contract:

* **link resource** — serves ``nelems / width`` load units; busy time is
  ``load · scale · itemsize · beta[cls]``, the analytic per-link term;
* **inj/ej port** — serves ``nelems`` units per NIC flow at the
  endpoint rank; busy time is ``load · scale · itemsize · inj_beta /
  ports``, the analytic injection term;
* flows are released simultaneously and resources drain concurrently,
  so the phase's transport time is the longest busy period — the
  analytic ``bw = max(...)``, reproduced bit-for-bit when no timeline
  event perturbs the phase (asserted in ``tests/test_timeline.py``).

Mid-phase :class:`~repro.faults.TimelineEvent` firings interleave with
flow completions on one event heap: failed links preempt their in-flight
flows and reroute the unfinished remainder through the same detour logic
:class:`~repro.faults.DegradedTopology` uses (lowest healthy group
representative); a flow with no surviving route — or an endpoint on a
failed node — records a structured :class:`StallRecord` and is removed,
so the run always completes (never hangs) and the record carries
``stalled=True``.

Step times compose exactly like
:func:`~repro.model.compiled.evaluate_grid` (unsegmented / segmented /
pipelined), with the simulated transport time in place of the analytic
``bw`` term.  For pipelined schedules the *reported* total uses the
pipelined law while event times map onto the steps laid end to end.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.faults import (
    NIC_DERATE,
    DegradedTopology,
    FaultTimeline,
    TimelineEvent,
    _global_link_population,
    _group_members,
)
from repro.model.compiled import step_latency
from repro.model.cost import CostParams
from repro.model.simulator import PIPELINE_CHUNKS, ScheduleProfile
from repro.runtime.errors import DESEngineError, TopologyPartitionedError
from repro.topology.base import LinkClass, Topology
from repro.topology.mapping import RankMap

__all__ = ["FabricState", "SimResult", "StallRecord", "simulate_profile"]


@dataclass(frozen=True)
class StallRecord:
    """One flow that lost every route mid-run (structured stall)."""

    step: int
    src_node: int
    dst_node: int
    at: float


@dataclass(frozen=True)
class SimResult:
    """Outcome of one simulated collective execution."""

    time: float
    stalled: bool
    stalls: tuple[StallRecord, ...]


class FabricState:
    """Dynamic fault overlay over a (possibly statically degraded) topology.

    The static :class:`~repro.faults.DegradedTopology` is the fabric's
    t=0 baseline and never heals; timeline events maintain the *dynamic*
    sets on top (``down_links`` / ``down_nodes`` / ``nic_down`` /
    ``dyn_derate`` / ``background``).  Victims are sampled per event from
    ``random.Random(event.seed)`` over canonically ordered healthy
    populations, so a timeline replays identically across processes and
    worker pools.
    """

    def __init__(self, topo: Topology, timeline: FaultTimeline):
        self.topo = topo
        self.inner = topo.inner if isinstance(topo, DegradedTopology) else topo
        if isinstance(topo, DegradedTopology):
            self._static_failed_nodes = topo.failed_nodes
            self._static_failed_links = topo.failed_links
        else:
            self._static_failed_nodes = frozenset()
            self._static_failed_links = frozenset()
        self.timeline = timeline
        self.down_links: set = set()
        self.down_nodes: set[int] = set()
        self.nic_down: set[int] = set()
        self.dyn_derate: dict[str, float] = {}
        self.background = 0.0
        self.version = 0
        self.next_event = 0  # index into timeline.events
        self._members = _group_members(self.inner)
        self._link_population: list | None = None
        self._route_cache: dict[tuple[int, int], tuple[int, list]] = {}

    @property
    def pristine(self) -> bool:
        """No *dynamic* effect is currently active (static spec may be)."""
        return not (
            self.down_links or self.down_nodes or self.nic_down
            or self.dyn_derate or self.background
        )

    def pending_event(self) -> TimelineEvent | None:
        events = self.timeline.events
        return events[self.next_event] if self.next_event < len(events) else None

    # -- event application -------------------------------------------------

    def apply_next(self) -> dict:
        """Apply the next timeline event; returns what changed.

        The dict carries ``links`` / ``nodes`` (newly failed victims) so
        a mid-phase caller can preempt affected flows; state-only changes
        (derate, background, nics, heal) are reflected in the fabric and
        flagged by ``rates`` for a rate refresh.
        """
        event = self.timeline.events[self.next_event]
        self.next_event += 1
        self.version += 1
        changed: dict = {"links": (), "nodes": (), "rates": False}
        if event.heal:
            targets = (
                ("links", "nodes", "nics", "derate", "background")
                if event.heal == "all" else (event.heal,)
            )
            if "links" in targets:
                self.down_links.clear()
            if "nodes" in targets:
                self.down_nodes.clear()
            if "nics" in targets:
                self.nic_down.clear()
            if "derate" in targets:
                self.dyn_derate.clear()
            if "background" in targets:
                self.background = 0.0
            changed["rates"] = True
            return changed
        rng = random.Random(event.seed)
        if event.links:
            victims = self._sample_links(rng, event)
            self.down_links.update(victims)
            changed["links"] = victims
        if event.nodes:
            victims = self._sample_nodes(rng, event)
            self.down_nodes.update(victims)
            changed["nodes"] = victims
        if event.nics:
            self.nic_down.update(self._sample_nics(rng, event))
            changed["rates"] = True
        if event.derate:
            self.dyn_derate.update(event.derate)
            changed["rates"] = True
        if event.background is not None:
            self.background = event.background
            changed["rates"] = True
        return changed

    def _sample_links(self, rng: random.Random, event: TimelineEvent) -> tuple:
        if self._link_population is None:
            reps = {g: ns[0] for g, ns in self._members.items()}
            self._link_population = _global_link_population(self.inner, reps)
        healthy = [
            k for k in self._link_population
            if k not in self._static_failed_links and k not in self.down_links
        ]
        if event.links > len(healthy):
            raise DESEngineError(
                f"timeline event at={event.at:g}: cannot fail {event.links} "
                f"links; only {len(healthy)} global links remain healthy"
            )
        return tuple(rng.sample(healthy, event.links))

    def _sample_nodes(self, rng: random.Random, event: TimelineEvent) -> tuple:
        healthy = [
            v for v in range(self.inner.num_nodes)
            if v not in self._static_failed_nodes and v not in self.down_nodes
        ]
        if event.nodes > len(healthy):
            raise DESEngineError(
                f"timeline event at={event.at:g}: cannot fail {event.nodes} "
                f"nodes; only {len(healthy)} remain healthy"
            )
        return tuple(rng.sample(healthy, event.nodes))

    def _sample_nics(self, rng: random.Random, event: TimelineEvent) -> tuple:
        healthy = [
            v for v in range(self.inner.num_nodes)
            if v not in self._static_failed_nodes
            and v not in self.down_nodes and v not in self.nic_down
        ]
        if event.nics > len(healthy):
            raise DESEngineError(
                f"timeline event at={event.at:g}: cannot derate {event.nics} "
                f"NICs; only {len(healthy)} healthy nodes remain"
            )
        return tuple(rng.sample(healthy, event.nics))

    # -- routing -----------------------------------------------------------

    def route(self, a: int, b: int) -> list:
        """Shaped links ``a → b`` under static + dynamic failures.

        Mirrors :meth:`DegradedTopology.route`: the baseline route (which
        already detours static failures) is used if no dynamic link on it
        is down; otherwise detour via the lowest healthy group
        representative; otherwise :class:`TopologyPartitionedError`.
        """
        for v in (a, b):
            if v in self.down_nodes:
                raise TopologyPartitionedError(a, b, f"node {v} went down mid-run")
        cached = self._route_cache.get((a, b))
        if cached is not None and cached[0] == self.version:
            return cached[1]
        links = self._route_uncached(a, b)
        self._route_cache[(a, b)] = (self.version, links)
        return links

    def _route_uncached(self, a: int, b: int) -> list:
        base = self.topo.route(a, b)
        if not self._blocked(base):
            return base
        ga, gb = self.topo.group_of(a), self.topo.group_of(b)
        for g in sorted(self._members):
            if g in (ga, gb):
                continue
            mid = next(
                (v for v in self._members[g]
                 if v not in self._static_failed_nodes
                 and v not in self.down_nodes),
                None,
            )
            if mid is None or mid in (a, b):
                continue
            try:
                detour = self.topo.route(a, mid) + self.topo.route(mid, b)
            except TopologyPartitionedError:
                continue
            if not self._blocked(detour):
                return detour
        raise TopologyPartitionedError(
            a, b, f"{len(self.down_links)} timeline-failed links, no detour"
        )

    def _blocked(self, links) -> bool:
        return any(link.key in self.down_links for link in links)

    # -- service-rate modifiers --------------------------------------------

    def link_factor(self, cls: str) -> float:
        """Dynamic rate multiplier for a link of class ``cls``."""
        return self.dyn_derate.get(cls, 1.0) * (1.0 - self.background)

    def port_factor(self, node: int) -> float:
        """Dynamic rate multiplier for a node's injection/ejection ports."""
        factor = 1.0 - self.background
        if node in self.nic_down:
            factor *= NIC_DERATE
        return factor


class _Resource:
    """One FIFO-served capacity constraint (a link, or a rank's NIC port).

    ``units_done`` accumulates served load units in service (= release)
    order — on an unperturbed phase that reproduces the analytic per-link
    load sum add for add, which is what makes calm DES output
    bit-identical to the analytic engine.
    """

    __slots__ = (
        "key", "kind", "cls", "cunit", "factor", "queue", "head",
        "units_done", "serial", "serving", "serve_start", "serve_left",
        "busy_s",
    )

    def __init__(self, key, kind: str, cls: str | None, cunit: float, factor: float):
        self.key = key
        self.kind = kind  # "link" | "inj" | "ej"
        self.cls = cls
        self.cunit = cunit  # seconds per load unit at factor 1.0
        self.factor = factor
        self.queue: list = []  # _Entry, appended in flow-release order
        self.head = 0
        self.units_done = 0.0
        self.serial = 0  # invalidates stale finish events after preemption
        self.serving: "_Entry | None" = None
        self.serve_start = 0.0
        self.serve_left = 0.0
        self.busy_s = 0.0  # wall-clock spent serving (telemetry only)

    def service_time(self, units: float) -> float:
        if self.factor <= 0.0:
            raise DESEngineError(
                f"resource {self.key!r}: composed rate factor underflowed "
                "to zero (derate x background leaves no capacity)"
            )
        return units * self.cunit / self.factor

    def start_next(self, now: float, heap: list, seq: list) -> None:
        """Begin serving the next live queue entry, if any."""
        while self.head < len(self.queue):
            entry = self.queue[self.head]
            self.head += 1
            if entry.cancelled:
                continue
            self.serving = entry
            self.serve_start = now
            self.serve_left = entry.units
            seq[0] += 1
            heapq.heappush(
                heap, (now + self.service_time(entry.units), seq[0],
                       self, self.serial)
            )
            return
        self.serving = None

    def preempt(self, now: float) -> None:
        """Stop the in-flight service, folding elapsed progress in."""
        if self.serving is None:
            return
        elapsed = now - self.serve_start
        if self.cunit > 0.0 and elapsed > 0.0:
            done = min(elapsed * self.factor / self.cunit, self.serve_left)
            self.serve_left -= done
            self.units_done += done
            self.busy_s += elapsed
        self.serial += 1  # in-flight finish event is now stale

    def resume(self, now: float, heap: list, seq: list) -> None:
        """Reschedule the preempted in-flight service at the current rate."""
        if self.serving is None:
            return
        self.serve_start = now
        seq[0] += 1
        heapq.heappush(
            heap, (now + self.service_time(self.serve_left), seq[0],
                   self, self.serial)
        )


class _Entry:
    """One flow's pending service on one resource."""

    __slots__ = ("flow", "units", "cancelled", "served")

    def __init__(self, flow: "_Flow", units: float):
        self.flow = flow
        self.units = units
        self.cancelled = False
        self.served = False


class _Flow:
    """One transfer of the current step, in flight."""

    __slots__ = (
        "idx", "src_node", "dst_node", "nelems", "uses_nic",
        "link_entries", "port_entries", "outstanding", "stalled",
    )

    def __init__(self, idx: int, src_node: int, dst_node: int, nelems: float):
        self.idx = idx
        self.src_node = src_node
        self.dst_node = dst_node
        self.nelems = nelems
        self.uses_nic = False
        self.link_entries: list[tuple[_Resource, _Entry]] = []
        self.port_entries: list[tuple[_Resource, _Entry]] = []
        self.outstanding = 0
        self.stalled = False


class _Simulation:
    """One collective execution: steps laid end to end on a global clock."""

    def __init__(
        self,
        table,
        profile: ScheduleProfile,
        topo: Topology,
        mapping: RankMap,
        params: CostParams,
        timeline: FaultTimeline,
        n_elems: float,
        force_event_loop: bool = False,
    ):
        self.table = table
        #: profile step -> table row (a row runs ``step_reps`` times)
        self.row_of = np.repeat(np.arange(table.num_steps), table.step_reps)
        self.profile = profile
        self.fabric = FabricState(topo, timeline)
        self.node_of = mapping.nodes
        self.params = params
        self.scale = n_elems / profile.n_build
        self.b = params.itemsize
        self.ports = min(params.ports, int(profile.meta.get("ports_used", 1)))
        self.force_event_loop = force_event_loop
        self.stalls: list[StallRecord] = []
        # telemetry tallies (pure bookkeeping — never feed back into times)
        self.events_processed = 0
        self.preemptions = 0
        self.reroutes = 0
        self.link_busy: dict = {}  # link key -> seconds serving, perturbed phases

    # -- top level ---------------------------------------------------------

    def run(self) -> SimResult:
        profile, params = self.profile, self.params
        scale, b = self.scale, self.b
        pipelined = bool(profile.meta.get("pipelined"))
        segmented = profile.segmented
        total = 0.0
        max_step_bw = 0.0
        num_steps = max(1, len(profile.steps))
        clock = 0.0
        for s, step in enumerate(profile.steps):
            lat = step_latency(step, params)
            comp = step.max_reduce * scale * b * params.reduce_beta
            copy = step.max_copy * scale * b * params.copy_beta
            t0 = clock + lat
            self._drain_events_until(t0)
            bw = self._transport(s, step, t0)
            if pipelined:
                total += lat + copy
                max_step_bw = max(max_step_bw, bw + comp)
            elif segmented:
                total += lat + max(bw, comp) + copy
            else:
                total += lat + bw + comp + copy
            clock = t0 + bw + comp + copy
        if pipelined:
            total += max_step_bw * (1 + (num_steps - 1) / PIPELINE_CHUNKS)
        return SimResult(
            time=total, stalled=bool(self.stalls), stalls=tuple(self.stalls)
        )

    def _drain_events_until(self, t: float) -> None:
        """Apply timeline events due before a transport phase starts."""
        while True:
            event = self.fabric.pending_event()
            if event is None or event.at > t:
                return
            self.fabric.apply_next()

    def _calm_bw(self, step) -> float:
        """The analytic bandwidth term — what a calm phase drains in."""
        params, scale, b = self.params, self.scale, self.b
        bw = 0.0
        for cls, load in step.max_link_load:
            bw = max(bw, load * scale * b * params.beta.get(cls, 0.0))
        bw = max(
            bw,
            step.max_inj * scale * b * params.inj_beta / self.ports,
            step.max_ej * scale * b * params.inj_beta / self.ports,
        )
        return bw

    # -- one transport phase ------------------------------------------------

    def _transport(self, s: int, step, t0: float) -> float:
        fabric = self.fabric
        if not self.force_event_loop and fabric.pristine:
            # Fast path: no dynamic effect is live, so the phase is exactly
            # the analytic drain — unless an event fires inside the window.
            bw = self._calm_bw(step)
            event = fabric.pending_event()
            if event is None or event.at >= t0 + bw:
                return bw
        return self._event_loop(s, t0)

    def _event_loop(self, s: int, t0: float) -> float:
        """The discrete-event core: flow finishes and fault events on one heap."""
        fabric, params = self.fabric, self.params
        scale, b, ports = self.scale, self.b, self.ports
        table = self.table
        resources: dict = {}
        heap: list = []
        seq = [0]

        def link_resource(link) -> _Resource:
            key = ("L", link.key)
            res = resources.get(key)
            if res is None:
                res = _Resource(
                    key, "link", link.cls,
                    scale * b * params.beta.get(link.cls, 0.0),
                    fabric.link_factor(link.cls),
                )
                resources[key] = res
            return res

        def port_resource(kind: str, rank: int) -> _Resource:
            key = (kind, rank)
            res = resources.get(key)
            if res is None:
                res = _Resource(
                    key, kind, None, scale * b * params.inj_beta / ports,
                    fabric.port_factor(self.node_of[rank]),
                )
                resources[key] = res
            return res

        def attach(flow: _Flow, res: _Resource, units: float, is_link: bool):
            entry = _Entry(flow, units)
            res.queue.append(entry)
            (flow.link_entries if is_link else flow.port_entries).append(
                (res, entry)
            )
            flow.outstanding += 1

        def settle(entry: _Entry):
            """Mark one entry off the books (served or cancelled)."""
            entry.flow.outstanding -= 1

        def stall(flow: _Flow, now: float):
            flow.stalled = True
            self.stalls.append(
                StallRecord(step=s, src_node=flow.src_node,
                            dst_node=flow.dst_node, at=now)
            )
            obs.instant(
                "des.stall", step=s, src=flow.src_node, dst=flow.dst_node
            )
            for res, entry in flow.link_entries + flow.port_entries:
                if entry.served or entry.cancelled:
                    continue
                entry.cancelled = True
                settle(entry)
                if res.serving is entry:
                    self.preemptions += 1
                    res.preempt(now)
                    res.serving = None
                    res.start_next(now, heap, seq)

        def reroute(flow: _Flow, now: float):
            """Move a flow's unfinished remainder onto a surviving route."""
            remaining_frac = 0.0
            for res, entry in flow.link_entries:
                if entry.served or entry.cancelled or entry.units <= 0.0:
                    continue
                left = res.serve_left if res.serving is entry else entry.units
                remaining_frac = max(remaining_frac, left / entry.units)
            if remaining_frac <= 0.0:
                return  # link work already done; ports finish on their own
            for res, entry in flow.link_entries:
                if entry.served or entry.cancelled:
                    continue
                entry.cancelled = True
                settle(entry)
                if res.serving is entry:
                    self.preemptions += 1
                    res.preempt(now)
                    res.serving = None
                    res.start_next(now, heap, seq)
            try:
                route = fabric.route(flow.src_node, flow.dst_node)
            except TopologyPartitionedError:
                stall(flow, now)
                return
            rem = flow.nelems * remaining_frac
            for link in route:
                res = link_resource(link)
                attach(flow, res, rem / link.width, is_link=True)
                if res.serving is None:
                    res.start_next(now, heap, seq)
            self.reroutes += 1
            obs.instant(
                "des.reroute", step=s, src=flow.src_node, dst=flow.dst_node
            )

        def apply_mid_phase(now: float):
            changed = fabric.apply_next()
            if changed["nodes"]:
                down = set(changed["nodes"])
                for flow in list(live_flows):
                    if flow.stalled or flow.outstanding == 0:
                        continue
                    if flow.src_node in down or flow.dst_node in down:
                        stall(flow, now)
            if changed["links"]:
                failed = set(changed["links"])
                hit = []
                for flow in live_flows:
                    if flow.stalled or flow.outstanding == 0:
                        continue
                    for res, entry in flow.link_entries:
                        if (not entry.served and not entry.cancelled
                                and res.key[1] in failed):
                            hit.append(flow)
                            break
                for flow in hit:
                    reroute(flow, now)
            if changed["rates"]:
                for key in sorted(resources, key=repr):
                    res = resources[key]
                    new_f = (
                        fabric.link_factor(res.cls) if res.kind == "link"
                        else fabric.port_factor(self.node_of[res.key[1]])
                    )
                    if new_f != res.factor:
                        if res.serving is not None:
                            self.preemptions += 1
                        res.preempt(now)
                        res.factor = new_f
                        res.resume(now, heap, seq)

        # release every flow of the step at t0, in transfer order
        live_flows: list[_Flow] = []
        row = self.row_of[s]
        lo, hi = int(table.step_off[row]), int(table.step_off[row + 1])
        for i in range(lo, hi):
            src_rank, dst_rank = int(table.src[i]), int(table.dst[i])
            a, bnode = self.node_of[src_rank], self.node_of[dst_rank]
            ne = float(table.nelems[i])
            if a == bnode or ne <= 0.0:
                continue  # intra-node copy (the analytic copy term covers it)
            flow = _Flow(i, a, bnode, ne)
            live_flows.append(flow)
            try:
                route = fabric.route(a, bnode)
            except TopologyPartitionedError:
                stall(flow, t0)
                continue
            flow.uses_nic = any(link.cls != LinkClass.INTRA for link in route)
            for link in route:
                attach(flow, link_resource(link), ne / link.width, is_link=True)
            if flow.uses_nic:
                attach(flow, port_resource("inj", src_rank), ne, is_link=False)
                attach(flow, port_resource("ej", dst_rank), ne, is_link=False)
        for key in sorted(resources, key=repr):
            resources[key].start_next(t0, heap, seq)

        perturbed = not fabric.pristine
        t_end = t0
        while heap:
            t_fin = heap[0][0]
            event = fabric.pending_event()
            if event is not None and event.at <= t_fin:
                perturbed = True
                self.events_processed += 1
                apply_mid_phase(max(t0, event.at))
                continue
            t_fin, _, res, serial = heapq.heappop(heap)
            if serial != res.serial or res.serving is None:
                continue  # stale after a preemption
            self.events_processed += 1
            entry = res.serving
            entry.served = True
            res.units_done += entry.units
            res.busy_s += t_fin - res.serve_start
            settle(entry)
            res.serving = None
            t_end = t_fin
            res.start_next(t_fin, heap, seq)

        if perturbed:
            # per-link busy time: what the fabric actually spent serving
            # this phase's flows — the contention view a trace surfaces
            for key in sorted(resources, key=repr):
                res = resources[key]
                if res.kind == "link" and res.busy_s > 0.0:
                    label = str(res.key[1])
                    self.link_busy[label] = (
                        self.link_busy.get(label, 0.0) + res.busy_s
                    )
        if not perturbed:
            # Unperturbed phases report busy periods straight from the unit
            # bookkeeping — the same sums, products and maxes the analytic
            # engine computes, so the result is bit-identical to it.
            bw = 0.0
            for key in sorted(resources, key=repr):
                res = resources[key]
                if res.kind == "link":
                    busy = (
                        res.units_done * scale * b
                        * params.beta.get(res.cls, 0.0)
                    )
                else:
                    busy = (
                        int(res.units_done) * scale * b
                        * params.inj_beta / ports
                    )
                bw = max(bw, busy)
            return bw
        return t_end - t0 if t_end > t0 else 0.0


def simulate_profile(
    table,
    profile: ScheduleProfile,
    topo: Topology,
    mapping: RankMap,
    params: CostParams,
    timeline: FaultTimeline,
    n_elems: float,
    *,
    force_event_loop: bool = False,
    collective: str | None = None,
    algorithm: str | None = None,
) -> SimResult:
    """Simulate one collective execution; the DES counterpart of
    :func:`~repro.model.compiled.evaluate_grid` at one size.

    With an empty ``timeline`` the result's ``time`` is bit-identical to
    the analytic engine's (the calibration contract, asserted in tier-1);
    ``force_event_loop`` additionally pushes calm phases through the full
    event heap (used by the internal-consistency tests).  ``collective``
    and ``algorithm`` only label the ``des.simulate`` trace span.
    """
    sim = _Simulation(
        table, profile, topo, mapping, params, timeline, n_elems,
        force_event_loop=force_event_loop,
    )
    with obs.span(
        "des.simulate", collective=collective, algorithm=algorithm, p=table.p,
        steps=len(profile.steps), timeline=timeline.label,
    ) as sim_span:
        result = sim.run()
        sim_span.set(
            events=sim.events_processed,
            preemptions=sim.preemptions,
            reroutes=sim.reroutes,
            stalls=len(result.stalls),
        )
    obs.inc("des.simulations")
    if sim.events_processed:
        obs.inc("des.events", sim.events_processed)
    if sim.preemptions:
        obs.inc("des.preemptions", sim.preemptions)
    if sim.reroutes:
        obs.inc("des.reroutes", sim.reroutes)
    if result.stalls:
        obs.inc("des.stalls", len(result.stalls))
    if sim.link_busy and obs.tracing_enabled():
        top = sorted(sim.link_busy.items(), key=lambda kv: -kv[1])[:8]
        obs.counter_event(
            "des.link_busy", {k: round(v, 9) for k, v in top}
        )
    return result
