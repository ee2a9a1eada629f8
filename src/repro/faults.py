"""Degraded-fabric fault injection (ROADMAP: robustness scenario axis).

The paper argues Bine trees cross fewer global links; that matters most
when the fabric is *not* pristine.  This module makes "not pristine" a
first-class, deterministic campaign knob:

* :class:`FaultSpec` — a declarative description of the degradation:
  how many global links have failed, how many nodes are down, how many
  nodes lost a NIC, and per-link-class width derates.  Failures are
  *sampled* deterministically from a seed, so the same spec always
  degrades a topology identically (across processes, workers, and disk
  caches), and its :attr:`~FaultSpec.label` keys records and cache
  entries.
* :class:`DegradedTopology` — a :class:`~repro.topology.base.Topology`
  wrapper applying a spec.  Routes that would use a failed global link
  detour through an intermediate group (non-minimal, one extra global
  hop); if every detour is blocked the pair is unreachable and
  :class:`~repro.runtime.errors.TopologyPartitionedError` names it.
  Width derates scale link widths, which the cost model divides load by.

The CSR :class:`~repro.model.compiled.CompiledRouteTable` routes unseen
node pairs in batches through ``topo.route_arrays``.  A degraded topology
keeps the base class's loop over its own ``route(src, dst)`` (only bare
Dragonflies route in NumPy), and the tests' scalar oracle table calls
``route`` per pair, so wrapping the topology degrades both identically —
sweep records stay bit-identical to the scalar oracle under any spec
(asserted in ``tests/test_faults.py``).

Example::

    >>> from repro.topology.dragonfly import Dragonfly
    >>> spec = FaultSpec.parse("links=2,seed=13")
    >>> topo = DegradedTopology(Dragonfly(8, 4), spec)
    >>> len(topo.failed_links)
    2
    >>> DegradedTopology(Dragonfly(8, 4), spec).failed_links == topo.failed_links
    True
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.runtime.errors import FaultSpecError, TopologyPartitionedError
from repro.topology.base import Link, LinkClass, Topology

__all__ = [
    "FaultSpec",
    "FaultTimeline",
    "TimelineEvent",
    "DegradedTopology",
    "NIC_DERATE",
]

#: width factor applied to node-adjacent links when one of a node's NICs
#: is out (half the injection/ejection bundle survives)
NIC_DERATE = 0.5

#: manifest / to_dict keys of a fault scenario
FAULT_KEYS = {
    "seed", "failed_links", "failed_nodes", "nic_outages", "derate", "timeline",
}


def _normalize_derate(derate) -> tuple[tuple[str, float], ...]:
    if isinstance(derate, Mapping):
        items: Iterable = derate.items()
    else:
        items = derate or ()
    return tuple(sorted((str(c), float(f)) for c, f in items))


def _fmt_num(value: float) -> str:
    """Shortest decimal that round-trips through ``float`` (canonical labels)."""
    return repr(float(value))


# -- fault timelines ----------------------------------------------------------

#: what a ``heal=`` event can restore (``all`` clears every dynamic effect)
HEAL_TARGETS = ("all", "links", "nodes", "nics", "derate", "background")


@dataclass(frozen=True)
class TimelineEvent:
    """One mid-run fabric event of a :class:`FaultTimeline`.

    ``at`` is the simulated time (seconds) the event fires; ``links`` /
    ``nodes`` / ``nics`` are *additional* victim counts sampled (from
    ``seed``) among the members still healthy when the event fires;
    ``derate`` sets per-class dynamic width factors; ``background`` sets
    the fraction of fabric bandwidth consumed by background traffic;
    ``heal`` reverses one category of dynamic effects (or ``"all"``).
    A healing event carries no failure/derate fields — each event is
    either damage or repair, which keeps the grammar canonical.
    """

    at: float
    links: int = 0
    nodes: int = 0
    nics: int = 0
    derate: tuple[tuple[str, float], ...] = field(default=())
    background: float | None = None
    heal: str = ""
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "derate", _normalize_derate(self.derate))
        self.validate()

    def validate(self) -> None:
        try:
            at = float(self.at)
        except (TypeError, ValueError):
            raise FaultSpecError(
                f"timeline event: at must be a number, got {self.at!r}"
            ) from None
        if not math.isfinite(at) or at < 0.0:
            raise FaultSpecError(
                f"timeline event: at must be finite and >= 0, got {self.at!r}"
            )
        object.__setattr__(self, "at", at)
        for name in ("links", "nodes", "nics", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise FaultSpecError(f"timeline event: {name} must be an integer")
        for name in ("links", "nodes", "nics"):
            if getattr(self, name) < 0:
                raise FaultSpecError(f"timeline event: {name} must be >= 0")
        for cls, factor in self.derate:
            if cls not in LinkClass.ALL:
                raise FaultSpecError(
                    f"timeline event: unknown link class {cls!r}; "
                    f"have {list(LinkClass.ALL)}"
                )
            if not 0.0 < factor <= 1.0:
                raise FaultSpecError(
                    f"timeline event: derate factor for {cls!r} must be in "
                    f"(0, 1], got {factor!r}"
                )
        if self.background is not None:
            bg = float(self.background)
            if not 0.0 <= bg < 1.0:
                raise FaultSpecError(
                    f"timeline event: background must be in [0, 1), got {bg!r}"
                )
            object.__setattr__(self, "background", bg)
        if self.heal and self.heal not in HEAL_TARGETS:
            raise FaultSpecError(
                f"timeline event: heal target {self.heal!r} unknown; "
                f"have {list(HEAL_TARGETS)}"
            )
        damages = self.links or self.nodes or self.nics or self.derate
        if self.heal and (damages or self.background is not None):
            raise FaultSpecError(
                "timeline event: heal events carry no failure/derate/"
                "background fields (use separate events)"
            )
        if not self.heal and not damages and self.background is None:
            raise FaultSpecError(
                f"timeline event at={_fmt_num(self.at)}: event does nothing"
            )

    @property
    def label(self) -> str:
        """Canonical ``at=T:field=value,...`` form (the grammar itself)."""
        parts = []
        if self.links:
            parts.append(f"links={self.links}")
        if self.nodes:
            parts.append(f"nodes={self.nodes}")
        if self.nics:
            parts.append(f"nics={self.nics}")
        parts.extend(f"{cls}={_fmt_num(f)}" for cls, f in self.derate)
        if self.background is not None:
            parts.append(f"background={_fmt_num(self.background)}")
        if self.heal:
            parts.append(f"heal={self.heal}")
        if self.seed:
            parts.append(f"seed={self.seed}")
        return f"at={_fmt_num(self.at)}:" + ",".join(parts)


def _parse_event(text: str) -> TimelineEvent:
    head, colon, rest = text.partition(":")
    key, _, value = head.partition("=")
    if not colon or key.strip() != "at":
        raise FaultSpecError(
            f"timeline event {text!r}: expected 'at=T:field=value,...'"
        )
    try:
        at = float(value)
    except ValueError:
        raise FaultSpecError(
            f"timeline event {text!r}: at takes a number, got {value!r}"
        ) from None
    kwargs: dict = {"at": at, "derate": {}}
    for part in rest.split(","):
        part = part.strip()
        if not part:
            continue
        key, eq, value = part.partition("=")
        key, value = key.strip(), value.strip()
        if not eq:
            raise FaultSpecError(
                f"timeline event {text!r}: expected field=value, got {part!r}"
            )
        if key in ("links", "nodes", "nics", "seed"):
            try:
                kwargs[key] = int(value)
            except ValueError:
                raise FaultSpecError(
                    f"timeline event {text!r}: {key} takes an integer, "
                    f"got {value!r}"
                ) from None
        elif key in ("background",):
            try:
                kwargs[key] = float(value)
            except ValueError:
                raise FaultSpecError(
                    f"timeline event {text!r}: {key} takes a number, "
                    f"got {value!r}"
                ) from None
        elif key == "heal":
            kwargs["heal"] = value
        elif key in LinkClass.ALL:
            try:
                kwargs["derate"][key] = float(value)
            except ValueError:
                raise FaultSpecError(
                    f"timeline event {text!r}: derate for {key!r} takes a "
                    f"number, got {value!r}"
                ) from None
        else:
            raise FaultSpecError(
                f"timeline event {text!r}: unknown field {key!r}; have "
                f"links, nodes, nics, seed, background, heal and the link "
                f"classes {list(LinkClass.ALL)}"
            )
    return TimelineEvent(**kwargs)


@dataclass(frozen=True)
class FaultTimeline:
    """A seeded, deterministic schedule of mid-run fabric events.

    Events are canonically sorted by ``at`` (construction order never
    matters) and two events may not share an ``at`` — the label must be a
    pure function of *what happens*, and simultaneous events would make
    application order an invisible degree of freedom.

    Example::

        >>> tl = FaultTimeline.parse("at=0.002:heal=links;at=0.001:links=2")
        >>> tl.label
        'at=0.001:links=2;at=0.002:heal=links'
        >>> FaultTimeline.parse(tl.label) == tl
        True
        >>> FaultTimeline().label
        'none'
    """

    events: tuple[TimelineEvent, ...] = ()

    def __post_init__(self):
        events = tuple(sorted(self.events, key=lambda e: e.at))
        object.__setattr__(self, "events", events)
        seen: set[float] = set()
        for event in events:
            if event.at in seen:
                raise FaultSpecError(
                    f"fault timeline: duplicate event time "
                    f"at={_fmt_num(event.at)} (merge the events or offset one)"
                )
            seen.add(event.at)

    @property
    def is_null(self) -> bool:
        return not self.events

    @property
    def label(self) -> str:
        """Canonical grammar string; ``"none"`` when empty.

        ``FaultTimeline.parse(tl.label) == tl`` always holds (asserted by
        the property tests), so the label can key records, cache entries
        and manifests exactly like :attr:`FaultSpec.label` does.
        """
        if not self.events:
            return "none"
        return ";".join(event.label for event in self.events)

    @classmethod
    def parse(cls, text: str) -> "FaultTimeline":
        """Parse ``at=T:links=K,seed=S;at=T2:heal=links`` (inverse of label)."""
        text = (text or "").strip()
        if text in ("", "none"):
            return cls()
        return cls(tuple(
            _parse_event(part.strip())
            for part in text.split(";") if part.strip()
        ))


@dataclass(frozen=True)
class FaultSpec:
    """Declarative, seeded description of a degraded fabric.

    ``failed_links`` / ``failed_nodes`` / ``nic_outages`` are *counts*;
    the concrete victims are sampled from ``seed`` when the spec is
    applied to a topology (same spec → same victims, always).
    ``derate`` maps link classes to width factors in ``(0, 1]`` — e.g.
    ``{"global": 0.5}`` halves every global bundle's capacity.

    ``timeline`` optionally attaches a :class:`FaultTimeline` of mid-run
    events on top of the static degradation; only the ``"des"`` profile
    engine can replay one (static engines raise
    :class:`~repro.runtime.errors.DESEngineError`).  The timeline has its
    own label (:attr:`timeline_label`) — :attr:`label` stays the static
    scenario name, so records carry the two axes separately.

    Example::

        >>> FaultSpec.parse("links=2,global=0.5,seed=13").label
        'links2-globalx0.5-seed13'
        >>> FaultSpec().label
        'none'
    """

    seed: int = 0
    failed_links: int = 0
    failed_nodes: int = 0
    nic_outages: int = 0
    derate: tuple[tuple[str, float], ...] = field(default=())
    timeline: FaultTimeline = field(default_factory=FaultTimeline)

    def __post_init__(self):
        object.__setattr__(self, "derate", _normalize_derate(self.derate))
        if isinstance(self.timeline, str):
            object.__setattr__(self, "timeline", FaultTimeline.parse(self.timeline))
        elif not isinstance(self.timeline, FaultTimeline):
            raise FaultSpecError(
                "fault spec: timeline must be a FaultTimeline or its label"
            )
        self.validate()

    def validate(self) -> None:
        """Raise :class:`FaultSpecError` on an ill-formed spec."""
        for name in ("seed", "failed_links", "failed_nodes", "nic_outages"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise FaultSpecError(f"fault spec: {name} must be an integer")
        for name in ("failed_links", "failed_nodes", "nic_outages"):
            if getattr(self, name) < 0:
                raise FaultSpecError(f"fault spec: {name} must be >= 0")
        for cls, factor in self.derate:
            if cls not in LinkClass.ALL:
                raise FaultSpecError(
                    f"fault spec: unknown link class {cls!r}; "
                    f"have {list(LinkClass.ALL)}"
                )
            if not 0.0 < factor <= 1.0:
                raise FaultSpecError(
                    f"fault spec: derate factor for {cls!r} must be in (0, 1], "
                    f"got {factor:g}"
                )

    @property
    def has_static(self) -> bool:
        """True when the spec degrades the fabric before the run starts."""
        return bool(
            self.failed_links or self.failed_nodes or self.nic_outages
            or self.derate
        )

    @property
    def is_null(self) -> bool:
        """True when the spec degrades nothing (statically *or* mid-run)."""
        return not self.has_static and self.timeline.is_null

    @property
    def label(self) -> str:
        """Canonical, filesystem-safe *static* scenario name (``"none"`` if
        statically pristine).

        The label keys :class:`~repro.analysis.sweep.SweepRecord` rows,
        disk-cache namespaces and report figures, so it must be a pure
        function of the spec.  The timeline has its own axis
        (:attr:`timeline_label`): profiles are a static-fabric artifact,
        so a timeline-only spec shares the pristine cache namespace.
        """
        if not self.has_static:
            return "none"
        parts = []
        if self.failed_links:
            parts.append(f"links{self.failed_links}")
        if self.failed_nodes:
            parts.append(f"nodes{self.failed_nodes}")
        if self.nic_outages:
            parts.append(f"nics{self.nic_outages}")
        parts.extend(f"{cls}x{factor:g}" for cls, factor in self.derate)
        parts.append(f"seed{self.seed}")
        return "-".join(parts)

    @property
    def timeline_label(self) -> str:
        """Canonical label of the attached timeline (``"none"`` if empty)."""
        return self.timeline.label

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse the compact CLI form: ``links=2,nodes=1,global=0.5,seed=13``.

        Keys ``links`` / ``nodes`` / ``nics`` / ``seed`` take integers;
        any link-class name (``local`` / ``global`` / ``torus`` /
        ``intra``) takes a derate factor.  ``"none"`` (or an empty
        string) is the pristine fabric.

        Example::

            >>> FaultSpec.parse("links=3,seed=7").failed_links
            3
        """
        text = (text or "").strip()
        if text in ("", "none"):
            return cls()
        kwargs: dict = {"derate": {}}
        for part in text.split(","):
            if "=" not in part:
                raise FaultSpecError(
                    f"fault spec {text!r}: expected key=value, got {part!r}"
                )
            key, _, value = part.partition("=")
            key, value = key.strip(), value.strip()
            if key in ("links", "nodes", "nics", "seed"):
                try:
                    ivalue = int(value)
                except ValueError:
                    raise FaultSpecError(
                        f"fault spec {text!r}: {key} takes an integer, "
                        f"got {value!r}"
                    ) from None
                field_name = {
                    "links": "failed_links", "nodes": "failed_nodes",
                    "nics": "nic_outages", "seed": "seed",
                }[key]
                kwargs[field_name] = ivalue
            elif key in LinkClass.ALL:
                try:
                    kwargs["derate"][key] = float(value)
                except ValueError:
                    raise FaultSpecError(
                        f"fault spec {text!r}: derate for {key!r} takes a "
                        f"number, got {value!r}"
                    ) from None
            else:
                raise FaultSpecError(
                    f"fault spec {text!r}: unknown key {key!r}; have "
                    f"links, nodes, nics, seed, and the link classes "
                    f"{list(LinkClass.ALL)}"
                )
        return cls(**kwargs)

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultSpec":
        """Build from a manifest ``[[faults]]`` table (inverse of to_dict)."""
        unknown = set(data) - FAULT_KEYS
        if unknown:
            raise FaultSpecError(
                f"fault spec: unknown key(s) {sorted(unknown)}; "
                f"allowed: {sorted(FAULT_KEYS)}"
            )

        def _int(key):
            value = data.get(key, 0)
            if isinstance(value, bool) or not isinstance(value, int):
                raise FaultSpecError(f"fault spec: {key} must be an integer")
            return value

        derate = data.get("derate", {})
        if not isinstance(derate, Mapping):
            raise FaultSpecError(
                "fault spec: derate must be a table of link-class factors"
            )
        timeline = data.get("timeline", "")
        if not isinstance(timeline, str):
            raise FaultSpecError(
                "fault spec: timeline must be a grammar string "
                "('at=T:links=K,...;at=T2:heal=...')"
            )
        return cls(
            seed=_int("seed"),
            failed_links=_int("failed_links"),
            failed_nodes=_int("failed_nodes"),
            nic_outages=_int("nic_outages"),
            derate={str(k): v for k, v in derate.items()},
            timeline=FaultTimeline.parse(timeline),
        )

    def to_dict(self) -> dict:
        """Manifest-shaped view (omits defaults; round-trips from_dict)."""
        out: dict = {}
        if self.seed:
            out["seed"] = self.seed
        if self.failed_links:
            out["failed_links"] = self.failed_links
        if self.failed_nodes:
            out["failed_nodes"] = self.failed_nodes
        if self.nic_outages:
            out["nic_outages"] = self.nic_outages
        if self.derate:
            out["derate"] = dict(self.derate)
        if not self.timeline.is_null:
            out["timeline"] = self.timeline.label
        return out


# -- topology wrapper ---------------------------------------------------------


def _group_members(topo: Topology) -> dict[int, list[int]]:
    members: dict[int, list[int]] = {}
    for v in range(topo.num_nodes):
        members.setdefault(topo.group_of(v), []).append(v)
    return members


def _global_link_population(
    topo: Topology, reps: dict[int, int]
) -> list[tuple]:
    """Every global-class link key, found by probing group-pair routes.

    Minimal routing is deterministic, so routing one representative node
    pair per ordered group pair surfaces every inter-group shared link
    (Dragonfly ``glob`` bundles, fat-tree ``up``/``down`` uplinks).  A
    torus has no global-class links: its population is empty and asking
    to fail links there is a :class:`FaultSpecError`.
    """
    keys = set()
    groups = sorted(reps)
    for ga in groups:
        for gb in groups:
            if ga == gb:
                continue
            for link in topo.route(reps[ga], reps[gb]):
                if link.cls == LinkClass.GLOBAL:
                    keys.add(link.key)
    return sorted(keys, key=repr)


class DegradedTopology(Topology):
    """A topology with a :class:`FaultSpec` applied.

    Deterministic by construction: victims are drawn from
    ``random.Random(spec.seed)`` over canonically ordered populations
    (global link keys sorted by repr; node ids ascending), so two
    instances built from the same ``(topology, spec)`` are
    indistinguishable — including across pickling into sweep workers.

    Routing semantics (see ``docs/robustness.md``):

    * a route whose global link failed detours via the lowest-numbered
      group whose representative yields a surviving route (one extra
      global hop); no surviving detour →
      :class:`TopologyPartitionedError` naming the pair;
    * routes touching a failed node raise
      :class:`TopologyPartitionedError` immediately;
    * a NIC outage multiplies the width of every link adjacent to the
      node (first/last hops of its routes) by :data:`NIC_DERATE`;
    * class derates multiply every matching link's width.

    Width scaling is a pure function of the link *key*, so shared links
    keep one consistent width everywhere they appear — which is what
    keeps the CSR and scalar-oracle route tables bit-identical.
    """

    def __init__(self, inner: Topology, spec: FaultSpec):
        if isinstance(inner, DegradedTopology):
            raise FaultSpecError("cannot degrade an already-degraded topology")
        spec.validate()
        self.inner = inner
        self.spec = spec
        rng = random.Random(spec.seed)
        members = _group_members(inner)
        reps = {g: nodes[0] for g, nodes in members.items()}
        population = _global_link_population(inner, reps)
        if spec.failed_links > len(population):
            raise FaultSpecError(
                f"cannot fail {spec.failed_links} global links: {inner!r} "
                f"has only {len(population)}"
            )
        self.failed_links = frozenset(rng.sample(population, spec.failed_links))
        nodes = list(range(inner.num_nodes))
        if spec.failed_nodes + spec.nic_outages > len(nodes):
            raise FaultSpecError(
                f"cannot fail {spec.failed_nodes} nodes and derate "
                f"{spec.nic_outages} NICs on {len(nodes)} nodes"
            )
        self.failed_nodes = frozenset(rng.sample(nodes, spec.failed_nodes))
        healthy = [v for v in nodes if v not in self.failed_nodes]
        self.nic_outages = frozenset(rng.sample(healthy, spec.nic_outages))
        self._derate = dict(spec.derate)
        self._members = members
        # healthy detour representative per group (groups that lost every
        # node simply offer no detour)
        self._healthy_reps = {
            g: next((v for v in ns if v not in self.failed_nodes), None)
            for g, ns in members.items()
        }
        self._nic_keys = self._nic_adjacent_keys()

    def _nic_adjacent_keys(self) -> frozenset:
        """Link keys derated by NIC outages: first/last hops around the node.

        Probes routes between the node and (a) every node of its own
        group, (b) one representative of every other group — which
        covers the node's dedicated access links on all shipped
        topologies.  Where the adjacent link is a shared bundle
        (fat-tree uplinks), the derate conservatively applies to the
        bundle; documented as lower-bound modelling.
        """
        keys = set()
        for v in sorted(self.nic_outages):
            g = self.inner.group_of(v)
            peers = list(self._members[g])
            peers.extend(
                rep for grp, rep in sorted(self._healthy_reps.items())
                if grp != g and rep is not None
            )
            for w in peers:
                if w == v:
                    continue
                out = self.inner.route(v, w)
                if out:
                    keys.add(out[0].key)
                back = self.inner.route(w, v)
                if back:
                    keys.add(back[-1].key)
        return frozenset(keys)

    # -- Topology interface -------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self.inner.num_nodes

    def group_of(self, node: int) -> int:
        return self.inner.group_of(node)

    def route(self, src: int, dst: int) -> list[Link]:
        self._check_node(src)
        self._check_node(dst)
        for v in (src, dst):
            if v in self.failed_nodes:
                raise TopologyPartitionedError(src, dst, f"node {v} is down")
        if src == dst:
            return []
        base = self.inner.route(src, dst)
        if not self._blocked(base):
            return self._shape(base)
        gs, gd = self.group_of(src), self.group_of(dst)
        for g in sorted(self._healthy_reps):
            if g in (gs, gd):
                continue
            mid = self._healthy_reps[g]
            if mid is None or mid in (src, dst):
                continue
            detour = self.inner.route(src, mid) + self.inner.route(mid, dst)
            if not self._blocked(detour):
                return self._shape(detour)
        raise TopologyPartitionedError(
            src, dst, f"{len(self.failed_links)} failed links, no detour"
        )

    # -- internals ----------------------------------------------------------

    def _blocked(self, links: list[Link]) -> bool:
        return any(link.key in self.failed_links for link in links)

    def _shape(self, links: list[Link]) -> list[Link]:
        out = []
        for link in links:
            factor = self._derate.get(link.cls, 1.0)
            if link.key in self._nic_keys:
                factor *= NIC_DERATE
            if factor != 1.0:
                width = link.width * factor
                # A factor in (0, 1] can still *compose* its way to zero:
                # a denormal class derate times NIC_DERATE underflows, and
                # a zero-width link turns every load it carries into a
                # divide-by-zero (inf records) downstream.  Refuse here —
                # loudly — rather than poison the sweep.
                if not width > 0.0:
                    raise FaultSpecError(
                        f"fault spec {self.spec.label!r}: derate underflows "
                        f"link {link.key!r} ({link.cls}) from width "
                        f"{link.width:g} to zero"
                    )
                link = Link(link.key, link.cls, width)
            out.append(link)
        return out

    def __repr__(self) -> str:
        return f"DegradedTopology({self.inner!r}, {self.spec.label!r})"
