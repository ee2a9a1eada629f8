"""Profile records: the size-invariant aggregates the cost model evaluates.

Profiles make sweeps cheap: a schedule is built once per ``(algorithm, p)``
at the canonical size ``n = p`` elements (block size 1), routed once per
topology/mapping, and collapsed into per-step aggregates in *element units*.
Evaluating any real vector size then just scales the byte terms by
``n / n_build`` — latency terms (hops, segment counts) are size-invariant.
This mirrors how the algorithms behave: their communication structure does
not depend on the vector size, only their per-transfer byte counts do.

:func:`repro.model.compiled.profile_table` produces these records and
:func:`repro.model.compiled.evaluate_grid` scores them; the analytic
builders (:mod:`repro.model.analytic`) produce them without a schedule.
The records stay in this module because on-disk profile caches pickle
them by module path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["StepProfile", "ScheduleProfile", "PIPELINE_CHUNKS"]

#: chunks assumed for pipelined (chained) schedules — Sec. 5.4 tree chains
PIPELINE_CHUNKS = 32


@dataclass(frozen=True)
class StepProfile:
    """Size-invariant aggregates for one step (element units at build size)."""

    #: unique (hops_by_class, segments) latency signatures
    lat_signatures: tuple[tuple[tuple[tuple[str, int], ...], int], ...]
    #: max element load on any single link, per class
    max_link_load: tuple[tuple[str, int], ...]
    #: max elements injected / ejected by any node
    max_inj: int
    max_ej: int
    #: max elements reduced at any rank (incoming transfers with an op)
    max_reduce: int
    #: max elements moved locally at any rank (pre+post copies)
    max_copy: int
    #: total elements crossing group boundaries
    global_elems: int
    #: total elements by link class (element·link products)
    class_elems: tuple[tuple[str, int], ...]
    #: max messages handled (sent+received) by any rank this step
    max_node_msgs: int = 0


@dataclass(frozen=True)
class ScheduleProfile:
    """All steps plus metadata needed for evaluation."""

    p: int
    n_build: int
    meta: dict = field(hash=False)
    steps: tuple[StepProfile, ...] = ()

    @property
    def segmented(self) -> bool:
        return bool(self.meta.get("segmented", False))

    # The step totals are size-invariant, but per-size evaluation used to
    # re-walk every step for them on each call; both are memoized on the
    # instance (frozen dataclass, hence object.__setattr__ — the same idiom
    # as Transfer._nelems).

    def total_global_elems(self) -> int:
        cached = self.__dict__.get("_total_global_elems")
        if cached is None:
            cached = sum(s.global_elems for s in self.steps)
            object.__setattr__(self, "_total_global_elems", cached)
        return cached

    def total_class_elems(self) -> dict[str, int]:
        cached = self.__dict__.get("_total_class_elems")
        if cached is None:
            cached = {}
            for s in self.steps:
                for cls, e in s.class_elems:
                    cached[cls] = cached.get(cls, 0) + e
            object.__setattr__(self, "_total_class_elems", cached)
        return dict(cached)  # callers may mutate their view
