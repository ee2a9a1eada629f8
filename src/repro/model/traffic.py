"""Traffic accounting: the paper's global-link byte metric (Secs. 2.4, 5.x).

:func:`global_traffic_elems` counts group-crossing message bytes, the metric
of Fig. 1 ("6n vs 3n bytes over global links"), Fig. 5, and the "Traffic
Red." columns of Tables 3-5.  Each message counts once if its endpoints'
groups differ (minimal routing assumed, as in the paper), so no route is
walked.  Per-link-class totals under a concrete topology and mapping come
from a profile (:meth:`~repro.model.simulator.ScheduleProfile.total_class_elems`).
"""

from __future__ import annotations

from typing import Sequence

from repro.runtime.schedule import Schedule

__all__ = ["global_traffic_elems", "traffic_reduction"]


def global_traffic_elems(schedule: Schedule, groups: Sequence[int]) -> int:
    """Elements crossing group boundaries; ``groups[rank]`` is rank's group."""
    total = 0
    for _, t in schedule.all_transfers():
        if groups[t.src] != groups[t.dst]:
            total += t.nelems
    return total


def traffic_reduction(baseline_elems: int, candidate_elems: int) -> float:
    """Fractional reduction of candidate vs baseline (positive = candidate wins).

    Matches the paper's Fig. 5 quantity; 0 when the baseline moves nothing.
    """
    if baseline_elems == 0:
        return 0.0
    return 1.0 - candidate_elems / baseline_elems
