"""Discrete-event fabric engine: the profile engine of timeline scenarios.

Executes a finalized schedule's transfer steps as contending flows over
per-link/per-NIC port queues, replaying a
:class:`~repro.faults.FaultTimeline` of mid-run failures, heals, derates
and background traffic.  See ``docs/robustness.md`` for the engine model
and the calibration contract against the analytic engine.
"""

from repro.des.engine import FabricState, SimResult, StallRecord, simulate_profile
from repro.des.records import des_records

__all__ = [
    "FabricState",
    "SimResult",
    "StallRecord",
    "simulate_profile",
    "des_records",
]
