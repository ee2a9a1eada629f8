"""Traffic accounting and the alpha-beta-congestion performance model."""

from repro.model.compiled import (
    CompiledRouteTable,
    GridMetrics,
    TransferTable,
    evaluate_grid,
    lower_schedule,
    profile_table,
    transfer_table_for,
)
from repro.model.cost import CostParams
from repro.model.simulator import ScheduleProfile, StepProfile
from repro.model.traffic import global_traffic_elems, traffic_reduction

__all__ = [
    "CompiledRouteTable",
    "CostParams",
    "GridMetrics",
    "ScheduleProfile",
    "StepProfile",
    "TransferTable",
    "evaluate_grid",
    "lower_schedule",
    "profile_table",
    "transfer_table_for",
    "global_traffic_elems",
    "traffic_reduction",
]
