"""Sweep adapter for the DES engine (the engine of timeline scenarios).

:func:`des_records` is the per-cell counterpart of
``repro.analysis.sweep._profile_records``: it simulates one
``(algorithm, p, ppn)`` profile at every vector size of the grid under
the cache's :class:`~repro.faults.FaultTimeline` and returns
:class:`~repro.analysis.sweep.SweepRecord` rows carrying the timeline
label and the ``stalled`` flag.

Analytic-profile cells (``alltoall``, at any rank count) have no lowered
transfer program to simulate; every other cell, ring included, replays
its transfer table at any ``p`` (a repeated step row once per step).
With an *empty* timeline the analytic cells fall back to the compiled
analytic evaluator — by the calibration contract the result is the same
number the DES engine would produce — so mixed grids keep working; with
a non-empty timeline they raise :class:`DESEngineError` (CLI exit
code 8), because silently ignoring the timeline would mislabel records.

Simulation results memoize in the module-level ``_SIM_CACHE`` (a bounded
FIFO declared in :mod:`repro.runtime.memo`): campaign summaries and
decision tables revisit identical cells, and a simulated cell is far
more expensive than an analytic one.
"""

from __future__ import annotations

import hashlib
import warnings
from typing import Sequence

from repro.des.engine import simulate_profile
from repro.model.analytic import analytic_builder
from repro.model.compiled import transfer_table_for
from repro.model.cost import CostParams
from repro.runtime.errors import DESEngineError
from repro.runtime.memo import Memo

__all__ = ["des_records"]

#: (cell key) -> (time, stalled)
_SIM_CACHE = Memo("des.records._SIM_CACHE", maxsize=4096, counter="sim")


def _params_digest(params: CostParams) -> str:
    return hashlib.sha1(repr(params).encode()).hexdigest()[:12]


def des_records(
    cache,
    system: str,
    spec,
    p: int,
    vector_bytes: Sequence[int],
    params: CostParams,
    ppn: int,
    profile,
) -> list:
    """Simulated records for one profile across the size grid.

    ``cache`` is the :class:`~repro.analysis.sweep.ProfileCache` driving
    the sweep (engine ``"des"``); ``profile`` is ``cache.get(spec, p,
    ppn)``, passed in so the sweep core keeps owning cache interaction.
    """
    from repro.analysis.sweep import SweepRecord, _profile_records

    if profile is None:
        return []
    timeline = cache.faults.timeline
    if analytic_builder(spec) is not None:
        if not timeline.is_null:
            raise DESEngineError(
                f"timeline {timeline.label!r} cannot replay on analytic "
                f"cell ({spec.collective}, {spec.name}, p={p}): alltoall "
                "has no lowered transfer program — restrict the grid or "
                "drop the timeline"
            )
        # Calm analytic cells are exactly the analytic evaluation (the
        # calibration contract), so mixed grids keep working under "des".
        return _profile_records(
            profile, system, spec, p, vector_bytes, params,
            faults=cache.faults_label, ppn=ppn,
        )
    table = transfer_table_for(spec, p)
    if table is None:
        return []
    mapping = cache.mapping_for(p, ppn)
    mdigest = hashlib.sha1(repr(mapping.nodes).encode()).hexdigest()[:12]
    pdigest = _params_digest(params)
    global_elems = profile.total_global_elems()
    records = []
    for nb in vector_bytes:
        key = (
            system, spec.collective, spec.name, p, ppn, nb,
            cache.faults_label, timeline.label,
            cache.placement, cache.seed, cache.busy_fraction,
            mdigest, pdigest,
        )

        def simulate() -> tuple[float, bool]:
            result = simulate_profile(
                table, profile, cache.topo, mapping, params, timeline,
                nb / params.itemsize,
            )
            if result.stalled:
                first = result.stalls[0]
                warnings.warn(
                    f"DES: cell ({spec.collective}, {spec.name}, p={p}, "
                    f"n_bytes={nb}) stalled under timeline "
                    f"{timeline.label!r}: {len(result.stalls)} flow(s) lost "
                    f"every route (first: step {first.step}, node "
                    f"{first.src_node}->{first.dst_node} at "
                    f"t={first.at:.3g}s); record carries stalled=True",
                    RuntimeWarning,
                )
            return result.time, result.stalled

        time, stalled = _SIM_CACHE.get_or(key, simulate)
        scale = (nb / params.itemsize) / profile.n_build
        records.append(
            SweepRecord(
                system=system,
                collective=spec.collective,
                algorithm=spec.name,
                family=spec.family,
                p=p,
                n_bytes=nb,
                time=float(time),
                global_bytes=float(global_elems * scale * params.itemsize),
                faults=cache.faults_label,
                ppn=ppn,
                timeline=timeline.label,
                stalled=stalled,
            )
        )
    return records
