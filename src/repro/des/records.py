"""Sweep adapter for the DES engine (the engine of timeline scenarios).

:func:`des_records` is the per-cell counterpart of
``repro.analysis.sweep._profile_records``: it simulates one
``(algorithm, p, ppn)`` profile at every vector size of the grid under
the cache's :class:`~repro.faults.FaultTimeline` and returns
:class:`~repro.analysis.sweep.SweepRecord` rows carrying the timeline
label and the ``stalled`` flag.

Every cell replays the transfer table its profile was built from, at
any ``p``: a repeated step row (``step_reps``) once per step, and
alltoall's packed or sampled tables like any other.  With an empty
timeline the result equals the compiled evaluator's, bit for bit (the
calibration contract).

Simulation results memoize in the module-level ``_SIM_CACHE`` (a bounded
FIFO declared in :mod:`repro.runtime.memo`): campaign summaries and
decision tables revisit identical cells, and a simulated cell is far
more expensive than a compiled evaluation.
"""

from __future__ import annotations

import hashlib
import warnings
from typing import Sequence

from repro.des.engine import simulate_profile
from repro.model.compiled import transfer_table_for
from repro.model.cost import CostParams
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
    from repro.analysis.sweep import SweepRecord

    if profile is None:
        return []
    timeline = cache.faults.timeline
    table = transfer_table_for(spec, p)
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
