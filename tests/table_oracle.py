"""Table oracle: plan-backed sweep tables equal their lowered schedules.

Every registry entry with a plan-backed table (``spec.table``: the
butterfly flows, Bruck, Sparbit, the rings and the composed bcast/reduce;
alltoall's cost-model tables are not plan-backed) renders its sweep
:class:`~repro.model.compiled.TransferTable` from rank arrays, without
building its schedule.  The oracle is the path it
replaces: build the full schedule at ``n = p`` and lower it.  A rendered
table may run a step row several times (``step_reps``; the rings are one
row per pass), so it is compared with its rows expanded
(:func:`expand_reps`).  :func:`skip_reason` names the cells left out,
which are printed as skipped: no sweep exceeds an entry's ``max_p``, and
the ring oracle stops below p=1024, where building the allreduce ring
schedule alone takes 16-20 s and 1.4 GB (2-CPU x86 machine).  The tier-1
suite checks up to p=1024 (``tests/test_plan_backed_tables.py``); this
script runs the same comparison at larger p, too heavy for tier-1 (the
p=2048 swing allreduce build alone holds ~430 MB of segment tuples)::

    $ PYTHONPATH=src python tests/table_oracle.py --p 2048 --p 1500

It then makes one route-table check at campaign scale: the p=4096 ppn=2
LUMI allreduce profiles from a route table first grown by the p=16...1024
cells must equal those profiled on a fresh table (~4 s).

Exit code 0 when every (entry, p) cell matches; 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

import numpy as np

from repro.analysis.sweep import ProfileCache
from repro.collectives.registry import AlgorithmSpec, iter_specs
from repro.model.compiled import TransferTable, lower_schedule
from repro.runtime.memo import clear_memo_caches
from repro.runtime.schedule import schedule_validation
from repro.systems import lumi

#: the eleven array columns of a TransferTable
COLUMNS = (
    "step_off", "step_reps", "src", "dst", "nelems", "num_segments", "has_op",
    "local_off", "local_rank", "local_nelems", "local_has_op",
)

#: the ring oracle's first skipped rank count (see :func:`skip_reason`)
RING_ORACLE_SKIP_P = 1024


def plan_backed_specs() -> list[AlgorithmSpec]:
    """Registry entries whose sweep table renders from a plan.

    Alltoall's tables are left out by their ``meta["analytic"]`` flag:
    they are packed or sampled cost models, not the lowering of the
    executor's slot-tracking schedule, so no equality with it holds.
    """
    return [
        spec for spec in iter_specs()
        if spec.table is not None and not spec.table(4).meta.get("analytic")
    ]


def skip_reason(spec: AlgorithmSpec, p: int) -> str | None:
    """Why ``spec``'s table is not compared at ``p``; ``None`` if it is."""
    if spec.max_p is not None and p > spec.max_p:
        return f"sweeps cap p at {spec.max_p}"
    if spec.name == "ring" and p >= RING_ORACLE_SKIP_P:
        return (f"ring oracle skipped at p >= {RING_ORACLE_SKIP_P}: the "
                "allreduce ring build takes 16-20 s and 1.4 GB at p=1024")
    return None


def oracle_table(spec: AlgorithmSpec, p: int) -> TransferTable | None:
    """``lower_schedule(spec.build(p, p))``, ``None`` when ``p`` is rejected."""
    try:
        with schedule_validation(False):
            schedule = spec.build(p, p)
    except ValueError:
        return None
    return lower_schedule(schedule)


def expand_reps(table: TransferTable) -> TransferTable:
    """``table`` with step row ``i`` written out ``step_reps[i]`` times
    and every repeat count 1: the one-pass layout of ``lower_schedule``."""
    rows = np.repeat(np.arange(table.num_steps), table.step_reps)
    columns = {"step_reps": np.ones(rows.size, dtype=np.int64)}
    for off, names in (
        ("step_off", ("src", "dst", "nelems", "num_segments", "has_op")),
        ("local_off", ("local_rank", "local_nelems", "local_has_op")),
    ):
        bounds = getattr(table, off)
        idx = np.concatenate([
            np.zeros(0, dtype=np.intp),
            *(np.arange(bounds[i], bounds[i + 1]) for i in rows),
        ])
        counts = np.diff(bounds)[rows]
        columns[off] = np.concatenate(([0], np.cumsum(counts))).astype(np.intp)
        columns.update({name: getattr(table, name)[idx] for name in names})
    return dataclasses.replace(table, **columns)


def table_mismatches(table: TransferTable | None, oracle: TransferTable | None) -> list[str]:
    """Names of the fields where ``table``, its step rows expanded,
    differs from ``oracle``."""
    if table is None or oracle is None:
        return [] if table is oracle else ["constraint miss"]
    table = expand_reps(table)
    bad = [
        col for col in COLUMNS
        if getattr(table, col).dtype != getattr(oracle, col).dtype
        or not np.array_equal(getattr(table, col), getattr(oracle, col))
    ]
    return bad + [
        attr for attr in ("p", "n_build", "meta")
        if getattr(table, attr) != getattr(oracle, attr)
    ]


def prewarmed_route_mismatches(
    p: int = 4096, ppn: int = 2, warm_counts=(16, 64, 256, 1024)
) -> list[str]:
    """Allreduce entries whose ``(p, ppn)`` LUMI profile changes when the
    shared route table was first grown by the ``warm_counts`` cells."""
    specs = iter_specs("allreduce")
    warm = ProfileCache(lumi())
    for q in warm_counts:
        for spec in specs:
            warm.get(spec, q)
    mapping = warm.mapping_for(p, ppn)
    return [
        spec.name for spec in specs
        if warm.get(spec, p, ppn)
        != ProfileCache(lumi(), mappings={(p, ppn): mapping}).get(spec, p, ppn)
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=int, action="append", required=True,
                    help="rank count to check (repeatable)")
    args = ap.parse_args(argv)
    failures = 0
    for spec in plan_backed_specs():
        for p in args.p:
            skip = skip_reason(spec, p)
            if skip:
                print(f"{spec.collective}/{spec.name} p={p}: skipped ({skip})")
                continue
            clear_memo_caches()  # one cell's segment tuples at a time
            t0 = time.perf_counter()
            try:
                table = spec.table(p)
            except ValueError:
                table = None
            rendered_s = time.perf_counter() - t0
            bad = table_mismatches(table, oracle_table(spec, p))
            failures += bool(bad)
            print(f"{spec.collective}/{spec.name} p={p}: "
                  f"{'MISMATCH ' + ', '.join(bad) if bad else 'ok'} "
                  f"(table {rendered_s * 1e3:.1f} ms)", flush=True)
    clear_memo_caches()
    t0 = time.perf_counter()
    bad = prewarmed_route_mismatches()
    failures += len(bad)
    print(f"allreduce p=4096 ppn=2 on pre-warmed routes: "
          f"{'MISMATCH ' + ', '.join(bad) if bad else 'ok'} "
          f"({time.perf_counter() - t0:.1f} s)", flush=True)
    clear_memo_caches()
    print(f"{failures} mismatched cell(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
