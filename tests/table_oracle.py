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
p=2048 swing allreduce build alone peaks at ~130 MB, traced, while its
segment tuples are made)::

    $ PYTHONPATH=src python tests/table_oracle.py --p 2048 --p 1500

It then makes one route-table check at campaign scale: the p=4096 ppn=2
LUMI allreduce profiles from a route table first grown by the p=16...1024
cells must equal those profiled on a fresh table (~4 s).

``--profiles P`` (repeatable) adds the scalar-oracle profile comparison
at scale: at each ``P``, every entry a LUMI sweep runs (rings skipped as
above) must profile through ``ProfileCache.get`` exactly as
``tests/scalar_oracle.py``'s ``oracle_profile`` does, on the pristine
fabric and under ``links=4,seed=13``::

    $ PYTHONPATH=src python tests/table_oracle.py --p 2048 --p 1500 \\
          --profiles 1500 --profiles 2048

At p=1500 only the non-power-of-two entries profile (Bruck, Sparbit,
alltoall, linear gather/scatter); p=2048 adds the butterflies and trees
(~35 s for both fabrics on a 2-CPU x86 machine).

``--segments P`` (repeatable) adds the segment-oracle comparison at scale:
every flow-backed entry (the butterflies and the composed bcast/reduce)
built at ``P`` ranks with ``n = P`` and ``n = 4P + 3`` must equal
``tests/segment_oracle.py``'s per-rank rendering transfer for transfer,
or raise the same error::

    $ PYTHONPATH=src python tests/table_oracle.py --segments 1024

``--plans P`` (repeatable) adds the plan-oracle comparison at scale: every
entry with a ``steps`` hook (the butterflies, rings, Bruck, Sparbit, the
reduce/gather/scatter trees, linear gather/scatter and the composed
bcast/reduce), its plan lowered from those steps at ``P`` ranks with
``n = P`` and ``n = 4P + 3`` and its compact phases written out as runs
(``CompiledPlan.expanded``), must equal ``compile_plan(spec.build(...))``,
the same steps built as objects and compiled, run for run, or raise the
same error (cells skipped as above)::

    $ PYTHONPATH=src python tests/table_oracle.py --plans 1024

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
from repro.faults import FaultSpec
from repro.model.compiled import TransferTable, lower_schedule
from repro.runtime.compiled import CompiledPlan, compile_plan, plan_from_arrays
from repro.runtime.memo import clear_memo_caches
from repro.runtime.schedule import schedule_validation
from repro.systems import lumi
from scalar_oracle import ScalarRoutes, oracle_profile
from segment_oracle import flow_backed_specs, schedule_mismatches

#: fault scenarios of the profile comparison (``--profiles``)
PROFILE_FAULTS = ("none", "links=4,seed=13")

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


def rendered_specs() -> list[AlgorithmSpec]:
    """Registry entries whose verifier plan renders without a schedule:
    those with a ``steps`` hook."""
    return [spec for spec in iter_specs() if spec.steps is not None]


def rendered_plan(spec: AlgorithmSpec, p: int, n: int, root: int = 0, op: str = "sum"):
    """The verifier's ``(schedule stub, plan)``, lowered from ``spec.steps``."""
    meta, buffers, steps = spec.steps(p, n, root, op)
    return plan_from_arrays(p, meta, steps, buffers)


def _same_array(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return a.dtype == b.dtype and np.array_equal(a, b)


def plan_mismatches(got: CompiledPlan, want: CompiledPlan) -> list[str]:
    """Where two compiled plans differ, ``got``'s compact phases written
    out as runs first: the layout, the run counts, or per phase its runs
    (``src``, ``dst``, ``width``, ``lens``) and write groups (slice,
    ufunc, disjoint)."""
    got = got.expanded()
    layout = [tuple(getattr(plan.layout, a) for a in ("names", "widths", "offsets", "total"))
              for plan in (got, want)]
    bad = [a for a in ("p", "transfers_run", "local_elems")
           if getattr(got, a) != getattr(want, a)]
    bad += ["layout"] if layout[0] != layout[1] else []
    if len(got.steps) != len(want.steps):
        return bad + [f"{len(got.steps)} steps != {len(want.steps)}"]
    for i, (a, b) in enumerate(zip(got.steps, want.steps)):
        if a.comm != b.comm:
            bad.append(f"step {i} comm")
        if len(a.phases) != len(b.phases):
            bad.append(f"step {i}: {len(a.phases)} phases != {len(b.phases)}")
            continue
        for j, (x, y) in enumerate(zip(a.phases, b.phases)):
            bad += [f"step {i} phase {j} {col}" for col in ("src", "dst", "lens")
                    if not _same_array(getattr(x, col), getattr(y, col))]
            bad += [f"step {i} phase {j} {attr}" for attr in ("width", "writes")
                    if getattr(x, attr) != getattr(y, attr)]
    return bad


def _outcome(make):
    try:
        return make(), None
    except Exception as exc:  # the error is part of the rendering
        return None, (type(exc), str(exc))


def _built(spec: AlgorithmSpec, p: int, n: int, root: int, op: str):
    schedule = spec.build(p, n, root, op)
    return schedule, compile_plan(schedule)


def cell_plan_mismatches(spec: AlgorithmSpec, p: int, n: int, root: int = 0,
                         op: str = "sum") -> list[str]:
    """Where :func:`rendered_plan` differs from building and compiling:
    its stub (``p``, ``meta``, no steps), its plan, or a differing error
    (type and text)."""
    got, got_err = _outcome(lambda: rendered_plan(spec, p, n, root, op))
    want, want_err = _outcome(lambda: _built(spec, p, n, root, op))
    if got_err or want_err:
        return [] if got_err == want_err else [f"error {got_err} != {want_err}"]
    (stub, plan), (schedule, compiled) = got, want
    bad = [] if (stub.p, stub.meta, stub.steps) == (schedule.p, schedule.meta, []) else ["stub"]
    return bad + plan_mismatches(plan, compiled)


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


def profile_mismatches(p: int, faults: str) -> tuple[list[str], int]:
    """Entries a LUMI sweep runs at ``p`` under ``faults`` whose
    ``ProfileCache.get`` differs from the scalar ``oracle_profile``, and
    how many entries profiled (the rest reject ``p``); skipped entries
    are printed."""
    cache = ProfileCache(lumi(), faults=FaultSpec.parse(faults))
    routes = ScalarRoutes(cache.topo)
    bad, profiled = [], 0
    for spec in iter_specs():
        if not cache.applicable(spec, p):
            continue
        skip = skip_reason(spec, p)
        if skip:
            print(f"profile {spec.collective}/{spec.name} p={p} "
                  f"faults={faults}: skipped ({skip})")
            continue
        got = cache.get(spec, p)
        if got != oracle_profile(cache, spec, p, routes=routes):
            bad.append(f"{spec.collective}/{spec.name}")
        profiled += got is not None
    return bad, profiled


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=int, action="append", default=[],
                    help="rank count to check (repeatable)")
    ap.add_argument("--profiles", type=int, action="append", default=[],
                    metavar="P", help="rank count for the scalar-oracle "
                    "profile comparison (repeatable)")
    ap.add_argument("--segments", type=int, action="append", default=[],
                    metavar="P", help="rank count for the segment-oracle "
                    "schedule comparison (repeatable)")
    ap.add_argument("--plans", type=int, action="append", default=[],
                    metavar="P", help="rank count for the plan-oracle "
                    "comparison (repeatable)")
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
    for p in args.profiles:
        for faults in PROFILE_FAULTS:
            clear_memo_caches()
            t0 = time.perf_counter()
            bad, profiled = profile_mismatches(p, faults)
            failures += len(bad)
            print(f"profiles p={p} faults={faults} vs scalar oracle: "
                  f"{'MISMATCH ' + ', '.join(bad) if bad else 'ok'} "
                  f"({profiled} entries profiled, "
                  f"{time.perf_counter() - t0:.1f} s)", flush=True)
    for p in args.segments:
        for spec in flow_backed_specs():
            for n in (p, 4 * p + 3):
                clear_memo_caches()
                t0 = time.perf_counter()
                with schedule_validation(False):
                    bad = schedule_mismatches(spec, p, n)
                failures += bool(bad)
                print(f"segments {spec.collective}/{spec.name} p={p} n={n}: "
                      f"{'MISMATCH ' + '; '.join(bad[:3]) if bad else 'ok'} "
                      f"({time.perf_counter() - t0:.1f} s)", flush=True)
    for p in args.plans:
        for spec in rendered_specs():
            skip = skip_reason(spec, p)
            if skip:
                print(f"plans {spec.collective}/{spec.name} p={p}: skipped ({skip})")
                continue
            for n in (p, 4 * p + 3):
                clear_memo_caches()
                t0 = time.perf_counter()
                bad = cell_plan_mismatches(spec, p, n)
                failures += bool(bad)
                print(f"plans {spec.collective}/{spec.name} p={p} n={n}: "
                      f"{'MISMATCH ' + '; '.join(bad[:3]) if bad else 'ok'} "
                      f"({time.perf_counter() - t0:.1f} s)", flush=True)
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
