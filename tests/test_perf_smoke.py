"""Wall-clock guard against sweep-pipeline performance regressions.

The quadratic ``Step.validate`` re-scan (and the uncached ν-label tables it
hid behind) made a single 256-rank butterfly build+profile take seconds;
the fixed pipeline does it in well under one.  A generous budget keeps the
test portable across CI machines while still failing loudly if an
O(transfers²)-class regression returns.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from repro.analysis import sweep
from repro.analysis.sweep import clear_memo_caches, memo_cache_sizes, sweep_system
from repro.collectives.butterfly_collectives import allgather_butterfly
from repro.collectives.registry import COLLECTIVES, AlgorithmSpec, build, iter_specs, spec_for
from repro.collectives.verify import check, init_buffers, run_and_check_compiled
from repro.core.butterfly import bine_butterfly_doubling
from repro.model.compiled import CompiledRouteTable, transfer_table_for
from repro.runtime.compiled import compile_plan
from repro.runtime.executor import execute
from repro.runtime.schedule import schedule_validation
from repro.systems import lumi
from repro.topology.dragonfly import Dragonfly
from repro.topology.mapping import block_mapping
from scalar_oracle import profile_schedule

#: generous ceiling — the pre-fix pipeline exceeded it several times over
BUDGET_S = 5.0


def test_256_rank_allgather_build_profile_under_budget():
    clear_memo_caches()  # cold start: include label-table construction
    preset = lumi()
    topo = preset.build_topology()
    t0 = time.perf_counter()
    schedule = allgather_butterfly(bine_butterfly_doubling(256), 256)
    profile = profile_schedule(schedule, topo, block_mapping(256))
    elapsed = time.perf_counter() - t0
    assert len(profile.steps) == schedule.num_steps == 8
    assert elapsed < BUDGET_S, f"build+profile took {elapsed:.2f}s (budget {BUDGET_S}s)"


def test_256_rank_compiled_oracle_under_reference_budget():
    """Compile + batched execute must stay under the reference executor's
    wall-clock for the same work — the compiled path's reason to exist.

    The cell is a 256-rank ring allreduce (Θ(p²) transfers: per-transfer
    interpreter overhead dominates) verified at two seeds; the reference
    budget is measured in-process so the assertion is machine-independent.
    A small floor keeps timer noise from failing near-zero measurements.
    """
    seeds = (0, 1)
    schedule = build("allreduce", "ring", 256, 256)
    with schedule_validation(False):  # identical settings for both engines
        t0 = time.perf_counter()
        for seed in seeds:
            bufs = init_buffers(schedule, seed)
            execute(schedule, bufs)
            check(schedule, bufs, seed)
        reference_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        run_and_check_compiled(schedule, seeds)  # includes compile_plan
        compiled_s = time.perf_counter() - t0
    assert compiled_s < max(reference_s, 0.05), (
        f"compile+execute took {compiled_s:.3f}s, "
        f"reference budget is {reference_s:.3f}s"
    )


def test_4096_rank_sweep_cell_under_budget():
    """One cold p=4096 sweep cell — build, lower, profile through the CSR
    route matrix, evaluate all nine paper sizes in one grid pass — must
    stay comfortably interactive (the compiled profile pipeline's reason
    to exist; this cell measured ~1.4 s cold on the bench box).  LUMI has
    24 x 124 = 2976 nodes, so 4096 ranks run at ppn=2 like the paper's
    multi-rank-per-node configurations.
    """
    clear_memo_caches()  # cold start: include table lowering + routing
    t0 = time.perf_counter()
    records = sweep_system(
        lumi(),
        ("allreduce",),
        node_counts=(4096,),
        vector_bytes=tuple(32 * 8**k for k in range(9)),
        algorithms=("bine-rsag",),
        ppn=2,
    )
    elapsed = time.perf_counter() - t0
    assert len(records) == 9
    assert all(r.p == 4096 and r.time > 0 for r in records)
    assert elapsed < BUDGET_S * 2, (
        f"p=4096 sweep cell took {elapsed:.2f}s (budget {BUDGET_S * 2}s)"
    )


def test_butterfly_sweep_cell_builds_no_schedule(monkeypatch):
    """A cold p=2048 swing allreduce cell renders its table from the flow:
    no ``AlgorithmSpec.build`` call and no segment tuple cached.  The
    schedule path holds ~400 MB of segment tuples for this cell, so these
    exact counts guard peak memory as well as time."""
    clear_memo_caches()
    builds = []
    original = AlgorithmSpec.build

    def counting_build(self, *args, **kwargs):
        builds.append((self.collective, self.name) + args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(AlgorithmSpec, "build", counting_build)
    records = sweep_system(
        lumi(), ("allreduce",), node_counts=(2048,), ppn=2, algorithms=("swing",)
    )
    assert records and all(r.algorithm == "swing" for r in records)
    assert builds == []
    assert memo_cache_sizes()["butterfly_collectives._SEG_CACHE"] == 0


#: the entries a sweep still builds schedules for: the trees and linear
#: algorithms (every other entry renders its table without a schedule)
TREE_AND_LINEAR = {
    (collective, name)
    for collective in ("bcast", "reduce")
    for name in ("binomial-dd", "binomial-dh", "bine")
} | {
    (collective, name)
    for collective in ("gather", "scatter")
    for name in ("binomial", "bine", "linear")
}


def test_table3_sweep_builds_only_tree_and_linear_schedules(monkeypatch):
    """A cold LUMI Table-3 sweep (8 collectives, p = 16/64/256) calls
    ``AlgorithmSpec.build`` once per rank count for each tree and linear
    entry and never otherwise: Bruck, Sparbit, the rings and the composed
    bcast/reduce render their tables from plans.  No segment tuple is
    cached either (the composed builders used to fill the cache)."""
    clear_memo_caches()
    builds = Counter()
    original = AlgorithmSpec.build

    def counting_build(self, *args, **kwargs):
        builds[self.collective, self.name] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(AlgorithmSpec, "build", counting_build)
    records = sweep_system(lumi(), COLLECTIVES, node_counts=(16, 64, 256))
    assert {r.collective for r in records} == set(COLLECTIVES)
    assert builds == {entry: 3 for entry in TREE_AND_LINEAR}
    assert memo_cache_sizes()["butterfly_collectives._SEG_CACHE"] == 0


def test_cold_sweep_profiles_every_cell_through_one_table(monkeypatch):
    """A cold 8-collective LUMI sweep profiles every ``(spec, p)`` cell,
    alltoall included, through ``profile_table`` exactly once, on the
    cell's memoised transfer table: one profile path for every entry."""
    clear_memo_caches()
    profiled = Counter()
    original = sweep.profile_table

    def counting_profile(table, *args, **kwargs):
        profiled[id(table)] += 1
        return original(table, *args, **kwargs)

    monkeypatch.setattr(sweep, "profile_table", counting_profile)
    records = sweep_system(
        lumi(), COLLECTIVES, node_counts=(16, 64), vector_bytes=(1024,)
    )
    cells = {(spec.collective, spec.name, p) for spec in iter_specs() for p in (16, 64)}
    assert {(r.collective, r.algorithm, r.p) for r in records} == cells
    assert profiled == Counter(
        id(transfer_table_for(spec_for(coll, name), p)) for coll, name, p in cells
    )


def test_1024_rank_compiled_oracle_absolute_budget():
    """A p=1024 butterfly cell — compile once, verify two seeds — must stay
    comfortably interactive (the grid-scale `repro verify` building block)."""
    schedule = build("allreduce", "bine-rsag", 1024, 1024)
    with schedule_validation(False):
        t0 = time.perf_counter()
        plan = compile_plan(schedule)
        run_and_check_compiled(schedule, (0, 1), plan)
        elapsed = time.perf_counter() - t0
    assert elapsed < BUDGET_S, (
        f"compile+verify took {elapsed:.2f}s (budget {BUDGET_S}s)"
    )


@contextmanager
def _route_table_python_lines():
    """Count the Python lines run inside ``CompiledRouteTable`` methods
    (their comprehensions included) while the block runs."""
    count = Counter()

    def line(frame, event, arg):
        count["lines"] += event == "line"
        return line

    def call(frame, event, arg):
        in_table = frame.f_code.co_qualname.startswith("CompiledRouteTable.")
        return line if in_table else None

    outer = sys.gettrace()
    sys.settrace(call)
    try:
        yield count
    finally:
        sys.settrace(outer)


#: Python lines the route table may run per interned pair or route link,
#: per resolved step, and per all-hit re-resolve.  The cold sweep below
#: uses under half of its budget; re-deriving every held row in Python on
#: each append runs about three times over it
LINES_PER_ROW, LINES_PER_STEP, LINES_PER_HIT = 8, 200, 8


def test_cold_sweep_routes_each_node_pair_once(monkeypatch):
    """A cold LUMI sweep routes each distinct node pair exactly once, and
    the route table's Python work is linear in what it interns: a step
    appends its unseen pairs in one batch without touching the rows it
    already holds, and a step whose pairs are all interned runs no
    per-pair Python and leaves the table's arrays untouched.  Rebuilding
    the table whenever it grew made cold profiling quadratic in the
    campaign."""
    clear_memo_caches()
    routed = Counter()
    route = Dragonfly.route

    def counting_route(self, a, b):
        routed[a, b] += 1
        return route(self, a, b)

    steps = []  # (table, a, b, pairs routed, arrays before, arrays after)
    resolve = CompiledRouteTable.resolve

    def watching_resolve(self, a, b):
        before, n_routed = self._arrays, len(routed)
        pids = resolve(self, a, b)
        steps.append((self, a, b, len(routed) - n_routed, before, self._arrays))
        return pids

    monkeypatch.setattr(Dragonfly, "route", counting_route)
    monkeypatch.setattr(CompiledRouteTable, "resolve", watching_resolve)
    with _route_table_python_lines() as cold:
        records = sweep_system(
            lumi(), ("allreduce", "allgather"), node_counts=(16, 64, 256)
        )
    assert records
    (routes,) = {s[0] for s in steps}
    interned = routes._arrays
    assert set(routed.values()) == {1}
    assert len(routed) == interned.sig.size
    assert {bool(s[3]) for s in steps} == {True, False}
    rows = interned.sig.size + interned.link.size
    assert cold["lines"] <= LINES_PER_ROW * rows + LINES_PER_STEP * len(steps), (
        f"{cold['lines']} route-table lines for {rows} interned rows "
        f"over {len(steps)} steps"
    )
    for _, _, _, new, before, after in steps:
        if not new:
            assert after is before
            continue
        assert after.sig.size == before.sig.size + new
        for col in ("off", "link", "width", "cls", "sig", "nic"):
            old = getattr(before, col)
            assert np.array_equal(getattr(after, col)[: old.size], old), col
        old_hops = before.hops
        assert np.array_equal(
            after.hops[: old_hops.shape[0], : old_hops.shape[1]], old_hops
        )
        assert not after.hops[: old_hops.shape[0], old_hops.shape[1]:].any()

    # re-resolving every step of the sweep routes, appends and loops nothing
    with _route_table_python_lines() as hot:
        for _, a, b, *_ in steps:
            resolve(routes, a, b)
    assert routes._arrays is interned
    assert sum(routed.values()) == len(routed)
    assert hot["lines"] <= LINES_PER_HIT * len(steps)
