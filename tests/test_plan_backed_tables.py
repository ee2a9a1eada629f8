"""Plan-backed entries make sweep tables without a build, equal to lowered schedules.

The sweep profiles every entry with a ``steps`` hook (the butterflies,
the rings, Bruck, Sparbit, the reduce/gather/scatter trees, linear
gather/scatter, the composed bcast/reduce, and the torus catalog but
trinaryx) from ``lower_steps`` over its steps, which reads each phase's
element and segment counts (closed-form set sizes and run counts for the
butterflies) and makes no segment.  The oracle is the slow path:
``lower_schedule(spec.build(p, n))`` at the canonical size, compared
with the table's repeated step rows expanded, at every cell a sweep
renders up to the ring oracle's cap; the others are reported as
skipped.  Larger p runs from ``tests/table_oracle.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from table_oracle import oracle_table, plan_backed_specs, skip_reason, table_mismatches

from repro.collectives.butterfly_collectives import (
    allgather_flow,
    allreduce_rsag_flow,
    flow_stream,
    reduce_scatter_flow,
    render_schedule,
)
from repro.collectives.common import Strategy
from repro.collectives.registry import spec_for
from repro.collectives.torus import torus_algorithms
from repro.core.butterfly import bine_butterfly_halving, recursive_halving_butterfly
from repro.core.torus_opt import TorusShape
from repro.model import compiled
from repro.model.compiled import lower_schedule, lower_steps, transfer_table_for
from repro.runtime.errors import ScheduleError
from repro.runtime.memo import clear_memo_caches

PLAN_BACKED = {
    ("allgather", name) for name in (
        "bine-blocks", "bine-natural", "bine-permute", "bine-send",
        "bine-two-transmissions", "recursive-doubling", "swing",
    )
} | {
    ("reduce_scatter", name) for name in (
        "bine-blocks", "bine-natural", "bine-permute", "bine-send",
        "bine-two-transmissions", "recursive-halving", "swing",
    )
} | {
    ("allreduce", name) for name in (
        "bine-rsag", "bine-rsag-segmented", "bine-small", "rabenseifner",
        "recursive-doubling", "ring", "swing",
    )
} | {
    ("allgather", "bruck"), ("allgather", "ring"), ("allgather", "sparbit"),
    ("reduce_scatter", "ring"),
    ("bcast", "scatter-allgather"), ("bcast", "bine-scatter-allgather"),
    ("reduce", "rabenseifner"), ("reduce", "bine-rsag"),
} | {
    ("reduce", "binomial-dd"), ("reduce", "binomial-dh"), ("reduce", "bine"),
    ("gather", "binomial"), ("gather", "bine"), ("gather", "linear"),
    ("scatter", "binomial"), ("scatter", "bine"), ("scatter", "linear"),
}

SPECS = plan_backed_specs()


def _cells(ps):
    """``(spec, p)`` params over ``ps``; cells no sweep renders are skipped."""
    return [
        pytest.param(
            spec, p, id=f"{spec.collective}-{spec.name}-{p}",
            marks=[pytest.mark.skip(reason=why)] if (why := skip_reason(spec, p)) else [],
        )
        for spec in SPECS for p in ps
    ]


def test_plan_backed_entries():
    assert {(s.collective, s.name) for s in SPECS} == PLAN_BACKED


@pytest.mark.parametrize("spec, p", _cells((3, 4, 8, 16, 17, 24, 32, 64, 100, 256, 1024)))
def test_rendered_table_equals_lowered_schedule(spec, p):
    """Equal columns, or a memoised ``None`` on both paths for a
    power-of-two entry at non-power-of-two p."""
    clear_memo_caches()
    table = transfer_table_for(spec, p)
    cached = compiled._TABLE_CACHE[(spec, p)]
    oracle = oracle_table(spec, p)
    clear_memo_caches()
    assert cached is table
    assert (table is None) == (spec.pow2_only and p & (p - 1) != 0)
    assert table_mismatches(table, oracle) == []


@pytest.mark.parametrize("flow", (
    lambda bf: reduce_scatter_flow(bf, bf.p, "sum", Strategy.SEND),
    lambda bf: reduce_scatter_flow(bf, bf.p, "sum", Strategy.PERMUTE),
    lambda bf: allgather_flow(bf, bf.p, Strategy.SEND),
))
@pytest.mark.parametrize("make_bf", (recursive_halving_butterfly, bine_butterfly_halving))
def test_pi_window_check_raises_schedule_error_on_both_paths(flow, make_bf):
    """Sets that are no π window fail the same check in either rendering."""
    plan = flow(make_bf(8))
    with pytest.raises(ScheduleError, match="π window not contiguous") as built:
        render_schedule(plan)
    with pytest.raises(ScheduleError, match="π window not contiguous") as rendered:
        lower_steps(flow_stream(plan))
    assert str(rendered.value) == str(built.value)


@pytest.mark.parametrize("collective, rows", [
    ("reduce_scatter", 1), ("allgather", 1), ("allreduce", 2),
])
def test_ring_tables_repeat_one_row_per_pass(collective, rows):
    p = 4096
    table = transfer_table_for(spec_for(collective, "ring"), p)
    assert table.num_steps == rows
    assert np.array_equal(np.diff(table.step_off), [p] * rows)
    assert np.array_equal(table.step_reps, [p - 1] * rows)
    assert table.step_reps.dtype == np.int64


@pytest.mark.parametrize("n", [0, 5, 24, 35, 64])
@pytest.mark.parametrize("make_bf", (recursive_halving_butterfly, bine_butterfly_halving))
def test_flow_tables_lower_at_every_size(make_bf, n):
    """Away from ``n = p`` (zero-size blocks below it, uneven ones past
    it) a flow's counts come from its segments, still equal to the build."""
    bf = make_bf(8)
    for flow in (reduce_scatter_flow(bf, n), allgather_flow(bf, n, Strategy.BLOCKS),
                 allreduce_rsag_flow(bf, n)):
        table = lower_steps(flow_stream(flow))
        assert table_mismatches(table, lower_schedule(render_schedule(flow))) == []


@pytest.mark.parametrize("dims", [(2, 4), (2, 2, 2), (4, 4), (4, 4, 4)],
                         ids=lambda d: "x".join(map(str, d)))
def test_torus_tables_equal_lowered_builds(dims):
    """Every torus catalog entry's sweep table (lowered from its steps,
    trinaryx's from its build) equals its build at the canonical size
    lowered: ``n = 2·D·p`` for ``bine-multiport``, ``n = p`` otherwise."""
    shape = TorusShape(dims)
    p = shape.num_ranks
    clear_memo_caches()
    for (collective, name), spec in torus_algorithms(shape).items():
        n = 2 * len(dims) * p if name == "bine-multiport" else p
        oracle = lower_schedule(spec.build(p, n))
        assert table_mismatches(transfer_table_for(spec, p), oracle) == [], name
    clear_memo_caches()
