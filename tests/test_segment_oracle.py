"""Butterfly schedules equal the per-rank segment oracle, transfer for transfer.

``flow_steps`` computes each step's wire segments for every owner in one
NumPy pass; ``tests/segment_oracle.py`` keeps the per-owner path it
replaced.  Every flow-backed registry entry (the butterflies and the
composed bcast/reduce) is built both ways at every p of :data:`P_GRID`,
with n ∈ {p, 4p, 4p + 3, p − 3}: ``p − 3`` leaves zero-size blocks, which
natural layouts merge across.  Shapes an entry rejects must raise the same
error both ways.  ``tests/table_oracle.py --segments P`` runs the same
comparison at larger p.
"""

from __future__ import annotations

import pytest

from repro.collectives.butterfly_collectives import (
    allgather_flow,
    allreduce_rsag_flow,
    flow_stream,
    reduce_scatter_flow,
    render_schedule,
)
from repro.collectives.common import Strategy
from repro.collectives.registry import spec_for
from repro.core.butterfly import (
    Butterfly,
    bine_butterfly_halving,
    recursive_doubling_butterfly,
)
from repro.core.torus_opt import TorusShape, torus_bine_butterfly
from repro.model.compiled import lower_steps
from repro.runtime.memo import clear_memo_caches, memo_cache_sizes
from repro.runtime.schedule import schedule_validation
from segment_oracle import flow_backed_specs, oracle_render, schedule_mismatches

P_GRID = (2, 4, 8, 16, 32, 64, 256)

FLOW_SPECS = flow_backed_specs()


def _sizes(p: int) -> list[int]:
    return sorted({n for n in (p, 4 * p, 4 * p + 3, p - 3) if n >= 1})


CASES = [(spec, p, n) for spec in FLOW_SPECS for p in P_GRID for n in _sizes(p)]


def test_flow_backed_entries():
    names = {(s.collective, s.name) for s in FLOW_SPECS}
    assert len(names) == 24
    assert {("bcast", "scatter-allgather"), ("reduce", "bine-rsag")} <= names


@pytest.mark.parametrize(
    "spec, p, n", CASES,
    ids=[f"{s.collective}/{s.name}-p{p}-n{n}" for s, p, n in CASES],
)
def test_schedule_equals_oracle(spec, p, n):
    roots = (0, p - 1) if spec.collective in ("bcast", "reduce") else (0,)
    for root in roots:
        assert schedule_mismatches(spec, p, n, root) == [], root


def _error(render, flow):
    with pytest.raises(Exception) as info:
        render(flow)
    return type(info.value), str(info.value)


def _table(flow):
    """``flow``'s sweep table, lowered from its steps' counts."""
    return lower_steps(flow_stream(flow))


RD8 = recursive_doubling_butterfly(8)

#: a butterfly labelled bine-halving whose sets are not circular ranges
FAKE_HALVING = Butterfly(8, "bine-halving", RD8.partners)


@pytest.mark.parametrize("flow", [
    reduce_scatter_flow(RD8, 8, strategy=Strategy.PERMUTE),
    allgather_flow(RD8, 16, Strategy.SEND),
    reduce_scatter_flow(bine_butterfly_halving(8), 8, strategy=Strategy.SEND),
    allgather_flow(FAKE_HALVING, 8, Strategy.TWO_TRANSMISSIONS),
], ids=["rs-recdoub-permute", "ag-recdoub-send", "rs-halving-send", "ag-not-circular"])
def test_errors_equal_oracle(flow):
    err = _error(render_schedule, flow)
    assert err == _error(oracle_render, flow)
    assert "not contiguous" in err[1] or "not circular-contiguous" in err[1]
    assert _error(_table, flow) == err


def test_circular_error_names_deepest_failing_step():
    # both renderers check the merged ranges deepest step first and name
    # that step's lowest failing rank; the per-rank recursion names the
    # first failure of its depth-first walk from the first owner (rank 1)
    flow = reduce_scatter_flow(FAKE_HALVING, 8, strategy=Strategy.TWO_TRANSMISSIONS)
    err = _error(render_schedule, flow)
    assert err == (ValueError, "bine-halving: responsibility sets not "
                               "circular-contiguous at rank 0 step 2")
    assert _error(_table, flow) == err


@pytest.mark.parametrize("dims", [(2, 2), (4, 2), (2, 4, 2)])
@pytest.mark.parametrize("strategy", [Strategy.NATURAL, Strategy.BLOCKS])
def test_kind_without_closed_form_equals_oracle(dims, strategy):
    """Torus butterflies have no closed form: their sets come from the
    generic recursion, one rank at a time."""
    bf = torus_bine_butterfly(TorusShape(dims))
    p = bf.p
    for n in (p, 4 * p + 3, p - 3):
        for flow in (
            reduce_scatter_flow(bf, n, strategy=strategy),
            allgather_flow(bf, n, strategy),
            allreduce_rsag_flow(bf, n, strategy=strategy),
        ):
            got, want = render_schedule(flow), oracle_render(flow)
            assert [s.transfers for s in got.steps] == [s.transfers for s in want.steps]


@pytest.mark.parametrize("collective, name", [
    ("allreduce", "swing"), ("allgather", "bine-natural"),
])
def test_built_schedule_holds_one_tuple_per_segment_list(collective, name):
    """Steps walking the same sets, within one half or across the
    reduce-scatter and allgather halves, share their segment tuples: the
    schedule holds one object per distinct segment list."""
    sched = spec_for(collective, name).build(64, 64)
    segs = [segs for step in sched.steps for t in step.transfers
            for segs in (t.src_segments, t.dst_segments)]
    assert len({id(s) for s in segs}) == len(set(segs)) < len(segs) // 2


def test_butterfly_transfers_hold_one_tuple_for_both_ends():
    for spec in FLOW_SPECS:
        try:
            sched = spec.build(16, 16)
        except ValueError:
            continue
        for step in sched.steps:
            assert all(t.src_segments is t.dst_segments for t in step.transfers)


def test_building_flow_entries_grows_no_memo():
    """Rendering keeps no memo, and labels are closed forms: a cold build
    of every flow-backed entry at p = 256 grows no memo."""
    clear_memo_caches()
    before = memo_cache_sizes()
    with schedule_validation(False):
        for spec in FLOW_SPECS:
            try:
                spec.build(256, 256)
            except ValueError:
                pass
    after = memo_cache_sizes()
    assert after == before
