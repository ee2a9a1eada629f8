"""Verifier plans lowered from step arrays equal compiled built schedules, run for run.

Entries with a ``steps`` hook (every registry entry but the three bcast
trees and alltoall) give ``repro verify`` its
:class:`~repro.runtime.compiled.CompiledPlan` straight from their step
arrays (``plan_from_arrays``), through the back end ``compile_plan``
also feeds; ``spec.build`` writes the same steps out as objects
(``schedule_from_arrays``).  The oracle is the object path: build the
schedule, compile it.  Every such entry is compared at every p of
:data:`P_GRID` with n ∈ {p, 4p, 4p + 3, p − 3} (``p − 3`` leaves
zero-size blocks); shapes an entry rejects must raise the same error
both ways.  ``tests/table_oracle.py --plans P`` runs the same comparison
at larger p.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.analysis.verifygrid import verify_cell
from repro.collectives.butterfly_collectives import (
    Flow,
    FlowStep,
    allgather_flow,
    flow_buffers,
    flow_steps,
    reduce_scatter_flow,
    render_schedule,
)
from repro.collectives.common import Strategy
from repro.collectives.registry import AlgorithmSpec, spec_for
from repro.collectives.verify import compiled_plan_for
from repro.core.butterfly import (
    Butterfly,
    bine_butterfly_halving,
    recursive_doubling_butterfly,
)
from repro.runtime.compiled import compile_plan, plan_from_arrays
from repro.runtime.errors import ScheduleError
from repro.runtime.memo import clear_memo_caches
from repro.runtime.schedule import (
    ArrayPhase,
    ArrayStep,
    BlockRotation,
    EveryRank,
    schedule_from_arrays,
    schedule_validation,
)
from table_oracle import _outcome, cell_plan_mismatches, plan_mismatches, rendered_specs

P_GRID = (2, 3, 4, 5, 8, 16, 17, 32, 64, 256)

RENDERED = rendered_specs()


def _sizes(p: int) -> list[int]:
    return sorted({n for n in (p, 4 * p, 4 * p + 3, p - 3) if n >= 0} | {-1})


CASES = [(spec, p) for spec in RENDERED for p in P_GRID]


def test_rendered_entries():
    names = {(s.collective, s.name) for s in RENDERED}
    # every entry but the three bcast trees and the three alltoalls
    assert len(names) == 38
    assert {("allreduce", "ring"), ("allgather", "bruck"),
            ("allgather", "sparbit"), ("allreduce", "swing"),
            ("reduce", "bine"), ("gather", "binomial"), ("scatter", "bine"),
            ("gather", "linear"), ("scatter", "linear"),
            ("bcast", "scatter-allgather"), ("reduce", "bine-rsag")} <= names
    assert not {("bcast", "bine"), ("bcast", "binomial-dd"),
                ("bcast", "binomial-dh"), ("alltoall", "bine")} & names


@pytest.mark.parametrize(
    "spec, p", CASES, ids=[f"{s.collective}/{s.name}-p{p}" for s, p in CASES],
)
def test_plan_equals_compiled_build(spec, p):
    for n in _sizes(p):
        assert cell_plan_mismatches(spec, p, n) == [], n


@pytest.mark.parametrize("spec", RENDERED, ids=[f"{s.collective}/{s.name}" for s in RENDERED])
def test_plan_with_other_root_and_op(spec):
    # renderers ignore the root, as the builders do; the op reaches the plan
    assert cell_plan_mismatches(spec, 8, 32, root=7, op="max") == []


def _plan(flow):
    """``flow``'s ``(schedule stub, plan)``, lowered from its steps."""
    return plan_from_arrays(flow.bf.p, flow.meta, flow_steps(flow), flow_buffers(flow))


def _error(render, flow):
    with pytest.raises(Exception) as info:
        render(flow)
    return type(info.value), str(info.value)


RD8 = recursive_doubling_butterfly(8)

#: a butterfly labelled bine-halving whose sets are not circular ranges
FAKE_HALVING = Butterfly(8, "bine-halving", RD8.partners)


@pytest.mark.parametrize("flow", [
    reduce_scatter_flow(RD8, 8, strategy=Strategy.PERMUTE),
    allgather_flow(RD8, 16, Strategy.SEND),
    reduce_scatter_flow(bine_butterfly_halving(8), 8, strategy=Strategy.SEND),
    allgather_flow(FAKE_HALVING, 8, Strategy.TWO_TRANSMISSIONS),
    reduce_scatter_flow(FAKE_HALVING, 8, strategy=Strategy.TWO_TRANSMISSIONS),
], ids=["rs-recdoub-permute", "ag-recdoub-send", "rs-halving-send",
        "ag-not-circular", "rs-not-circular"])
def test_errors_equal_built_path(flow):
    err = _error(_plan, flow)
    assert err == _error(render_schedule, flow)
    assert "not contiguous" in err[1] or "not circular-contiguous" in err[1]


def _flow(*steps: FlowStep, p: int = 4, n: int = 8) -> Flow:
    meta = {"collective": "allgather", "algorithm": "hand-made", "p": p, "n": n}
    return Flow(recursive_doubling_butterfly(p), n, Strategy.NATURAL, meta, steps)


def _whole(label: str, src, dst, op=None) -> FlowStep:
    """Every ``src[i]`` sends its whole vector to ``dst[i]``."""
    src, dst = np.array(src), np.array(dst)
    return FlowStep(label, label, src, dst, src, 0, op)


#: ranks 3 and 2 (first written in that order) both take two whole vectors
OVERLAP = _flow(_whole("fine", [0, 1], [1, 0]),
                _whole("clash", [0, 0, 1, 1], [3, 2, 2, 3]))


def test_overlapping_writes_raise_finalize_error():
    err = _error(_plan, OVERLAP)
    assert err == _error(render_schedule, OVERLAP)
    assert err == (
        ScheduleError,
        "overlapping non-reducing writes [0,8) and [0,8) in step 'clash' rank 3 buf vec",
    )


def test_overlapping_reduce_writes_pass():
    flow = _flow(_whole("sum", [0, 0, 1, 1], [3, 2, 2, 3], op="sum"))
    assert plan_mismatches(_plan(flow)[1],
                           compile_plan(render_schedule(flow))) == []


def test_unvalidated_overlap_renders_the_compiled_plan():
    # with validation off both paths accept the clash; the overwrite group
    # keeps the last write per element in both plans
    with schedule_validation(False):
        got = _plan(OVERLAP)[1]
        want = compile_plan(render_schedule(OVERLAP))
    assert plan_mismatches(got, want) == []


@pytest.mark.parametrize("flow", [
    _flow(_whole("far", [0, 1], [1, 4])),
    _flow(_whole("self", [0, 1], [1, 1])),
    # the finalize error of step 0 waits for the π-window error of a later step
    dataclasses.replace(
        reduce_scatter_flow(RD8, 8, strategy=Strategy.PERMUTE),
        steps=(_whole("clash", [0, 1], [2, 2]),)
        + reduce_scatter_flow(RD8, 8, strategy=Strategy.PERMUTE).steps,
    ),
], ids=["rank-out-of-range", "transfer-to-self", "construction-error-first"])
def test_structural_errors_equal_built_path(flow):
    assert _error(_plan, flow) == _error(render_schedule, flow)


def _phase(src, dst, lo, hi, op=None, tag="t") -> ArrayPhase:
    """One segment per item."""
    ones = np.ones(len(src), dtype=np.intp)
    return ArrayPhase(np.array(src), np.array(dst), ones, np.array(lo), np.array(hi),
                      op=op, tag=tag)


@pytest.mark.parametrize("steps", [
    [ArrayStep("far", _phase([0, 1], [1, 0], [0, 2], [2, 6]))],
    # the unknown op of step 0 raises before the bad segment of step 1
    [ArrayStep("a", _phase([0], [1], [0], [2], op="nope")),
     ArrayStep("b", _phase([1], [0], [3], [9]))],
    # a copy run on every rank fails as its rank-0 copy does
    [ArrayStep("copy", None, pre=(EveryRank(_phase([0], [0], [0], [9])),))],
], ids=["segment-beyond-buffer", "op-before-segment", "every-rank-copy"])
def test_array_lowering_errors_equal_compiled_build(steps):
    meta = {"collective": "allgather", "algorithm": "hand-made", "p": 2, "n": 4}
    with pytest.raises(Exception) as got:
        plan_from_arrays(2, meta, steps)
    with pytest.raises(Exception) as want:
        compile_plan(schedule_from_arrays(2, meta, steps))
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


def _rotation(dst, block, edges, reps=2, op=None) -> BlockRotation:
    """Ranks 0, 1, ... send block ``block[i] − k`` to ``dst[i]`` at step ``k``."""
    dst, block, edges = np.array(dst), np.array(block), np.array(edges)
    src, ones = np.arange(dst.size), np.ones(dst.size, dtype=np.intp)
    b = block % (edges.size - 1)
    return BlockRotation(ArrayPhase(src, dst, ones, edges[b], edges[b + 1], op=op,
                                    tag="rot[{k}]"), block, edges, reps, "rot {k}")


@pytest.mark.parametrize("rotation, compact", [
    (_rotation([1, 2, 0], [0, 1, 2], [0, 2, 5, 6]), True),  # a ring pass
    (_rotation([2, 2], [0, 1], [0, 2, 5, 6], 3, op="sum"), True),
    # block 3 is block 0: every step reduces one block twice into rank 2
    (_rotation([2, 2], [0, 3], [0, 2, 5, 6], op="sum"), False),
    (_rotation([2, 2], [1, 1], [0, 2, 5, 6]), False),  # overlapping writes
    (_rotation([1, 0], [0, 1], [0, 2, 5, 8]), False),  # block 2 past the buffer
    (_rotation([1, 1], [0, 1], [0, 2, 5, 6]), True),  # transfer to self
], ids=["ring", "reduce-distinct", "reduce-collide", "overwrite-collide",
        "beyond-buffer", "to-self"])
def test_rotation_plan_equals_compiled_steps(rotation, compact):
    # a rotation whose steps might not lower alike is written out step by
    # step; either way plan and errors are those of the built steps
    meta = {"collective": "allgather", "algorithm": "hand-made", "p": 3, "n": 6}
    for validate in (True, False):
        with schedule_validation(validate):
            got, got_err = _outcome(lambda: plan_from_arrays(3, meta, [rotation])[1])
            want, want_err = _outcome(
                lambda: compile_plan(schedule_from_arrays(3, meta, [rotation])))
        assert got_err == want_err
        if got is not None:
            assert plan_mismatches(got, want) == []
            kinds = {type(ph).__name__ for st in got.steps for ph in st.phases}
            assert ("_Rotation" in kinds) == compact


def test_rendered_cells_build_no_schedule(monkeypatch):
    def refuse(self, *args):
        raise AssertionError(f"built {self.collective}/{self.name}")

    clear_memo_caches()
    monkeypatch.setattr(AlgorithmSpec, "build", refuse)
    for spec in RENDERED:
        stub, plan = compiled_plan_for(spec.collective, spec.name, 16, 64)
        assert stub.steps == [] and plan.num_steps > 0
    with pytest.raises(AssertionError, match="built bcast/bine"):
        compiled_plan_for("bcast", "bine", 16, 64)
    clear_memo_caches()


@pytest.mark.parametrize("collective, name, p, n", [
    ("allreduce", "ring", 17, 51),
    ("allgather", "sparbit", 64, 192),
    ("allgather", "bruck", 17, 17),
    ("allreduce", "bine-rsag", 64, 192),
    ("reduce_scatter", "bine-permute", 16, 48),
    ("allgather", "bine-two-transmissions", 256, 256),
    ("allreduce", "bine-rsag", 17, 51),  # rejected: skipped both ways
])
def test_verify_cell_compiled_equals_both(collective, name, p, n):
    clear_memo_caches()
    compiled = verify_cell(collective, name, p, n, seeds=(0, 1))
    both = verify_cell(collective, name, p, n, seeds=(0, 1), engine="both")
    assert compiled.status in ("ok", "skipped")
    assert dataclasses.replace(compiled, elapsed_s=0.0, engine="both") == (
        dataclasses.replace(both, elapsed_s=0.0)
    )
    assert spec_for(collective, name).steps is not None
