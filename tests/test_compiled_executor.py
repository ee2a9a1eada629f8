"""Bit-identity and semantics tests for the compiled columnar executor.

The acceptance contract of `repro.runtime.compiled`: for **every**
registered algorithm of all eight collectives, at small power-of-two and
non-power-of-two rank counts, and for at least two input seeds, the
compiled plan must leave the buffer matrix bit-identical to what the
reference executor leaves in its `RankBuffers` — plus trace parity, batch
consistency, and the executor-semantics corner cases (sendrecv snapshots,
write ordering, duplicate reductions, error reporting).
"""

from __future__ import annotations

import dataclasses
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.verifygrid import verify_cell, verify_grid
from repro.collectives.registry import ALGORITHMS, COLLECTIVES
from repro.collectives.verify import (
    check_matrix,
    compiled_plan_for,
    init_buffers,
    init_matrix,
    run_and_check,
    run_and_check_compiled,
)
from repro.runtime.buffers import RankBuffers
from repro.runtime.compiled import (
    BufferLayout,
    buffers_used,
    compile_plan,
    matrix_from_buffers,
    matrix_to_buffers,
)
from repro.runtime.errors import BufferMismatchError, ScheduleError
from repro.runtime.executor import execute
from repro.runtime.schedule import (
    LocalCopy,
    Schedule,
    Step,
    Transfer,
    schedule_validation,
)

#: acceptance grid — non-power-of-two included
PS = (4, 8, 16, 17, 32)
SEEDS = (0, 1)


def _grid_cases(uneven: bool = False):
    for (coll, name), spec in sorted(ALGORITHMS.items()):
        if uneven and spec.needs_divisible:
            continue
        for p in PS:
            yield pytest.param(spec, p, id=f"{coll}/{name}-p{p}")


def _assert_bit_identical(spec, p: int, n: int) -> None:
    if spec.pow2_only and p & (p - 1):
        pytest.skip("pow2-only algorithm")
    try:
        schedule = spec.build(p, n)
    except ValueError as exc:
        pytest.skip(f"constraint: {exc}")
    plan = compile_plan(schedule)
    matrices = run_and_check_compiled(schedule, SEEDS, plan)
    for i, seed in enumerate(SEEDS):
        reference = init_buffers(schedule, seed)
        execute(schedule, reference)
        ref_matrix = matrix_from_buffers(reference, plan.layout)
        assert np.array_equal(ref_matrix, matrices[i]), (
            f"{spec.collective}/{spec.name} p={p} n={n} seed={seed}: "
            "compiled buffers differ from reference"
        )


class TestBitIdentityAcrossRegistry:
    @pytest.mark.parametrize("spec,p", _grid_cases())
    def test_compiled_matches_reference(self, spec, p):
        _assert_bit_identical(spec, p, 4 * p)

    @pytest.mark.parametrize("spec,p", _grid_cases(uneven=True))
    def test_compiled_matches_reference_uneven(self, spec, p):
        # n = 4p + 3: uneven blocks, so runs differ in length within a step
        _assert_bit_identical(spec, p, 4 * p + 3)

    def test_every_collective_covered(self):
        # the parametrized grid above spans the full registry by construction;
        # pin that the registry itself still spans all eight collectives
        assert {c for c, _ in ALGORITHMS} == set(COLLECTIVES)


class TestTraceParity:
    @pytest.mark.parametrize(
        "coll,name", [("allreduce", "bine-rsag"), ("allgather", "bine-blocks"),
                      ("bcast", "scatter-allgather"), ("alltoall", "bruck")]
    )
    def test_trace_matches_reference(self, coll, name):
        schedule = ALGORITHMS[(coll, name)].build(16, 64)
        bufs = init_buffers(schedule, 0)
        ref = execute(schedule, bufs)
        plan = compile_plan(schedule)
        got = plan.execute(init_matrix(schedule, plan.layout, 0))
        assert got.steps_run == ref.steps_run
        assert got.transfers_run == ref.transfers_run
        assert got.elems_moved == ref.elems_moved
        assert got.local_elems_moved == ref.local_elems_moved
        assert got.per_step_elems == ref.per_step_elems


class TestBatchConsistency:
    def test_batch_equals_single_runs(self):
        schedule = ALGORITHMS[("allreduce", "bine-rsag")].build(16, 64)
        plan = compile_plan(schedule)
        seeds = (0, 1, 2)
        batch = np.stack([init_matrix(schedule, plan.layout, s) for s in seeds])
        plan.execute_batch(batch)
        for i, seed in enumerate(seeds):
            single = init_matrix(schedule, plan.layout, seed)
            plan.execute(single)
            assert np.array_equal(batch[i], single)
            check_matrix(schedule, batch[i], plan.layout, seed)

    def test_batch_shape_rejected(self):
        schedule = ALGORITHMS[("bcast", "bine")].build(8, 8)
        plan = compile_plan(schedule)
        with pytest.raises(ValueError):
            plan.execute_batch(plan.new_matrix())  # 2-D, not a batch
        with pytest.raises(ValueError):
            plan.execute(np.zeros((3, 3), dtype=np.int64))


class TestExecutorSemantics:
    """The corner cases of test_runtime.TestExecutorSemantics, compiled."""

    def _run(self, schedule: Schedule, bufs: RankBuffers):
        layout = BufferLayout(
            {name: max(bufs.get(r, name).shape[0] for r in range(bufs.p))
             for name in buffers_used(schedule)}
        )
        plan = compile_plan(schedule, layout)
        matrix = matrix_from_buffers(bufs, layout)
        plan.execute(matrix)
        return matrix_to_buffers(matrix, layout, bufs)

    def make_buffers(self, p, n):
        bufs = RankBuffers(p)
        bufs.allocate("vec", n, dtype=np.int64)
        for r in range(p):
            bufs.set(r, "vec", np.full(n, r, dtype=np.int64))
        return bufs

    def test_concurrent_swap_uses_pre_state(self):
        bufs = self.make_buffers(2, 4)
        sched = Schedule(2, meta={})
        sched.add(Step(transfers=(
            Transfer(0, 1, "vec", "vec", ((0, 4),), ((0, 4),)),
            Transfer(1, 0, "vec", "vec", ((0, 4),), ((0, 4),)),
        )))
        self._run(sched, bufs)
        assert (bufs.get(0, "vec") == 1).all()
        assert (bufs.get(1, "vec") == 0).all()

    def test_overlapping_reduces_accumulate(self):
        bufs = self.make_buffers(3, 4)
        sched = Schedule(3, meta={})
        sched.add(Step(transfers=(
            Transfer(0, 2, "vec", "vec", ((0, 4),), ((0, 4),), op="sum"),
            Transfer(1, 2, "vec", "vec", ((0, 4),), ((0, 4),), op="sum"),
        )))
        self._run(sched, bufs)
        assert (bufs.get(2, "vec") == 3).all()  # 2 + 0 + 1

    def test_overwrite_then_reduce_sees_new_value(self):
        # later reduce must combine with the earlier transfer's write
        bufs = self.make_buffers(3, 2)
        sched = Schedule(3, meta={})
        sched.add(Step(transfers=(
            Transfer(1, 0, "vec", "vec", ((0, 2),), ((0, 2),)),
            Transfer(2, 0, "vec", "vec", ((0, 2),), ((0, 2),), op="sum"),
        )))
        ref = self.make_buffers(3, 2)
        execute(sched, ref)
        self._run(sched, bufs)
        assert bufs.get(0, "vec").tolist() == ref.get(0, "vec").tolist() == [3, 3]

    def test_multi_segment_pack_unpack(self):
        bufs = RankBuffers(2)
        bufs.allocate("vec", 6, dtype=np.int64)
        bufs.set(0, "vec", np.arange(6, dtype=np.int64))
        sched = Schedule(2, meta={})
        sched.add(Step(transfers=(
            Transfer(0, 1, "vec", "vec", ((0, 2), (4, 6)), ((2, 6),)),
        )))
        self._run(sched, bufs)
        assert bufs.get(1, "vec").tolist() == [0, 0, 0, 1, 4, 5]

    def _matches_reference(self, sched: Schedule, p: int, n: int) -> RankBuffers:
        bufs = RankBuffers(p)
        bufs.allocate("vec", n, dtype=np.int64)
        for r in range(p):
            bufs.set(r, "vec", np.arange(n, dtype=np.int64) + 100 * r)
        ref = RankBuffers(p)
        ref.allocate("vec", n, dtype=np.int64)
        for r in range(p):
            ref.set(r, "vec", bufs.get(r, "vec").copy())
        with schedule_validation(False):  # it rejects overlapping overwrites
            execute(sched, ref)
        self._run(sched, bufs)
        for r in range(p):
            assert bufs.get(r, "vec").tolist() == ref.get(r, "vec").tolist(), r
        return bufs

    def test_sides_split_differently(self):
        sched = Schedule(2, meta={})
        sched.add(Step(transfers=(
            Transfer(0, 1, "vec", "vec", ((0, 2), (5, 7)), ((1, 5),)),
        )))
        bufs = self._matches_reference(sched, 2, 8)
        assert bufs.get(1, "vec").tolist() == [100, 0, 1, 5, 6, 105, 106, 107]

    def test_zero_length_segments(self):
        sched = Schedule(3, meta={})
        sched.add(Step(transfers=(
            Transfer(0, 1, "vec", "vec", ((0, 0), (1, 3), (3, 3)), ((2, 2), (4, 6))),
            Transfer(1, 2, "vec", "vec", ((5, 5),), ((0, 0),), op="sum"),
            Transfer(2, 0, "vec", "vec", ((0, 2),), ((0, 1), (1, 1), (6, 7))),
        )))
        bufs = self._matches_reference(sched, 3, 8)
        assert bufs.get(1, "vec").tolist()[4:6] == [1, 2]

    def test_overwrite_duplicates_mid_run_keep_last(self):
        # transfers 2 and 3 overwrite the middle and the tail of transfer 1's
        # destination run: the later write must win position by position
        sched = Schedule(4, meta={})
        sched.add(Step(transfers=(
            Transfer(1, 0, "vec", "vec", ((0, 6),), ((0, 6),)),
            Transfer(2, 0, "vec", "vec", ((0, 2),), ((2, 4),)),
            Transfer(3, 0, "vec", "vec", ((0, 3),), ((5, 8),)),
        )))
        bufs = self._matches_reference(sched, 4, 8)
        assert bufs.get(0, "vec").tolist() == [100, 101, 200, 201, 104, 300, 301, 302]

    def test_first_failing_transfer_is_reported(self):
        bad_segment = Transfer(3, 0, "vec", "vec", ((0, 9),), ((0, 9),), tag="t3")
        unbalanced = Transfer(1, 2, "vec", "vec", ((0, 2),), ((0, 2),), tag="t1")
        # construction rejects unbalanced transfers; unbalance one afterwards
        object.__setattr__(unbalanced, "dst_segments", ((0, 3),))
        sched = Schedule(4, meta={})
        sched.add(Step(transfers=(
            Transfer(0, 1, "vec", "vec", ((0, 1),), ((0, 1),), tag="t0"),
            unbalanced,
            Transfer(2, 3, "vec", "vec", ((0, 1),), ((0, 1),), tag="t2"),
            bad_segment,
        ), label="mixed"))
        with pytest.raises(BufferMismatchError) as info:
            compile_plan(sched, BufferLayout({"vec": 8}))
        assert str(info.value) == "step 0 [mixed] ('t1'): 2 elems sent, 3 expected"

    def test_first_failing_segment_is_reported(self):
        sched = Schedule(4, meta={})
        sched.add(Step(transfers=(
            Transfer(0, 1, "vec", "vec", ((0, 1),), ((0, 1),), tag="t0"),
            Transfer(1, 2, "vec", "vec", ((2, 4), (6, 10)), ((0, 6),), tag="t1"),
            Transfer(2, 3, "vec", "vec", ((0, 1),), ((0, 1),), tag="t2"),
            Transfer(3, 9, "vec", "vec", ((0, 1),), ((0, 1),), tag="t3"),
        )))
        with pytest.raises(BufferMismatchError) as info:
            compile_plan(sched, BufferLayout({"vec": 8}))
        assert str(info.value) == (
            "segment (6,10) exceeds buffer of 8 elems in step 0 ('t1')"
        )

    def test_first_failing_step_is_reported(self):
        ok = Transfer(0, 1, "vec", "vec", ((0, 1),), ((0, 1),))
        beyond = Transfer(1, 0, "vec", "vec", ((0, 9),), ((0, 9),), tag="far")
        sched = Schedule(2, meta={})
        sched.add(Step(transfers=(ok,), post=(
            LocalCopy(1, "vec", "vec", ((0, 1),), ((1, 2),)),
            LocalCopy(5, "vec", "vec", ((0, 1),), ((1, 2),), tag="c"),
        )))
        sched.add(Step(transfers=(beyond,)))
        with pytest.raises(ScheduleError, match=r"^rank 5 out of range in step 0 \('c'\)$"):
            compile_plan(sched, BufferLayout({"vec": 8}))
        sched = Schedule(2, meta={})
        sched.add(Step(transfers=(ok,)))
        sched.add(Step(transfers=(beyond,), label="late"))
        with pytest.raises(BufferMismatchError, match=r"in step 1 \[late\] \('far'\)$"):
            compile_plan(sched, BufferLayout({"vec": 8}))

    def test_local_copies_sequential_on_same_rank(self):
        bufs = RankBuffers(1)
        bufs.allocate("vec", 4, dtype=np.int64)
        bufs.allocate("tmp", 4, dtype=np.int64)
        bufs.set(0, "vec", np.array([1, 2, 3, 4], dtype=np.int64))
        sched = Schedule(1, meta={})
        # second pre copy reads what the first one wrote — must not be batched
        sched.add(Step(pre=(
            LocalCopy(0, "vec", "tmp", ((0, 4),), ((0, 4),)),
            LocalCopy(0, "tmp", "vec", ((0, 2),), ((2, 4),)),
        )))
        self._run(sched, bufs)
        assert bufs.get(0, "vec").tolist() == [1, 2, 1, 2]
        assert bufs.get(0, "tmp").tolist() == [1, 2, 3, 4]

    def test_segment_beyond_buffer_rejected_at_compile(self):
        sched = Schedule(2, meta={})
        sched.add(Step(transfers=(
            Transfer(0, 1, "vec", "vec", ((0, 8),), ((0, 8),)),
        )))
        with pytest.raises(BufferMismatchError):
            compile_plan(sched, BufferLayout({"vec": 4}))

    def test_rank_out_of_range_rejected_at_compile(self):
        sched = Schedule(2, meta={})
        sched.add(Step(transfers=(
            Transfer(0, 5, "vec", "vec", ((0, 1),), ((0, 1),)),
        )))
        with pytest.raises(ScheduleError):
            compile_plan(sched, BufferLayout({"vec": 4}))

    def test_unknown_buffer_rejected_at_compile(self):
        sched = Schedule(2, meta={})
        sched.add(Step(transfers=(
            Transfer(0, 1, "vec", "other", ((0, 1),), ((0, 1),)),
        )))
        with pytest.raises(BufferMismatchError):
            compile_plan(sched, BufferLayout({"vec": 4}))


def _index_entries(obj) -> int:
    """Index array entries reachable from a plan's step structure."""
    if isinstance(obj, np.ndarray):
        return obj.size
    if isinstance(obj, (tuple, list)):
        return sum(map(_index_entries, obj))
    if dataclasses.is_dataclass(obj):
        return sum(_index_entries(getattr(obj, f.name))
                   for f in dataclasses.fields(obj))
    return 0


class TestPlanCompactness:
    def test_whole_vector_exchanges_store_block_runs(self):
        schedule = ALGORITHMS[("allreduce", "recursive-doubling")].build(256, 256)
        plan = compile_plan(schedule)
        trace = plan.execute(plan.new_matrix())
        moved = trace.elems_moved + trace.local_elems_moved
        assert moved == 8 * 256 * 256
        assert _index_entries(plan.steps) * 64 <= moved

    def test_ring_plan_stores_one_rotation_per_pass(self):
        # one phase per step would store about 2 M run entries here
        p = 1024
        _, plan = compiled_plan_for("allreduce", "ring", p, p)
        assert (plan.num_steps, len(plan.steps)) == (2 * (p - 1), 2)
        assert _index_entries(plan.steps) <= 32 * p

    def test_pi_copy_stores_one_ranks_columns(self):
        # the whole-vector π copy, one item per rank, lowers to p² runs
        p = 256
        _, plan = compiled_plan_for("allgather", "bine-permute", p, p)
        copies = [ph for st in plan.steps for ph in st.phases
                  if type(ph).__name__ == "_Permute"]
        assert len(copies) == 1
        assert _index_entries(copies[0]) <= 8 * p
        (whole,) = [ph for st in plan.expanded().steps for ph in st.phases
                    if ph.src.size >= p * p]
        assert _index_entries(whole) >= 2 * p * p


class TestCompactPhases:
    """Rendered plans with rotation and permutation phases execute as the
    reference executor runs the built schedule: same buffers, same trace."""

    @pytest.mark.parametrize("coll,name,p,n", [
        ("allreduce", "ring", 17, 4 * 17 + 3),
        ("allreduce", "ring", 16, 13),  # zero-size blocks
        ("reduce_scatter", "ring", 8, 0),  # nothing moves
        ("allgather", "ring", 16, 64),
        ("allgather", "bine-permute", 16, 64),
        ("reduce_scatter", "bine-permute", 32, 96),
    ])
    def test_trace_and_buffers_match_reference(self, coll, name, p, n):
        stub, plan = compiled_plan_for(coll, name, p, n)
        schedule = ALGORITHMS[(coll, name)].build(p, n)
        matrices = run_and_check_compiled(stub, SEEDS, plan)
        for i, seed in enumerate(SEEDS):
            bufs = init_buffers(schedule, seed)
            ref = execute(schedule, bufs)
            got = plan.execute(init_matrix(stub, plan.layout, seed))
            assert got == ref
            assert np.array_equal(matrix_from_buffers(bufs, plan.layout), matrices[i])


class TestPlanPerCall:
    def test_each_call_makes_an_equal_plan(self):
        from repro.runtime.memo import memo_cache_sizes

        from table_oracle import plan_mismatches

        for cell in (("bcast", "bine", 8, 32), ("allreduce", "ring", 8, 35)):
            s1, p1 = compiled_plan_for(*cell)
            s2, p2 = compiled_plan_for(*cell)
            assert p1 is not p2 and s1 is not s2
            assert (s1.p, s1.meta) == (s2.p, s2.meta)
            assert plan_mismatches(p1, p2.expanded()) == []
        assert not any("plan" in name.lower() for name in memo_cache_sizes())

    def test_stub_schedule_is_light_but_sufficient(self):
        stub, plan = compiled_plan_for("alltoall", "bruck", 8, 32)
        assert stub.num_steps == 0  # steps dropped
        assert stub.meta["collective"] == "alltoall"
        # the stub still drives init + check end to end
        run_and_check_compiled(stub, (0, 1), plan)


class TestVerifyGrid:
    def test_cell_statuses(self):
        assert verify_cell("bcast", "bine", 8, 32).status == "ok"
        assert verify_cell("bcast", "bine", 12, 48).status == "skipped"
        r = verify_cell("allgather", "sparbit", 1024, 1024)
        assert r.status == "skipped" and "capped" in r.detail

    def test_engines_agree_on_statuses(self):
        grid = dict(node_counts=(8, 17), seeds=(0,), elems_per_rank=2)
        compiled = verify_grid(("reduce_scatter",), engine="compiled", **grid)
        reference = verify_grid(("reduce_scatter",), engine="reference", **grid)
        both = verify_grid(("reduce_scatter",), engine="both", **grid)
        strip = lambda rs: [(r.collective, r.algorithm, r.p, r.status) for r in rs]
        assert strip(compiled) == strip(reference) == strip(both)
        assert any(r.status == "ok" for r in compiled)

    def test_broken_schedule_reported_failed(self, monkeypatch):
        from repro.collectives.registry import AlgorithmSpec

        def broken(p, n, root=0, op="sum"):
            # claims to broadcast but moves nothing
            return Schedule(p, meta={"collective": "bcast", "n": n, "root": 0})

        spec = AlgorithmSpec("bcast", "broken", "bine", broken, pow2_only=False)
        monkeypatch.setitem(ALGORITHMS, ("bcast", "broken"), spec)
        for engine in ("compiled", "reference", "both"):
            r = verify_cell("bcast", "broken", 4, 8, engine=engine)
            assert r.status == "failed", engine
            assert "wrong" in r.detail

    def test_record_roundtrip_and_workers(self):
        from repro.analysis.verifygrid import VerifyRecord

        serial = verify_grid(("scatter",), (4, 8), seeds=(0,))
        parallel = verify_grid(("scatter",), (4, 8), seeds=(0,), workers=2)
        strip = lambda rs: [
            {**r.to_dict(), "elapsed_s": 0.0} for r in rs
        ]
        assert strip(serial) == strip(parallel)
        r = serial[0]
        assert VerifyRecord.from_dict(r.to_dict()) == r

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads /proc; PR_SET_PDEATHSIG is Linux-only")
    def test_workers_die_with_sigkilled_parent(self):
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "verify",
             "--collective", "allreduce", "--collective", "allgather",
             "--nodes", "64,256,1024", "--workers", "2"],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        workers: list[int] = []
        try:
            deadline = time.monotonic() + 60
            while len(workers) < 2 and time.monotonic() < deadline:
                workers = _live_children(proc.pid)
                time.sleep(0.1)
            assert len(workers) == 2, "verify pool never started"
            proc.kill()
            proc.wait()
            deadline = time.monotonic() + 10
            while any(map(_alive, workers)) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not any(map(_alive, workers)), "orphaned verify workers"
        finally:
            proc.kill()
            proc.wait()
            for pid in filter(_alive, workers):
                os.kill(pid, signal.SIGKILL)


def _proc_stat(pid) -> list[str] | None:
    """``/proc/<pid>/stat`` fields after the command name, or ``None``."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return stat.rsplit(")", 1)[1].split()


def _alive(pid: int) -> bool:
    fields = _proc_stat(pid)
    return fields is not None and fields[0] != "Z"  # zombies are dead


def _live_children(parent: int) -> list[int]:
    kids = []
    for entry in Path("/proc").iterdir():
        fields = _proc_stat(entry.name) if entry.name.isdigit() else None
        if fields is not None and fields[0] != "Z" and int(fields[1]) == parent:
            kids.append(int(entry.name))
    return kids


class TestOracleHelpers:
    def test_run_and_check_matches_legacy_path(self):
        # init_buffers (matrix-backed) must feed the reference pipeline as before
        schedule = ALGORITHMS[("allgather", "bine-two-transmissions")].build(16, 64)
        run_and_check(schedule, seed=3)

    def test_matrix_roundtrip(self):
        schedule = ALGORITHMS[("alltoall", "bine")].build(8, 16)
        layout = BufferLayout.for_schedule(schedule)
        bufs = init_buffers(schedule, 5)
        matrix = matrix_from_buffers(bufs, layout)
        assert np.array_equal(matrix, init_matrix(schedule, layout, 5))
        restored = matrix_to_buffers(matrix, layout, init_buffers(schedule, 0))
        for r in range(8):
            for name in layout.names:
                assert np.array_equal(restored.get(r, name), bufs.get(r, name))
