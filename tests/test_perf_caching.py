"""Correctness of the sweep-pipeline caches (labels, routes, validation, disk).

The fast pipeline must be a pure optimization: cached label tables equal
the recomputed definitions, shared route tables produce the same profiles
as per-call routing, skipping validation never changes a schedule, and the
on-disk profile cache round-trips profiles and evaluated times exactly.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.analysis.sweep import ProfileCache, clear_memo_caches, sweep_system
from repro.collectives.common import Strategy, global_pi, global_pi_inv
from repro.collectives.butterfly_collectives import (
    allgather_butterfly,
    reduce_scatter_butterfly,
)
from repro.collectives.registry import ALGORITHMS
from repro.core.bine_tree import nu_inverse, nu_label, nu_labels
from repro.core.butterfly import bine_butterfly_doubling
from repro.core.negabinary import (
    bit_reverse,
    max_positive,
    rank_to_nb,
    rank_to_nb_table,
    to_negabinary,
)
from repro.model.compiled import CompiledRouteTable, lower_schedule, profile_table
from repro.runtime.schedule import (
    Schedule,
    Step,
    Transfer,
    schedule_validation,
    validation_enabled,
)
from repro.runtime.errors import ScheduleError
from repro.systems import lumi
from repro.topology.mapping import block_mapping
from scalar_oracle import evaluate_time

POW2 = [2, 4, 8, 16, 32, 64, 128, 256]


def _reference_rank_to_nb(rank: int, p: int) -> int:
    """rank2nb from first principles (paper Sec. 2.3.1), bypassing caches."""
    s = p.bit_length() - 1
    m = max_positive(s)
    return to_negabinary(rank if rank <= m else rank - p)


def _reference_nu(rank: int, p: int) -> int:
    if rank == 0:
        h = 0
    elif rank % 2 == 0:
        h = _reference_rank_to_nb(p - rank, p)
    else:
        h = _reference_rank_to_nb(rank, p)
    return h ^ (h >> 1)


class TestLabelTables:
    @pytest.mark.parametrize("p", POW2)
    def test_rank_to_nb_table_matches_definition(self, p):
        table = rank_to_nb_table(p)
        assert len(table) == p
        for r in range(p):
            assert table[r] == _reference_rank_to_nb(r, p)
            assert rank_to_nb(r, p) == table[r]

    @pytest.mark.parametrize("p", POW2)
    def test_nu_tables_match_definition(self, p):
        labels = nu_labels(p)
        assert labels == [_reference_nu(r, p) for r in range(p)]
        for r in range(p):
            assert nu_label(r, p) == labels[r]
        inv = nu_inverse(p)
        assert [inv[v] for v in labels] == list(range(p))

    @pytest.mark.parametrize("p", POW2)
    def test_pi_tables_match_definition(self, p):
        s = p.bit_length() - 1
        pi = global_pi(p)
        assert pi == [bit_reverse(_reference_nu(b, p), s) for b in range(p)]
        inv = global_pi_inv(p)
        assert [inv[pos] for pos in pi] == list(range(p))

    def test_tables_survive_cache_clear(self):
        before = nu_labels(64)
        clear_memo_caches()
        assert nu_labels(64) == before


class TestSharedRouteTable:
    def test_shared_routes_equal_private_routes(self):
        topo = lumi().build_topology()
        mapping = block_mapping(32)
        shared = CompiledRouteTable(topo)
        for flavor in ("bine-send", "bine-natural"):
            for builder in (
                lambda bf, n: allgather_butterfly(bf, n, Strategy.NATURAL),
                lambda bf, n: reduce_scatter_butterfly(bf, n, "sum", Strategy.NATURAL),
            ):
                table = lower_schedule(builder(bine_butterfly_doubling(32), 32))
                private = profile_table(table, topo, mapping)
                reused = profile_table(table, topo, mapping, routes=shared)
                assert private == reused

    def test_route_table_rejects_foreign_topology(self):
        topo_a = lumi().build_topology()
        topo_b = lumi().build_topology()
        table = lower_schedule(allgather_butterfly(bine_butterfly_doubling(8), 8))
        with pytest.raises(ValueError, match="different topology"):
            profile_table(
                table, topo_a, block_mapping(8), routes=CompiledRouteTable(topo_b)
            )


class TestOptionalValidation:
    def _overlapping_schedule(self) -> Schedule:
        # two non-reducing writes into the same destination region
        sched = Schedule(3)
        sched.add(
            Step(
                transfers=(
                    Transfer(0, 2, "vec", "vec", ((0, 4),), ((0, 4),)),
                    Transfer(1, 2, "vec", "vec", ((0, 4),), ((2, 6),)),
                )
            )
        )
        return sched

    def test_finalize_validates_by_default(self):
        assert validation_enabled()
        with pytest.raises(ScheduleError, match="overlapping"):
            self._overlapping_schedule().finalize()

    def test_finalize_skips_when_disabled(self):
        with schedule_validation(False):
            assert not validation_enabled()
            sched = self._overlapping_schedule().finalize()
        assert sched.num_steps == 1

    def test_reducing_overlap_still_allowed(self):
        sched = Schedule(3)
        sched.add(
            Step(
                transfers=(
                    Transfer(0, 2, "vec", "vec", ((0, 4),), ((0, 4),), op="sum"),
                    Transfer(1, 2, "vec", "vec", ((0, 4),), ((0, 4),), op="sum"),
                )
            )
        )
        sched.finalize()  # must not raise

    @pytest.mark.parametrize("name", ["bine-send", "bine-natural", "bine-permute"])
    def test_unvalidated_schedules_identical(self, name):
        spec = ALGORITHMS[("allgather", name)]
        validated = spec.build(16, 16)
        with schedule_validation(False):
            unvalidated = spec.build(16, 16)
        assert validated.p == unvalidated.p
        assert validated.meta == unvalidated.meta
        assert validated.steps == unvalidated.steps  # transfer-for-transfer


class TestDiskCache:
    def _sweep(self, tmp_path, **kwargs):
        preset = lumi()
        return sweep_system(
            preset,
            ("allgather",),
            node_counts=(8, 16),
            vector_bytes=(1024, 65536),
            disk_dir=tmp_path / "cache",
            **kwargs,
        )

    def test_round_trip_preserves_profiles_and_times(self, tmp_path):
        preset = lumi()
        spec = ALGORITHMS[("allgather", "bine-send")]
        cold = ProfileCache(preset, placement="scheduler", disk_dir=tmp_path / "c")
        warm = ProfileCache(preset, placement="scheduler", disk_dir=tmp_path / "c")
        p_cold = cold.get(spec, 16)
        p_warm = warm.get(spec, 16)
        assert p_cold == p_warm
        for n in (1, 100, 10**6):
            m_cold = evaluate_time(p_cold, preset.params, n)
            m_warm = evaluate_time(p_warm, preset.params, n)
            assert m_cold.time == m_warm.time  # bit-for-bit
            assert m_cold.global_bytes == m_warm.global_bytes
            assert m_cold.bytes_by_class == m_warm.bytes_by_class

    def test_none_results_cached(self, tmp_path):
        preset = lumi()
        spec = ALGORITHMS[("allgather", "bine-send")]  # pow2-only
        cold = ProfileCache(preset, placement="scheduler", disk_dir=tmp_path / "c")
        assert cold.get(spec, 24) is None
        warm = ProfileCache(preset, placement="scheduler", disk_dir=tmp_path / "c")
        assert warm.get(spec, 24) is None

    def test_warm_sweep_identical_to_cold(self, tmp_path):
        cold = self._sweep(tmp_path)
        warm = self._sweep(tmp_path)
        assert cold == warm

    def test_cross_grid_warm_matches_own_cold(self, tmp_path):
        # Scheduler mappings are order-dependent RNG draws: a cache filled
        # by a (8, 16) campaign must not satisfy a (16,)-only campaign,
        # whose own cold mapping for p=16 is a different (first) draw.
        preset = lumi()
        kwargs = dict(collectives=("allgather",), vector_bytes=(1024,))
        sweep_system(
            preset, node_counts=(8, 16), disk_dir=tmp_path / "cache", **kwargs
        )
        narrow_cold = sweep_system(preset, node_counts=(16,), **kwargs)
        narrow_warm = sweep_system(
            preset, node_counts=(16,), disk_dir=tmp_path / "cache", **kwargs
        )
        assert narrow_warm == narrow_cold

    def test_corrupt_entry_rebuilt(self, tmp_path):
        cold = self._sweep(tmp_path)
        for f in (tmp_path / "cache").rglob("*.pkl"):
            f.write_bytes(b"not a pickle")
        rebuilt = self._sweep(tmp_path)
        assert cold == rebuilt


class TestParallelSweep:
    def test_parallel_matches_serial(self, tmp_path):
        preset = lumi()
        kwargs = dict(
            collectives=("allgather", "bcast"),
            node_counts=(8, 16),
            vector_bytes=(1024, 65536),
        )
        serial = sweep_system(preset, **kwargs)
        parallel = sweep_system(preset, workers=2, **kwargs)
        assert serial == parallel

    def test_serial_import_loads_no_process_pool(self):
        # the pool and multiprocessing load only where workers > 1 start one
        code = ("import sys, repro.analysis.sweep, repro.analysis.verifygrid; "
                "print('multiprocessing' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"


class TestStepValidateSinglePass:
    def test_overlap_detected(self):
        step = Step(
            transfers=(
                Transfer(0, 2, "vec", "vec", ((0, 4),), ((0, 4),)),
                Transfer(1, 2, "vec", "vec", ((0, 3),), ((3, 6),)),
                Transfer(3, 2, "vec", "vec", ((0, 2),), ((5, 7),)),
            )
        )
        with pytest.raises(ScheduleError, match="overlapping"):
            step.validate(4)

    def test_disjoint_and_reducing_pass(self):
        step = Step(
            transfers=(
                Transfer(0, 2, "vec", "vec", ((0, 4),), ((0, 4),)),
                Transfer(1, 2, "vec", "vec", ((0, 4),), ((4, 8),)),
                Transfer(3, 2, "vec", "vec", ((0, 4),), ((2, 6),), op="sum"),
            )
        )
        step.validate(4)  # must not raise

    def test_rank_range_checked(self):
        step = Step(transfers=(Transfer(0, 9, "vec", "vec", ((0, 1),), ((0, 1),)),))
        with pytest.raises(ScheduleError, match="out of range"):
            step.validate(4)


class TestNumGroupsCache:
    def test_cached_value_stable(self):
        topo = lumi().build_topology()
        first = topo.num_groups
        assert topo.num_groups == first
        assert topo._num_groups_cache == first

    def test_matches_definition(self):
        topo = lumi().build_topology()
        assert topo.num_groups == len(
            {topo.group_of(v) for v in range(topo.num_nodes)}
        )


def test_transfer_nelems_cached_consistent():
    t = Transfer(0, 1, "vec", "vec", ((0, 3), (5, 9)), ((1, 4), (6, 10)))
    assert t.nelems == 7
    arr = np.array([0, 1, 2, 5, 6, 7])
    from segment_oracle import sorted_runs

    assert sorted_runs(arr) == [(0, 3), (5, 8)]
    # large-array path agrees with the small-array scan
    big = np.concatenate([np.arange(0, 200), np.arange(300, 500)])
    assert sorted_runs(big) == [(0, 200), (300, 500)]
