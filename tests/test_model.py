"""Tests for traffic accounting and the cost model."""

import pytest

from repro.collectives.registry import build, spec_for
from repro.model.compiled import profile_table
from repro.model.cost import CostParams
from repro.model.traffic import global_traffic_elems, traffic_reduction
from repro.topology.base import LinkClass
from repro.topology.dragonfly import Dragonfly
from repro.topology.fattree import FatTree
from repro.topology.mapping import block_mapping
from scalar_oracle import (
    evaluate_time,
    link_loads_per_step,
    profile_schedule,
    traffic_by_class,
)


@pytest.fixture
def lumi_like():
    return Dragonfly(4, 8, links_per_group_pair=4)


class TestTraffic:
    def test_fig1_exact(self):
        ft = FatTree(4, 2, 2.0)
        groups = [ft.group_of(i) for i in range(8)]
        n = 8
        assert global_traffic_elems(build("bcast", "binomial-dd", 8, n), groups) == 6 * n
        assert global_traffic_elems(build("bcast", "binomial-dh", 8, n), groups) == 3 * n

    def test_single_group_no_global(self, lumi_like):
        groups = [0] * 8
        sched = build("allreduce", "bine-rsag", 8, 16)
        assert global_traffic_elems(sched, groups) == 0

    def test_traffic_by_class(self, lumi_like):
        sched = build("allreduce", "rabenseifner", 16, 32)
        by_class = traffic_by_class(sched, lumi_like, block_mapping(16))
        assert by_class[LinkClass.GLOBAL] > 0
        assert by_class[LinkClass.LOCAL] > 0

    def test_link_loads_shape(self, lumi_like):
        sched = build("allreduce", "recursive-doubling", 8, 16)
        loads = link_loads_per_step(sched, lumi_like, block_mapping(8))
        assert len(loads) == sched.num_steps

    def test_traffic_reduction(self):
        assert traffic_reduction(100, 67) == pytest.approx(0.33)
        assert traffic_reduction(0, 0) == 0.0
        assert traffic_reduction(100, 150) == pytest.approx(-0.5)


class TestCostModel:
    def test_time_scales_with_bytes(self, lumi_like):
        sched = build("allreduce", "bine-rsag", 16, 16)
        prof = profile_schedule(sched, lumi_like, block_mapping(16))
        params = CostParams()
        t_small = evaluate_time(prof, params, 1024).time
        t_big = evaluate_time(prof, params, 1024 * 1024).time
        assert t_big > t_small
        # at large n the time is bandwidth-bound: 8x data ≈ 8x time
        t_bigger = evaluate_time(prof, params, 8 * 1024 * 1024).time
        assert 4 < t_bigger / t_big < 12

    def test_latency_floor(self, lumi_like):
        sched = build("allreduce", "recursive-doubling", 16, 16)
        prof = profile_schedule(sched, lumi_like, block_mapping(16))
        params = CostParams()
        t = evaluate_time(prof, params, 1).time
        assert t >= sched.num_steps * params.alpha

    def test_ring_latency_dominates_small_vectors(self, lumi_like):
        p = 32
        ring = profile_schedule(
            build("allreduce", "ring", p, p), lumi_like, block_mapping(p))
        bine = profile_schedule(
            build("allreduce", "bine-small", p, p), lumi_like, block_mapping(p))
        params = CostParams()
        n_small = 8  # 32 B
        assert evaluate_time(bine, params, n_small).time < evaluate_time(
            ring, params, n_small).time

    def test_ring_wins_huge_vectors(self, lumi_like):
        p = 16
        ring = profile_schedule(
            build("allreduce", "ring", p, p), lumi_like, block_mapping(p))
        bine = profile_schedule(
            build("allreduce", "bine-rsag", p, p), lumi_like, block_mapping(p))
        params = CostParams()
        n_huge = 128 * 1024 * 1024
        assert evaluate_time(ring, params, n_huge).time < evaluate_time(
            bine, params, n_huge).time

    def test_segment_overhead_punishes_swing(self, lumi_like):
        p = 32
        params = CostParams()
        swing = profile_schedule(
            build("reduce_scatter", "swing", p, p), lumi_like, block_mapping(p))
        bine = profile_schedule(
            build("reduce_scatter", "bine-send", p, p), lumi_like, block_mapping(p))
        n = 256  # latency-dominated regime where segments matter
        assert evaluate_time(bine, params, n).time < evaluate_time(swing, params, n).time

    def test_ports_divide_injection(self, lumi_like):
        sched = build("allreduce", "bine-rsag", 16, 16)
        sched.meta["ports_used"] = 4
        prof = profile_schedule(sched, lumi_like, block_mapping(16))
        one = CostParams(ports=1)
        four = CostParams(ports=4)
        n = 64 * 1024 * 1024
        assert evaluate_time(prof, four, n).time <= evaluate_time(prof, one, n).time

    def test_global_bytes_scale(self, lumi_like):
        sched = build("allreduce", "rabenseifner", 16, 16)
        prof = profile_schedule(sched, lumi_like, block_mapping(16))
        params = CostParams()
        m1 = evaluate_time(prof, params, 1000)
        m2 = evaluate_time(prof, params, 2000)
        assert m2.global_bytes == pytest.approx(2 * m1.global_bytes)

    def test_mapping_size_mismatch(self, lumi_like):
        sched = build("allreduce", "bine-rsag", 16, 16)
        with pytest.raises(ValueError):
            profile_schedule(sched, lumi_like, block_mapping(8))


#: (algorithm, p) cells where an alltoall table moves its exact schedule's
#: elements: Bruck at any p, Bine at powers of two, pairwise while its 32
#: sampled offsets still cover every offset 1 … p − 1
ALLTOALL_CELLS = [
    ("bruck", p) for p in (16, 17, 33, 64, 100, 256)
] + [("bine", p) for p in (16, 64, 256)] + [("pairwise", p) for p in (16, 17, 33)]


@pytest.mark.parametrize("name, p", ALLTOALL_CELLS)
def test_alltoall_table_moves_exact_elements_per_class(name, p):
    """An alltoall sweep table (packed or sampled cost model) moves the same
    elements over each link class as the executor's slot-tracking schedule;
    only the wire segmentation/pack trade-off differs (Sec. 4.4's two data
    handlings), so times intentionally differ."""
    topo = Dragonfly(32, 8, links_per_group_pair=4)  # both link classes from p=9
    mapping = block_mapping(p)
    table = profile_table(spec_for("alltoall", name).table(p), topo, mapping)
    exact = traffic_by_class(build("alltoall", name, p, p), topo, mapping)
    assert table.total_class_elems() == exact
    assert exact.get(LinkClass.GLOBAL)  # the check covers global links
