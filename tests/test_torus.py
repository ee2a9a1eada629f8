"""Tests for torus-optimised collectives (Sec. 5.4, Appendix D)."""

import pytest

from repro.analysis.sweep import ProfileCache, sweep_system
from repro.collectives.registry import ALGORITHMS
from repro.collectives.torus import (
    bucket_allgather,
    bucket_allreduce,
    bucket_reduce_scatter,
    torus_bine_allgather,
    torus_bine_allreduce,
    torus_bine_allreduce_multiport,
    torus_bine_allreduce_small,
    torus_bine_bcast,
    torus_bine_reduce,
    torus_bine_reduce_scatter,
    torus_algorithms,
    trinaryx_bcast,
    trinaryx_reduce,
)
from repro.collectives.verify import run_and_check
from repro.core.multiport import multiport_plans, rotated_dimension_schedule
from repro.core.torus_opt import TorusShape, dimension_schedule, torus_bine_tree
from repro.faults import FaultSpec
from repro.systems import fugaku
from repro.topology.torus import Torus

SHAPES = [(4, 4), (2, 4, 2), (2, 2, 2), (8, 4)]


class TestTorusShape:
    def test_coords_roundtrip(self):
        sh = TorusShape((4, 2, 8))
        for r in range(sh.num_ranks):
            assert sh.rank(sh.coords(r)) == r

    def test_rejects_non_pow2_extent(self):
        with pytest.raises(ValueError):
            TorusShape((4, 3))

    def test_dimension_schedule_interleaves(self):
        # 4x4: last dim first within each round (Fig. 16)
        assert dimension_schedule(TorusShape((4, 4))) == [
            (1, 0), (0, 0), (1, 1), (0, 1)]

    def test_rectangular_dims_drop_out(self):
        # 8x2: dim 1 has one step, dim 0 has three
        sched = dimension_schedule(TorusShape((8, 2)))
        assert sched == [(1, 0), (0, 0), (0, 1), (0, 2)]


class TestTorusBineTree:
    def test_fig16_children(self):
        tree = torus_bine_tree(TorusShape((4, 4)))
        assert [c for _, c in tree.children(0)] == [3, 12, 1, 4]

    @pytest.mark.parametrize("dims", SHAPES)
    def test_single_dimension_edges(self, dims):
        """Every tree edge moves along exactly one torus dimension."""
        sh = TorusShape(dims)
        tree = torus_bine_tree(sh)
        for _, u, v in tree.all_edges():
            cu, cv = sh.coords(u), sh.coords(v)
            assert sum(a != b for a, b in zip(cu, cv)) == 1

    @pytest.mark.parametrize("dims", SHAPES)
    def test_fewer_crossed_links_than_flat(self, dims):
        from repro.core.bine_tree import bine_tree_distance_halving

        sh = TorusShape(dims)
        torus = Torus(dims)
        flat = bine_tree_distance_halving(sh.num_ranks)
        opt = torus_bine_tree(sh)

        def crossed(tree):
            return sum(torus.torus_distance(u, v) for _, u, v in tree.all_edges())

        assert crossed(opt) <= crossed(flat)


@pytest.mark.parametrize("dims", SHAPES)
class TestTorusCollectivesCorrect:
    def test_bcast(self, dims):
        run_and_check(torus_bine_bcast(TorusShape(dims), 13))

    def test_reduce(self, dims):
        run_and_check(torus_bine_reduce(TorusShape(dims), 13))

    def test_reduce_scatter(self, dims):
        sh = TorusShape(dims)
        run_and_check(torus_bine_reduce_scatter(sh, 4 * sh.num_ranks))

    def test_allgather(self, dims):
        sh = TorusShape(dims)
        run_and_check(torus_bine_allgather(sh, 4 * sh.num_ranks))

    def test_allreduce(self, dims):
        sh = TorusShape(dims)
        run_and_check(torus_bine_allreduce(sh, 4 * sh.num_ranks))

    def test_allreduce_small(self, dims):
        run_and_check(torus_bine_allreduce_small(TorusShape(dims), 9))

    def test_allreduce_multiport(self, dims):
        sh = TorusShape(dims)
        n = 2 * sh.num_dims * sh.num_ranks
        sched = torus_bine_allreduce_multiport(sh, n)
        assert sched.meta["ports_used"] == 2 * sh.num_dims
        run_and_check(sched)

    def test_bucket_allreduce(self, dims):
        sh = TorusShape(dims)
        run_and_check(bucket_allreduce(sh, 2 * sh.num_ranks))

    def test_bucket_rs_ag(self, dims):
        sh = TorusShape(dims)
        run_and_check(bucket_reduce_scatter(sh, 2 * sh.num_ranks))
        run_and_check(bucket_allgather(sh, 2 * sh.num_ranks))

    def test_trinaryx(self, dims):
        sh = TorusShape(dims)
        run_and_check(trinaryx_bcast(sh, 12))
        run_and_check(trinaryx_reduce(sh, 12))


class TestMultiportPlans:
    def test_plan_count_and_ports(self):
        plans = multiport_plans(TorusShape((4, 4, 4)))
        assert len(plans) == 6
        assert [p.port for p in plans] == list(range(6))
        assert sum(p.mirror for p in plans) == 3

    def test_rotations_differ(self):
        sh = TorusShape((4, 4))
        a = rotated_dimension_schedule(sh, 0)
        b = rotated_dimension_schedule(sh, 1)
        assert a != b
        assert sorted(a) == sorted(b)  # same steps, different order

    def test_bucket_step_count_linear(self):
        # bucket is Θ(Σ dims) steps; torus bine is Θ(log p)
        sh = TorusShape((8, 8))
        bucket = bucket_allreduce(sh, sh.num_ranks)
        bine = torus_bine_allreduce(sh, sh.num_ranks)
        assert bucket.num_steps > bine.num_steps

    def test_trinaryx_edges_single_hop(self):
        sh = TorusShape((4, 4))
        torus = Torus((4, 4))
        sched = trinaryx_bcast(sh, 12)
        for _, t in sched.all_transfers():
            assert torus.torus_distance(t.src, t.dst) == 1


class TestTorusCatalog:
    def test_names_and_families(self):
        specs = torus_algorithms(TorusShape((2, 2, 2)))
        assert {key: s.family for key, s in specs.items()} == {
            ("allreduce", "bine-multiport"): "bine",
            ("allreduce", "bine-torus"): "bine",
            ("allreduce", "bine-torus-small"): "bine",
            ("allreduce", "bucket"): "bucket",
            ("allreduce", "binomial"): "binomial",
            ("allreduce", "rabenseifner"): "sota",
            ("bcast", "bine-torus"): "bine",
            ("bcast", "trinaryx"): "trinaryx",
            ("bcast", "binomial"): "binomial",
            ("reduce", "bine-torus"): "bine",
            ("reduce", "trinaryx"): "trinaryx",
            ("reduce", "binomial"): "binomial",
        }
        # kept out of the registry: the registry's rabenseifner is binomial
        assert ALGORITHMS["allreduce", "rabenseifner"].family == "binomial"
        assert torus_algorithms(TorusShape((2, 2, 2))) is specs

    def test_builder_honours_n_and_rejects_other_p(self):
        sh = TorusShape((2, 4))
        spec = torus_algorithms(sh)["allreduce", "bine-torus"]
        run_and_check(spec.build(8, 4 * 8))
        with pytest.raises(ValueError, match="8-rank torus"):
            spec.build(16, 16)

    def test_sweep_rejects_cache_faults_and_ppn(self):
        for kwargs in (
            {"cache": ProfileCache(fugaku(), placement="block")},
            {"faults": FaultSpec(failed_links=1, seed=3)},
            {"ppn": 2},
        ):
            with pytest.raises(ValueError, match="torus_dims"):
                sweep_system(fugaku(), ("bcast",), torus_dims=(2, 2),
                             vector_bytes=(1024,), **kwargs)
