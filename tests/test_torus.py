"""Tests for torus-optimised collectives (Sec. 5.4, Appendix D)."""

import hashlib

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


#: sha256 of ``repr(meta) + repr(steps)``: multiport at n = 2·D·(p + 1)
#: (a slice size no block count divides), bucket at n = 3·p; pinned from
#: the builders that merged remapped ``Schedule`` objects step by step
PINNED = {
    ("multiport", (2, 4)): "771f74800f048085b02e86faf4202cd5d401abf21bbd57b76020eecf259681a2",
    ("bucket_rs", (2, 4)): "ff161e7531a02902c0125c3a8eb88d535a4d411cc6c7094b87691b0044f367c5",
    ("bucket_ag", (2, 4)): "1457ef5346ffd6efbdf9a4f0ee4bf6b50ec8bf521340bd1fc415dcc405cd2c08",
    ("bucket_ar", (2, 4)): "944e8c1a2dd466b8ca84eba6ac1ada5c687e20ed37715fbcb734a829ad8a074e",
    ("multiport", (2, 2, 2)): "e90cc8cc0bb668b032b76ab8644a792dafc5230fef635f5af2d60975aeca4cff",
    ("bucket_rs", (2, 2, 2)): "6132012bf22e211a29094afa14a03496bff3efc42fc11066fb5984e4cdd61b19",
    ("bucket_ag", (2, 2, 2)): "73537c76fa9e0783b76100c269275362644b3658d0a3b804338be9d58eb8cad0",
    ("bucket_ar", (2, 2, 2)): "a76b3af6e91f56120e79d68d859fee17816cdea66db86f80e0bab0cec451d18d",
    ("multiport", (4, 4)): "8a4d95c549a251cf7f47f7ae824007ffccfe9a367328fd6a5c3c7a5a29133e9e",
    ("bucket_rs", (4, 4)): "d19f775cd5a4e8467c06f740b5e8618096098ad8c622fa448c6ecb18430cf535",
    ("bucket_ag", (4, 4)): "43d55750822807bc8b2d12ef14b56a4947b40e22ee3fbbb5b0786e6f2c7dc7a3",
    ("bucket_ar", (4, 4)): "95ed5082e0a772345bd1660b40ef6a2c83040561aa815794260ea59d27ae54c6",
    ("multiport", (4, 4, 4)): "72401d67d39f69b8cb9c84521702977567fa1fc9f04ce30f2be1bfe0748e4d5c",
    ("bucket_rs", (4, 4, 4)): "92a87303e8ec2f6c6df9781b305174ffe837addebd1d090463cf9e394ff026f0",
    ("bucket_ag", (4, 4, 4)): "a58ea1e028911b5a5748baa549238f909b641ea731ef03bb3752afb3785f7515",
    ("bucket_ar", (4, 4, 4)): "ebe93d73cb4ec03589632971729ca5dc6a693c4130628f2628130d1442645e63",
}


@pytest.mark.parametrize("name, dims", list(PINNED), ids=str)
def test_overlaid_schedules_are_pinned(name, dims):
    sh = TorusShape(dims)
    p = sh.num_ranks
    sched = {
        "multiport": lambda: torus_bine_allreduce_multiport(sh, 2 * sh.num_dims * (p + 1)),
        "bucket_rs": lambda: bucket_reduce_scatter(sh, 3 * p),
        "bucket_ag": lambda: bucket_allgather(sh, 3 * p),
        "bucket_ar": lambda: bucket_allreduce(sh, 3 * p),
    }[name]()
    digest = hashlib.sha256((repr(sched.meta) + repr(sched.steps)).encode()).hexdigest()
    assert digest == PINNED[name, dims]


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
