"""Compiled profile pipeline == scalar Python reference, bit for bit.

The sweep pipeline (transfer tables, CSR route matrices, grid evaluation
— :mod:`repro.model.compiled`) must be a pure optimization: every
:class:`StepProfile`, every evaluated time and every sweep record must
equal the scalar pipeline's output exactly, not merely within tolerance.
The scalar pipeline in ``tests/scalar_oracle.py`` (:func:`profile_schedule`
over a :class:`RouteTable`, :func:`evaluate_time` per size) is the oracle
here — :func:`oracle_records` rebuilds a sweep's records with it.  These tests pin that contract across
the whole algorithm registry (including non-power-of-two rank counts),
alltoall's packed and sampled tables, the torus catalog, and the sweep
layer itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.sweep import (
    ProfileCache,
    clear_memo_caches,
    sweep_system,
    sweep_torus,
)
from repro.cli.main import main
from repro.cli.manifest import ManifestError, manifest_from_dict
from repro.collectives.registry import ALGORITHMS, spec_for
from repro.collectives.composed import hierarchical_allreduce_bine
from repro.collectives.registry import build
from repro.faults import FaultSpec
from repro.model.compiled import (
    CompiledRouteTable,
    _seq_sum,
    evaluate_grid,
    lower_schedule,
    profile_table,
    transfer_table_for,
)
from repro.runtime.schedule import schedule_validation
from repro.systems import fugaku, lumi, marenostrum5
from repro.topology.hierarchical import MultiRankNodes
from repro.topology.base import LinkClass
from repro.topology.mapping import RankMap, block_mapping
from repro.topology.torus import Torus
from scalar_oracle import (
    RouteTable,
    ScalarRoutes,
    evaluate_time,
    oracle_profile,
    oracle_records,
    profile_schedule,
    scalar_records,
)

RANK_COUNTS = (4, 8, 16, 17, 32)
#: geometric size grid (the paper's 32 B ... 512 MiB ladder, thinned)
N_BYTES = tuple(32 * 8**k for k in range(0, 9, 2))


def _buildable_schedules(p):
    """Every registry schedule that exists at ``p`` (validation off)."""
    for (coll, name), spec in sorted(ALGORITHMS.items()):
        if spec.max_p is not None and p > spec.max_p:
            continue
        try:
            with schedule_validation(False):
                yield coll, name, spec.build(p, p)
        except ValueError:
            continue  # pow2/divisibility constraint not met


class TestStepProfileEquivalence:
    @pytest.mark.parametrize("p", RANK_COUNTS)
    def test_registry_profiles_bit_identical(self, p):
        preset = lumi()
        topo = preset.build_topology()
        mapping = block_mapping(p)
        routes = RouteTable(topo)
        croutes = CompiledRouteTable(topo)
        checked = 0
        for coll, name, sched in _buildable_schedules(p):
            py = profile_schedule(sched, topo, mapping, routes=routes)
            co = profile_table(
                lower_schedule(sched), topo, mapping, routes=croutes
            )
            assert py == co, f"{coll}/{name} p={p}"
            checked += 1
        # the registry actually covered this p (non-pow2 thins the field)
        assert checked >= (10 if p & (p - 1) == 0 else 8)

    def test_ppn2_same_node_copies_bit_identical(self):
        # ppn > 1 exercises the intra-node (shared-memory copy) branch
        preset = lumi()
        topo = preset.build_topology()
        mapping = block_mapping(16, ppn=2)
        for coll, name in (("allreduce", "bine-rsag"), ("bcast", "binomial-dd")):
            sched = ALGORITHMS[(coll, name)].build(16, 16)
            py = profile_schedule(sched, topo, mapping)
            co = profile_table(lower_schedule(sched), topo, mapping)
            assert py == co

    @pytest.mark.parametrize("name, p", [
        (name, p) for name in ("pairwise", "bruck", "bine") for p in (16, 256)
    ] + [(name, p) for name in ("pairwise", "bruck") for p in (17, 100)])
    def test_alltoall_tables_match_scalar_kernel(self, name, p):
        # alltoall's packed and sampled tables are no lowered schedule,
        # so the scalar oracle profiles the table itself: its kernel and
        # the compiled one must fold the rows into identical profiles
        topo = lumi().build_topology()
        table = spec_for("alltoall", name).table(p)
        mapping = block_mapping(p)
        assert table.meta["analytic"]
        assert profile_table(table, topo, mapping, routes=ScalarRoutes(topo)) == (
            profile_table(table, topo, mapping, routes=CompiledRouteTable(topo))
        )

    @pytest.mark.parametrize("gpus", [16, 64])
    def test_gpu_clique_topology_bit_identical(self, gpus):
        # MultiRankNodes (one node per GPU, NVLink cliques inside a host):
        # the Sec. 6.2 GPU bench's topology
        preset = marenostrum5()
        topo = MultiRankNodes(preset.build_topology(), 4)
        mapping = block_mapping(gpus)
        n_elems = [nb / 4 for nb in N_BYTES]
        for sched in (
            hierarchical_allreduce_bine(gpus // 4, 4, gpus),
            build("allreduce", "bine-rsag", gpus, gpus),
            build("allreduce", "rabenseifner", gpus, gpus),
            build("allreduce", "ring", gpus, gpus),
        ):
            py = profile_schedule(sched, topo, mapping)
            co = profile_table(lower_schedule(sched), topo, mapping)
            assert py == co, sched.meta.get("algorithm")
            grid = evaluate_grid(co, preset.params, n_elems)
            for j, n in enumerate(n_elems):
                assert grid.time[j] == evaluate_time(py, preset.params, n).time

    def test_profile_table_rejects_foreign_topology(self):
        topo_a = lumi().build_topology()
        topo_b = lumi().build_topology()
        sched = ALGORITHMS[("bcast", "bine")].build(8, 8)
        with pytest.raises(ValueError, match="different topology"):
            profile_table(
                lower_schedule(sched), topo_a, block_mapping(8),
                routes=CompiledRouteTable(topo_b),
            )

    def test_profile_table_rejects_mapping_mismatch(self):
        topo = lumi().build_topology()
        sched = ALGORITHMS[("bcast", "bine")].build(8, 8)
        with pytest.raises(ValueError, match="8"):
            profile_table(lower_schedule(sched), topo, block_mapping(4))


def _pair_rows(routes, keys):
    """Each pair's CSR row, with interned ids replaced by what they name.

    Pair, link and class ids depend on the order pairs were interned in;
    the rows they name must not.
    """
    csr = routes._arrays
    link_keys = list(routes._link_ids)
    names = routes.cls_names
    assert (np.diff(csr.keys) > 0).all()
    assert csr.keys.size == csr.key_pid.size + 1  # the closing sentinel
    assert sorted(csr.key_pid.tolist()) == list(range(csr.sig.size))
    assert csr.off.size == csr.sig.size + 1 == csr.nic.size + 1
    assert csr.off[-1] == csr.link.size == csr.width.size == csr.cls.size
    assert csr.hops.shape == (csr.sig.size, len(names))
    n = routes._num_nodes
    pids = routes.resolve(keys // n, keys % n)
    assert routes._arrays is csr  # every pair was already interned
    rows = []
    for pid in pids.tolist():
        lo, hi = csr.off[pid], csr.off[pid + 1]
        rows.append((
            [link_keys[i] for i in csr.link[lo:hi].tolist()],
            csr.width[lo:hi].tolist(),
            [names[c] for c in csr.cls[lo:hi].tolist()],
            routes.sig_tuples[csr.sig[pid]],
            bool(csr.nic[pid]),
            {names[c]: h for c, h in enumerate(csr.hops[pid].tolist()) if h},
        ))
    return rows


class TestRouteTableGrowth:
    """A table grown step by step equals one filled in a single batch."""

    @staticmethod
    def _check(topo, mapping, sched):
        table = lower_schedule(sched)
        grown = CompiledRouteTable(topo)
        stepwise = profile_table(table, topo, mapping, routes=grown)
        nodes = np.asarray(mapping.nodes, dtype=np.intp)
        keys = np.unique(nodes[table.src] * topo.num_nodes + nodes[table.dst])
        batch = CompiledRouteTable(topo)
        n = topo.num_nodes
        batch.resolve(keys // n, keys % n)
        filled = batch._arrays
        assert profile_table(table, topo, mapping, routes=batch) == stepwise
        assert batch._arrays is filled
        assert np.array_equal(grown._arrays.keys[:-1], keys)
        assert _pair_rows(grown, keys) == _pair_rows(batch, keys)
        return grown

    def test_lumi_global_class_appears_late(self):
        # ranks 0-7 in group 0 and 8-15 in group 1: recursive doubling
        # stays inside a group for three steps, then crosses
        topo = lumi().build_topology()
        g = topo.nodes_per_group
        mapping = RankMap(tuple(range(8)) + tuple(range(g, g + 8)))
        sched = build("allreduce", "recursive-doubling", 16, 16)
        first = lower_schedule(sched)
        early = CompiledRouteTable(topo)
        s1 = first.step_off[1]
        nodes = np.asarray(mapping.nodes, dtype=np.intp)
        early.resolve(nodes[first.src[:s1]], nodes[first.dst[:s1]])
        assert early.cls_names == [LinkClass.LOCAL]
        assert early._arrays.hops.shape[1] == 1
        grown = self._check(topo, mapping, sched)
        assert set(grown.cls_names) == {LinkClass.LOCAL, LinkClass.GLOBAL}

    def test_faulted_topology(self):
        cache = ProfileCache(
            lumi(), faults=FaultSpec.parse("links=3,nodes=2,global=0.5,seed=13")
        )
        for coll, name in (("allreduce", "bine-rsag"), ("allgather", "ring")):
            sched = build(coll, name, 64, 64)
            self._check(cache.topo, cache.mapping_for(64), sched)

    def test_gpu_clique_topology(self):
        topo = MultiRankNodes(marenostrum5().build_topology(), 4)
        grown = self._check(
            topo, block_mapping(64), hierarchical_allreduce_bine(16, 4, 64)
        )
        assert LinkClass.INTRA in grown.cls_names

    def test_torus(self):
        topo = Torus((4, 4))
        for name in ("bine-rsag", "swing"):
            self._check(topo, block_mapping(16), build("allreduce", name, 16, 16))


class TestEvaluateGrid:
    def _profiles(self):
        preset = lumi()
        topo = preset.build_topology()
        out = []
        for coll, name, p in (
            ("allreduce", "bine-rsag", 32),           # plain step sum
            ("allreduce", "bine-rsag-segmented", 32), # segmented overlap
            ("allreduce", "ring", 16),                # segmented, many steps
            ("allgather", "bruck", 17),               # non-pow2, local copies
        ):
            sched = ALGORITHMS[(coll, name)].build(p, p)
            out.append(profile_schedule(sched, topo, block_mapping(p)))
        return preset, out

    def test_matches_per_size_evaluate_time(self):
        preset, profiles = self._profiles()
        n_elems = [nb / preset.params.itemsize for nb in N_BYTES]
        for profile in profiles:
            grid = evaluate_grid(profile, preset.params, n_elems)
            for j, n in enumerate(n_elems):
                m = evaluate_time(profile, preset.params, n)
                assert grid.time[j] == m.time
                assert grid.global_bytes[j] == m.global_bytes
                assert {
                    cls: arr[j] for cls, arr in grid.bytes_by_class.items()
                } == m.bytes_by_class

    def test_pipelined_meta_matches(self):
        # the trinaryx torus chains carry the ``pipelined`` cost flag
        from repro.collectives.torus import torus_specs
        from repro.core.torus_opt import TorusShape
        from repro.topology.torus import Torus

        preset = fugaku()
        shape, topo = TorusShape((2, 2, 2)), Torus((2, 2, 2))
        mapping = block_mapping(shape.num_ranks)
        seen_pipelined = False
        for spec in torus_specs():
            with schedule_validation(False):
                sched = spec.build(shape)
            seen_pipelined |= bool(sched.meta.get("pipelined"))
            profile = profile_schedule(sched, topo, mapping)
            n_elems = [nb / 4 for nb in N_BYTES]
            grid = evaluate_grid(profile, preset.params, n_elems)
            for j, n in enumerate(n_elems):
                assert grid.time[j] == evaluate_time(profile, preset.params, n).time
        assert seen_pipelined  # the flag's code path was actually exercised

    def test_repeated_ring_steps_large_p(self):
        # thousands of repeated step rows: the _lat_array id-memo path
        preset = lumi()
        topo = preset.build_topology()
        profile = profile_table(
            spec_for("allreduce", "ring").table(1024), topo, block_mapping(1024)
        )
        assert len(profile.steps) == 2 * 1023
        assert len({id(step) for step in profile.steps}) == 2
        n_elems = [nb / preset.params.itemsize for nb in N_BYTES]
        grid = evaluate_grid(profile, preset.params, n_elems)
        for j, n in enumerate(n_elems):
            assert grid.time[j] == evaluate_time(profile, preset.params, n).time

    def test_seq_sum_matches_sequential_loop(self):
        # the summation must add rows in step order (no pairwise
        # regrouping) — the property the bit-identity contract leans on;
        # single-column matrices are the historical trap (np.add.reduce
        # regroups them)
        rng = np.random.default_rng(7)
        for cols in (1, 9):
            term = rng.random((4097, cols)) * np.logspace(-18, 3, 4097)[:, None]
            expect = np.zeros(cols)
            for row in term:
                expect = expect + row
            assert np.array_equal(_seq_sum(term, cols), expect)
            assert np.array_equal(_seq_sum(np.asfortranarray(term), cols), expect)
            assert np.array_equal(_seq_sum(term[:0], cols), np.zeros(cols))


class TestSweepRecordEquivalence:
    """Sweep records == the scalar oracle (:func:`oracle_records`)."""

    def test_sweep_records_match_scalar_oracle(self):
        cache = ProfileCache(lumi())
        kwargs = dict(
            node_counts=(8, 16, 17, 32),
            vector_bytes=N_BYTES,
            max_p={"alltoall": 16},
        )
        collectives = tuple(sorted({c for c, _ in ALGORITHMS}))
        co = sweep_system(cache.preset, collectives, cache=cache, **kwargs)
        assert co == oracle_records(cache, collectives, **kwargs)
        assert len(co) > 300

    def test_reference_lumi_campaign_matches_scalar_oracle(self):
        # the BENCH_sweep.json campaign's shape (3 collectives, the nine
        # paper sizes) — the acceptance contract for the compiled engine
        cache = ProfileCache(lumi())
        kwargs = dict(
            node_counts=(16, 64, 256),
            vector_bytes=tuple(32 * 8**k for k in range(9)),
        )
        collectives = ("allreduce", "allgather", "bcast")
        co = sweep_system(cache.preset, collectives, cache=cache, **kwargs)
        assert co == oracle_records(cache, collectives, **kwargs)
        assert len(co) > 500

    def test_sweep_records_match_scalar_oracle_with_ppn(self):
        cache = ProfileCache(lumi())
        kwargs = dict(node_counts=(16, 32), vector_bytes=(1024,), ppn=2)
        co = sweep_system(cache.preset, ("allreduce",), cache=cache, **kwargs)
        assert co == oracle_records(cache, ("allreduce",), **kwargs) and co

    def test_torus_sweep_matches_scalar_oracle(self):
        from repro.collectives.torus import torus_specs
        from repro.core.torus_opt import TorusShape
        from repro.topology.torus import Torus

        preset = fugaku()
        collectives = ("bcast", "allreduce", "allgather")
        for dims in ((2, 4), (2, 2, 2)):
            shape, topo = TorusShape(dims), Torus(dims)
            mapping = block_mapping(shape.num_ranks)
            system = "fugaku:" + "x".join(str(d) for d in dims)
            want = []
            for spec in torus_specs(collectives):
                with schedule_validation(False):
                    sched = spec.build(shape)
                want += scalar_records(
                    profile_schedule(sched, topo, mapping), system, spec,
                    shape.num_ranks, N_BYTES, preset.params,
                )
            got = sweep_torus(preset, dims, collectives, vector_bytes=N_BYTES)
            assert got == want and got

    def test_profile_cache_matches_scalar_oracle_including_analytic(self):
        # alltoall is analytic: the cache must hand the analytic builder
        # its CSR table and still produce the same profile object graph as
        # the scalar route table; the p=256 ring profiles its repeated
        # table rows against the oracle's full schedule
        cache = ProfileCache(lumi())
        for coll, name, p in (
            ("alltoall", "bine", 256), ("allreduce", "ring", 256),
            ("allreduce", "ring", 16),
        ):
            spec = spec_for(coll, name)
            assert cache.get(spec, p) == oracle_profile(cache, spec, p)


class TestTransferTableMemo:
    def test_memoized_per_registry_cell(self):
        clear_memo_caches()
        spec = spec_for("bcast", "bine")
        first = transfer_table_for(spec, 16)
        assert first is transfer_table_for(spec, 16)
        clear_memo_caches()
        rebuilt = transfer_table_for(spec, 16)
        assert rebuilt is not first
        assert np.array_equal(rebuilt.src, first.src)
        assert np.array_equal(rebuilt.nelems, first.nelems)

    def test_constraint_miss_cached_as_none(self):
        spec = spec_for("bcast", "bine")  # pow2-only
        assert transfer_table_for(spec, 24) is None
        assert transfer_table_for(spec, 24) is None

    def test_lowering_matches_schedule(self):
        sched = spec_for("allreduce", "bine-rsag").build(16, 16)
        table = lower_schedule(sched)
        assert table.num_steps == sched.num_steps
        assert table.num_transfers == sum(
            len(s.transfers) for s in sched.steps
        )
        assert int(table.nelems.sum()) == sched.total_comm_elems()
        # local ops keep pre-then-post step order
        for i, step in enumerate(sched.steps):
            lo, hi = table.local_off[i], table.local_off[i + 1]
            assert hi - lo == len(step.pre) + len(step.post)


class TestEngineKnob:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown profile engine"):
            ProfileCache(lumi(), profile_engine="fortran")

    def test_python_engine_retired(self, capsys):
        # the scalar pipeline is the tests' oracle, not a production engine
        with pytest.raises(ValueError, match="unknown profile engine"):
            ProfileCache(lumi(), profile_engine="python")
        with pytest.raises(ManifestError, match="engine"):
            manifest_from_dict({
                "campaign": {"name": "t", "system": "lumi",
                             "engine": "python"},
                "grid": [{"collectives": ["bcast"], "node_counts": [16]}],
            })
        # the engine follows from the scenario: the CLI has no flag for it
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--system", "lumi", "--profile-engine", "python"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
