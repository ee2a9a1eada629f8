"""Degraded-fabric fault injection: spec parsing, determinism, rerouting.

The fault layer's contract: a FaultSpec degrades a topology
deterministically from its seed, reroutes around failed global links (or
names the partitioned pair), and leaves records equal to the scalar
oracle's and bit-identical across serial/parallel execution and cold/warm
disk caches.
"""

from __future__ import annotations

import pytest

from repro.analysis.sweep import ProfileCache, SweepRecord, sweep_system
from repro.cli.manifest import ManifestError, manifest_from_dict, manifest_to_dict
from repro.faults import NIC_DERATE, DegradedTopology, FaultSpec
from repro.runtime.errors import FaultSpecError, TopologyPartitionedError
from repro.systems import fugaku, lumi, marenostrum5
from repro.topology.base import LinkClass
from repro.topology.dragonfly import Dragonfly
from scalar_oracle import oracle_records


class TestFaultSpec:
    def test_parse_label_round_trip(self):
        spec = FaultSpec.parse("links=2,global=0.5,seed=13")
        assert spec.failed_links == 2
        assert spec.derate == (("global", 0.5),)
        assert spec.seed == 13
        assert spec.label == "links2-globalx0.5-seed13"
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("text", ["", "none"])
    def test_parse_pristine(self, text):
        spec = FaultSpec.parse(text)
        assert spec.is_null
        assert spec.label == "none"

    @pytest.mark.parametrize(
        "text,match",
        [
            ("bogus=1", "unknown key"),
            ("links=x", "takes an integer"),
            ("global=zero", "takes a"),
            ("links", "key=value"),
            ("links=-1", "must be >= 0"),
            ("global=1.5", r"\(0, 1\]"),
            ("global=0", r"\(0, 1\]"),
        ],
    )
    def test_parse_errors(self, text, match):
        with pytest.raises(FaultSpecError, match=match):
            FaultSpec.parse(text)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(FaultSpecError, match="unknown key"):
            FaultSpec.from_dict({"failed_link": 1})

    def test_label_covers_all_knobs(self):
        spec = FaultSpec(seed=3, failed_links=1, failed_nodes=2, nic_outages=1)
        assert spec.label == "links1-nodes2-nics1-seed3"


class TestDegradedTopology:
    def test_same_seed_same_victims(self):
        spec = FaultSpec(seed=13, failed_links=3, failed_nodes=2, nic_outages=1)
        a = DegradedTopology(Dragonfly(8, 8), spec)
        b = DegradedTopology(Dragonfly(8, 8), spec)
        assert a.failed_links == b.failed_links
        assert a.failed_nodes == b.failed_nodes
        assert a.nic_outages == b.nic_outages
        assert len(a.failed_links) == 3

    def test_different_seed_different_victims(self):
        base = Dragonfly(8, 8)
        sets = {
            DegradedTopology(base, FaultSpec(seed=s, failed_links=3)).failed_links
            for s in range(8)
        }
        assert len(sets) > 1

    def test_detour_avoids_failed_links(self):
        spec = FaultSpec(seed=13, failed_links=2)
        topo = DegradedTopology(Dragonfly(8, 8), spec)
        inner = topo.inner
        for src in range(0, topo.num_nodes, 7):
            for dst in range(1, topo.num_nodes, 11):
                if src == dst:
                    continue
                route = topo.route(src, dst)
                assert not any(l.key in topo.failed_links for l in route)
                # detours add hops, never drop endpoints' groups
                if any(
                    l.key in topo.failed_links for l in inner.route(src, dst)
                ):
                    assert len(route) > len(inner.route(src, dst))

    def test_class_derate_scales_widths(self):
        spec = FaultSpec(derate={"global": 0.5})
        topo = DegradedTopology(Dragonfly(8, 8), spec)
        route = topo.route(0, topo.num_nodes - 1)
        base = topo.inner.route(0, topo.num_nodes - 1)
        for degraded, pristine in zip(route, base):
            expect = pristine.width * (
                0.5 if pristine.cls == LinkClass.GLOBAL else 1.0
            )
            assert degraded.width == expect
        assert any(l.cls == LinkClass.GLOBAL for l in route)

    def test_nic_outage_derates_adjacent_links(self):
        spec = FaultSpec(seed=1, nic_outages=1)
        topo = DegradedTopology(Dragonfly(8, 8), spec)
        (victim,) = topo.nic_outages
        peer = (victim + 1) % topo.num_nodes
        route = topo.route(victim, peer)
        pristine = topo.inner.route(victim, peer)
        assert route[0].width == pristine[0].width * NIC_DERATE

    def test_failed_node_partitions(self):
        spec = FaultSpec(seed=5, failed_nodes=1)
        topo = DegradedTopology(Dragonfly(8, 8), spec)
        (down,) = topo.failed_nodes
        alive = next(v for v in range(topo.num_nodes) if v != down)
        with pytest.raises(TopologyPartitionedError) as exc:
            topo.route(down, alive)
        assert str(down) in str(exc.value)

    def test_partition_names_pair(self):
        # MareNostrum 5 fat tree: fail every up/down uplink between two
        # subtrees' worth of routes by derating... instead: exhaust detours
        # on a 2-group dragonfly (single inter-group bundle, no detour
        # group exists)
        topo = DegradedTopology(
            Dragonfly(2, 4), FaultSpec(seed=0, failed_links=1)
        )
        src, dst = 0, topo.num_nodes - 1
        assert topo.group_of(src) != topo.group_of(dst)
        with pytest.raises(TopologyPartitionedError, match="no surviving route"):
            topo.route(src, dst)

    def test_torus_has_no_global_links(self):
        with pytest.raises(FaultSpecError, match="global links"):
            DegradedTopology(
                fugaku().build_topology(), FaultSpec(failed_links=1)
            )

    def test_torus_class_derate_still_works(self):
        topo = DegradedTopology(
            fugaku().build_topology(), FaultSpec(derate={"torus": 0.5})
        )
        route = topo.route(0, 1)
        assert all(l.width == 0.5 * b.width
                   for l, b in zip(route, topo.inner.route(0, 1)))

    def test_double_wrap_rejected(self):
        topo = DegradedTopology(Dragonfly(4, 4), FaultSpec(seed=1))
        with pytest.raises(FaultSpecError, match="already-degraded"):
            DegradedTopology(topo, FaultSpec(seed=2))

    def test_fattree_links_fail(self):
        topo = DegradedTopology(
            marenostrum5().build_topology(), FaultSpec(seed=3, failed_links=2)
        )
        assert len(topo.failed_links) == 2
        for key in topo.failed_links:
            assert key[0] in ("up", "down")


SWEEP_KWARGS = dict(
    collectives=("allgather", "bcast"),
    node_counts=(16, 64),
    vector_bytes=(1024, 65536),
)
SPEC = FaultSpec(seed=13, failed_links=2, derate={"global": 0.5})


class TestFaultedSweeps:
    def test_records_carry_label(self):
        records = sweep_system(lumi(), faults=SPEC, **SWEEP_KWARGS)
        assert records
        assert {r.faults for r in records} == {SPEC.label}
        # key is (..., faults, timeline); the static label slots before
        # the (empty) timeline label
        assert all(r.key[-2:] == (SPEC.label, "none") for r in records)

    def test_faulted_differs_from_pristine(self):
        pristine = sweep_system(lumi(), **SWEEP_KWARGS)
        faulted = sweep_system(lumi(), faults=SPEC, **SWEEP_KWARGS)
        assert len(pristine) == len(faulted)
        assert any(
            a.time != b.time or a.global_bytes != b.global_bytes
            for a, b in zip(pristine, faulted)
        )

    @pytest.mark.parametrize("ppn", [1, 2])
    def test_records_match_scalar_oracle_under_faults(self, ppn):
        # detour rerouting must agree between the CSR and the scalar route
        # tables at every ranks-per-node factor, and the records must
        # carry the ppn they swept
        cache = ProfileCache(lumi(), faults=SPEC)
        compiled = sweep_system(lumi(), cache=cache, ppn=ppn, **SWEEP_KWARGS)
        assert compiled == oracle_records(cache, ppn=ppn, **SWEEP_KWARGS)
        assert {r.ppn for r in compiled} == {ppn}

    def test_parallel_identical_to_serial_under_faults(self):
        serial = sweep_system(lumi(), faults=SPEC, **SWEEP_KWARGS)
        parallel = sweep_system(lumi(), faults=SPEC, workers=2, **SWEEP_KWARGS)
        assert serial == parallel

    def test_warm_disk_identical_to_cold_under_faults(self, tmp_path):
        cold = sweep_system(
            lumi(), faults=SPEC, disk_dir=tmp_path / "c", **SWEEP_KWARGS
        )
        warm = sweep_system(
            lumi(), faults=SPEC, disk_dir=tmp_path / "c", **SWEEP_KWARGS
        )
        assert cold == warm

    def test_scenarios_get_separate_cache_namespaces(self, tmp_path):
        sweep_system(lumi(), faults=SPEC, disk_dir=tmp_path / "c",
                     collectives=("bcast",), node_counts=(16,),
                     vector_bytes=(1024,))
        sweep_system(lumi(), disk_dir=tmp_path / "c",
                     collectives=("bcast",), node_counts=(16,),
                     vector_bytes=(1024,))
        dirs = {d.name for d in (tmp_path / "c").iterdir()}
        assert any(SPEC.label in d for d in dirs)
        assert any("faults.none" in d for d in dirs)

    def test_cache_conflicting_faults_rejected(self):
        topo = DegradedTopology(lumi().build_topology(), SPEC)
        import dataclasses

        preset = dataclasses.replace(lumi(), topology=lambda: topo)
        # the preset factory's degradation governs; a different explicit
        # spec is a contradiction
        with pytest.raises(ValueError, match="already degraded"):
            ProfileCache(preset, faults=FaultSpec(seed=99, failed_links=1))
        assert ProfileCache(preset).faults == SPEC


class TestSelectionUnderFaults:
    def test_faults_label_keys_distinct_tables(self):
        from repro.runtime.errors import TuneQueryError
        from repro.tune import build_decision_table, select_algorithm

        kwargs = dict(collectives=("bcast",), node_counts=(16,),
                      vector_bytes=(1024,))
        records = (
            sweep_system(lumi(), **kwargs)
            + sweep_system(lumi(), faults=SPEC, **kwargs)
        )
        table = build_decision_table(records, name="t", source="test")
        assert {sub.faults for sub in table.tables} == {"none", SPEC.label}
        pristine = select_algorithm(table, "bcast", "lumi", 16, 1, 1024)
        degraded = select_algorithm(
            table, "bcast", "lumi", 16, 1, 1024, faults=SPEC.label
        )
        # both sub-tables answer; each from its own scenario's records
        best = {}
        for scenario in ("none", SPEC.label):
            own = [r for r in records if r.faults == scenario]
            best[scenario] = min(
                own, key=lambda r: (r.time, r.algorithm)
            ).algorithm
        assert pristine == best["none"]
        assert degraded == best[SPEC.label]
        with pytest.raises(TuneQueryError, match="no sub-table"):
            select_algorithm(
                table, "bcast", "lumi", 16, 1, 1024, faults="links9-seed9"
            )


class TestRecordCompat:
    def test_from_dict_defaults_faults(self):
        d = {
            "system": "lumi", "collective": "bcast", "algorithm": "bine",
            "family": "bine", "p": 16, "n_bytes": 32, "time": 1e-6,
            "global_bytes": 64.0,
        }
        assert SweepRecord.from_dict(d).faults == "none"

    def test_old_baseline_rows_load(self):
        from repro.report.diff import record_set_from_json

        rows = [{
            "system": "lumi", "collective": "bcast", "algorithm": "bine",
            "family": "bine", "p": 16, "n_bytes": 32, "time": 1e-6,
            "global_bytes": 64.0,
        }]
        rs = record_set_from_json(rows, "old")
        assert rs.kind == "sweep"
        (rec,) = rs.to_records()
        assert rec.faults == "none"


MANIFEST = {
    "campaign": {"name": "t", "system": "lumi"},
    "grid": [{"collectives": ["bcast"], "node_counts": [16],
              "vector_bytes": [1024]}],
}


class TestManifestFaults:
    def test_faults_parsed_and_round_tripped(self):
        data = dict(MANIFEST)
        data["faults"] = [{}, {"failed_links": 2, "seed": 13,
                               "derate": {"global": 0.5}}]
        m = manifest_from_dict(data)
        assert [s.label for s in m.faults] == \
            ["none", "links2-globalx0.5-seed13"]
        again = manifest_from_dict(manifest_to_dict(m))
        assert again.faults == m.faults

    def test_bad_fault_table_is_manifest_error(self):
        data = dict(MANIFEST)
        data["faults"] = [{"failed_links": "two"}]
        with pytest.raises(ManifestError, match=r"\[\[faults\]\] #0"):
            manifest_from_dict(data)

    def test_duplicate_labels_rejected(self):
        data = dict(MANIFEST)
        data["faults"] = [{"failed_links": 1}, {"failed_links": 1}]
        with pytest.raises(ManifestError, match="duplicate"):
            manifest_from_dict(data)

    def test_faults_with_torus_grid_rejected(self):
        data = {
            "campaign": {"name": "t", "system": "fugaku"},
            "grid": [{"collectives": ["bcast"], "torus_dims": [2, 2],
                      "vector_bytes": [1024]}],
            "faults": [{"failed_links": 1}],
        }
        with pytest.raises(ManifestError, match="torus"):
            manifest_from_dict(data)

    def test_campaign_runs_scenarios(self):
        from repro.cli.campaign import run_campaign

        data = dict(MANIFEST)
        data["faults"] = [{}, {"failed_links": 2, "seed": 13}]
        result = run_campaign(manifest_from_dict(data))
        labels = {r.faults for r in result.records}
        assert labels == {"none", "links2-seed13"}

    def test_cli_faults_override_manifest(self):
        from repro.cli.campaign import run_campaign

        data = dict(MANIFEST)
        data["faults"] = [{"failed_links": 1}]
        result = run_campaign(
            manifest_from_dict(data),
            faults=(FaultSpec(seed=13, failed_links=3),),
        )
        assert {r.faults for r in result.records} == {"links3-seed13"}

    def test_explicit_cache_incompatible_with_scenarios(self):
        from repro.cli.campaign import run_campaign

        data = dict(MANIFEST)
        data["faults"] = [{"failed_links": 1}]
        cache = ProfileCache(lumi())
        with pytest.raises(ValueError, match="explicit cache"):
            run_campaign(manifest_from_dict(data), cache=cache)
