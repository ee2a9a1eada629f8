"""Fault timelines and the discrete-event fabric engine (DES).

* Grammar properties (seeded, ``tests/strategies.py``): canonical labels
  round-trip (``FaultTimeline.parse(tl.label) == tl``), event order never
  matters, duplicate event times are rejected, invalid events fail loudly.
* Calibration contract: with an empty timeline the DES engine's sweep
  records are **exactly** equal — bit for bit — to the compiled analytic
  engine's, on both the calm fast path and the forced event-loop path.
* Determinism: timeline runs reproduce across processes-worth of reruns,
  and parallel sharding is byte-identical to serial.
* Partition semantics: a timeline that cuts off in-flight flows yields
  structured ``stalled=True`` records and CLI exit code 8 — never a hang
  or a traceback.
* Satellites: a derate that underflows link width to zero is rejected as
  a :class:`FaultSpecError` (not a silent ``inf``), and disk-cache
  corruption recovery warns once per corrupt file per process.
"""

from __future__ import annotations

import dataclasses
import json
import warnings

import pytest
from strategies import rng_for, timeline

from repro.analysis.sweep import (
    _CACHE_MAGIC,
    ProfileCache,
    clear_memo_caches,
    sweep_system,
)
from repro.cli.formatters import records_json
from repro.cli.main import main
from repro.cli.manifest import ManifestError, manifest_from_dict, manifest_to_dict
from repro.collectives.registry import spec_for
from repro.des import simulate_profile
from repro.faults import FaultSpec, FaultTimeline, TimelineEvent
from repro.model.compiled import transfer_table_for
from repro.runtime.errors import DESEngineError, FaultSpecError
from repro.systems import lumi


class TestTimelineGrammar:
    def test_label_round_trip(self):
        for seed in range(60):
            tl = timeline(rng_for(seed))
            assert FaultTimeline.parse(tl.label) == tl
            assert FaultTimeline.parse(tl.label).label == tl.label

    def test_order_invariance(self):
        for seed in range(30):
            rng = rng_for(1000 + seed)
            tl = timeline(rng, max_events=5)
            events = list(tl.events)
            rng.shuffle(events)
            assert FaultTimeline(tuple(events)) == tl
            assert FaultTimeline(tuple(events)).label == tl.label

    def test_empty_timeline(self):
        assert FaultTimeline().label == "none"
        assert FaultTimeline.parse("none").is_null
        assert FaultTimeline.parse("").is_null

    def test_duplicate_at_rejected(self):
        with pytest.raises(FaultSpecError, match="duplicate"):
            FaultTimeline((TimelineEvent(at=0.01, links=1),
                           TimelineEvent(at=0.01, heal="links")))
        with pytest.raises(FaultSpecError, match="duplicate"):
            FaultTimeline.parse("at=0.01:links=1;at=0.01:heal=links")

    def test_invalid_events_rejected(self):
        cases = {
            "at=-1:links=1": "finite and >= 0",
            "at=0.01:heal=links,links=1": "heal events carry no",
            "at=0.01:": "does nothing",
            "at=0.01:heal=bogus": "unknown",
            "at=0.01:background=1.5": r"in \[0, 1\)",
            "at=0.01:local=0": r"in \(0, 1\]",
            "bogus": "expected 'at=",
            "at=0.01:wat=1": "unknown field",
        }
        for text, match in cases.items():
            with pytest.raises(FaultSpecError, match=match):
                FaultTimeline.parse(text)

    def test_fault_spec_composition(self):
        static = FaultSpec.parse("links=2,seed=13")
        tl = FaultTimeline.parse("at=0.001:links=1,seed=7;at=0.01:heal=links")
        timed = dataclasses.replace(static, timeline=tl)
        # the static label keys caches/records; the timeline has its own
        assert timed.label == static.label
        assert timed.timeline_label == tl.label
        assert not timed.is_null and timed.has_static
        assert FaultSpec.from_dict(timed.to_dict()) == timed
        only = FaultSpec(timeline=tl)
        assert only.label == "none"
        assert not only.is_null and not only.has_static
        assert FaultSpec.from_dict(only.to_dict()) == only


#: the three-collective LUMI calibration grid asserted by the contract
CALIBRATION_GRID = dict(
    collectives=("allgather", "allreduce", "bcast"),
    node_counts=(16, 64),
    vector_bytes=(1024, 16777216),
)


class TestCalibration:
    def test_des_records_exactly_equal_compiled(self):
        compiled = sweep_system(lumi(), **CALIBRATION_GRID)
        des = sweep_system(
            lumi(), cache=ProfileCache(lumi(), profile_engine="des"),
            **CALIBRATION_GRID,
        )
        assert compiled  # a vacuous grid would prove nothing
        assert des == compiled

    def test_event_loop_exactly_equals_fast_path(self):
        preset = lumi()
        cache = ProfileCache(preset, profile_engine="des")
        spec = spec_for("bcast", "bine")
        profile = cache.get(spec, 16)
        table = transfer_table_for(spec, 16)
        mapping = cache.mapping_for(16, 1)
        for nb in (1024, 65536, 16777216):
            n_elems = nb / preset.params.itemsize
            args = (table, profile, cache.topo, mapping, preset.params,
                    FaultTimeline(), n_elems)
            fast = simulate_profile(*args)
            slow = simulate_profile(*args, force_event_loop=True)
            assert not fast.stalled and not slow.stalled
            assert slow.time == fast.time


#: background traffic claims half of *every* link for a window — perturbs
#: any in-flight flow on the grid, never stalls
PERTURB_TIMELINE = "at=0.0005:background=0.5;at=0.01:heal=background"


class TestTimelineDeterminism:
    def _sweep(self, tl: str | None, workers: int | None = None):
        # the 16 MiB size keeps flows in flight past the first event time,
        # so the timeline demonstrably perturbs part of the grid
        return sweep_system(
            lumi(), ("allgather", "bcast"), node_counts=(16, 64),
            vector_bytes=(1024, 16777216),
            faults=FaultSpec(timeline=tl) if tl else None, workers=workers,
        )

    def test_reruns_and_parallel_shards_byte_identical(self):
        serial = self._sweep(PERTURB_TIMELINE)
        clear_memo_caches()
        assert self._sweep(PERTURB_TIMELINE) == serial
        clear_memo_caches()
        parallel = self._sweep(PERTURB_TIMELINE, workers=2)
        assert parallel == serial
        assert records_json(parallel) == records_json(serial)

    def test_timeline_perturbs_and_labels_records(self):
        calm = self._sweep(None)
        perturbed = self._sweep(PERTURB_TIMELINE)
        label = FaultTimeline.parse(PERTURB_TIMELINE).label
        assert all(r.timeline == label for r in perturbed)
        assert all(not r.stalled for r in perturbed)
        assert all(r.faults == "none" for r in perturbed)  # static label
        # the contention window actually slows something down somewhere on
        # the grid — a timeline that never perturbs would be a silent no-op
        assert any(a.time > b.time for a, b in zip(perturbed, calm))

    def test_link_failure_genuinely_reroutes(self):
        # the p=64 scheduler mapping spans exactly two groups and routes
        # every inter-group byte over one global bundle; seed 54 samples
        # that bundle as a victim, so the flows must detour (through a
        # third group's representative) instead of merely re-timing
        grid = dict(collectives=("allgather",), algorithms=("bine-send",),
                    node_counts=(64,), vector_bytes=(16777216,))
        calm = sweep_system(lumi(), **grid)
        hit = sweep_system(
            lumi(), faults=FaultSpec(timeline="at=1e-05:links=2,seed=54"),
            **grid)
        (calm_rec,), (hit_rec,) = calm, hit
        assert not hit_rec.stalled
        assert hit_rec.time > 1.5 * calm_rec.time  # measured ~1.8x


#: LUMI has 2976 nodes; killing 2970 must hit any 16-node mapping
STALL_TIMELINE = "at=1e-09:nodes=2970,seed=1"


class TestPartitionStall:
    def test_cli_emits_stalled_records_and_exits_8(self, tmp_path, capsys):
        out = tmp_path / "records.json"
        with pytest.warns(RuntimeWarning, match="stalled under timeline"):
            code = main(["sweep", "--system", "lumi", "--collective", "bcast",
                         "--nodes", "16", "--sizes", "1024",
                         "--timeline", STALL_TIMELINE,
                         "--format", "json", "--output", str(out)])
        assert code == 8
        assert "stalled" in capsys.readouterr().err
        rows = json.loads(out.read_text())  # records still fully emitted
        assert rows and all(row["stalled"] for row in rows)
        expected = FaultTimeline.parse(STALL_TIMELINE).label
        assert all(row["timeline"] == expected for row in rows)

    def test_timeline_on_analytic_cell_exits_8(self, capsys):
        code = main(["sweep", "--system", "lumi", "--collective", "alltoall",
                     "--nodes", "16", "--sizes", "1024",
                     "--timeline", "at=0.001:links=1"])
        assert code == 8
        assert "DESEngineError" in capsys.readouterr().err

    def test_analytic_cells_reject_timelines(self):
        # alltoall is always analytic: no lowered transfer program to replay
        with pytest.raises(DESEngineError, match="analytic"):
            sweep_system(lumi(), ("alltoall",), node_counts=(16,),
                         vector_bytes=(1024,),
                         faults=FaultSpec(timeline="at=0.001:links=1"))

    def test_ring_replays_timelines_above_128_ranks(self):
        # the ring table's repeated step row replays once per step, so a
        # ring cell has a transfer program at any p; calm, the replay
        # still equals the compiled engine exactly
        grid = dict(collectives=("allgather",), node_counts=(256,),
                    vector_bytes=(1024, 16777216), algorithms=("ring",))
        tl = FaultTimeline.parse(PERTURB_TIMELINE)
        records = sweep_system(lumi(), faults=FaultSpec(timeline=tl), **grid)
        assert [(r.algorithm, r.p) for r in records] == [("ring", 256)] * 2
        assert all(r.timeline == tl.label and not r.stalled for r in records)
        des = ProfileCache(lumi(), profile_engine="des")
        assert sweep_system(lumi(), cache=des, **grid) == sweep_system(
            lumi(), **grid
        )

    def test_bad_timeline_exits_3(self, capsys):
        code = main(["sweep", "--system", "lumi", "--collective", "bcast",
                     "--nodes", "16", "--sizes", "1024",
                     "--timeline", "at=0.01:wat=1"])
        assert code == 3
        assert "FaultSpecError" in capsys.readouterr().err


class TestDerivedEngine:
    """The fault timeline picks the profile engine; nothing above it does."""

    BASE = {
        "campaign": {"name": "t", "system": "lumi"},
        "grid": [{"collectives": ["bcast"], "node_counts": [16],
                  "vector_bytes": [1024]}],
    }

    def test_profile_cache_derives_engine_from_timeline(self):
        assert ProfileCache(lumi()).engine == "compiled"
        timed = FaultSpec(timeline="at=0.001:links=1")
        assert ProfileCache(lumi(), faults=timed).engine == "des"
        static = FaultSpec(failed_links=1, seed=13)
        assert ProfileCache(lumi(), faults=static).engine == "compiled"

    def test_explicit_override(self):
        # "des" on a calm fabric is the calibration hook
        assert ProfileCache(lumi(), profile_engine="des").engine == "des"
        with pytest.raises(DESEngineError, match="timeline"):
            ProfileCache(lumi(), profile_engine="compiled",
                         faults=FaultSpec(timeline="at=0.001:links=1"))

    def test_timeline_scenario_needs_no_engine_key(self):
        data = json.loads(json.dumps(self.BASE))
        data["faults"] = [{"timeline": "at=0.001:links=1"}]
        m = manifest_from_dict(data)
        assert m.faults[0].timeline_label == "at=0.001:links=1"
        assert "engine" not in manifest_to_dict(m)["campaign"]
        assert manifest_from_dict(manifest_to_dict(m)) == m

    def test_engine_key_is_unknown(self):
        data = json.loads(json.dumps(self.BASE))
        data["campaign"]["engine"] = "des"
        with pytest.raises(ManifestError, match="engine"):
            manifest_from_dict(data)


class TestZeroWidthDerate:
    def test_underflowing_derate_rejected_not_inf(self):
        # 5e-324 (the smallest denormal) times the 0.5 NIC derate rounds
        # to exactly 0.0; a zero-width link used to turn every load it
        # carried into a silent divide-to-inf record
        from repro.faults import DegradedTopology, _group_members

        spec = FaultSpec.parse("nics=1,local=5e-324,seed=1")
        deg = DegradedTopology(lumi().build_topology(), spec)
        victim = sorted(deg.nic_outages)[0]
        peer = next(
            w for w in _group_members(deg.inner)[deg.group_of(victim)]
            if w != victim
        )
        with pytest.raises(FaultSpecError, match="underflow"):
            deg.route(victim, peer)


class TestCorruptionWarningDedupe:
    KWARGS = dict(collectives=("allgather",), node_counts=(16,),
                  vector_bytes=(1024,))

    def _corrupt(self, disk):
        entries = sorted(disk.rglob("*.pkl"))
        assert entries
        for f in entries:
            blob = f.read_bytes()
            f.write_bytes(blob[: max(len(_CACHE_MAGIC) + 8, len(blob) // 2)])
        return entries

    def test_one_warning_per_corrupt_file_per_process(self, tmp_path):
        disk = tmp_path / "cache"
        cold = sweep_system(lumi(), disk_dir=disk, **self.KWARGS)
        entries = self._corrupt(disk)
        with warnings.catch_warnings(record=True) as first:
            warnings.simplefilter("always")
            assert sweep_system(lumi(), disk_dir=disk, **self.KWARGS) == cold
        assert sum(
            "truncated" in str(w.message) for w in first
        ) == len(entries)
        # same files corrupted again: this process already warned for them
        self._corrupt(disk)
        with warnings.catch_warnings(record=True) as second:
            warnings.simplefilter("always")
            assert sweep_system(lumi(), disk_dir=disk, **self.KWARGS) == cold
        assert not [w for w in second if "truncated" in str(w.message)]
