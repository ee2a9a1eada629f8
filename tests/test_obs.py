"""Telemetry is a pure sidecar: tracing never changes a single byte.

The contract under test (see ``docs/observability.md``):

* **Purity** — records, baseline checks and tune digests are identical
  with tracing on or off, including under ``--workers 2`` and the DES
  engine with a fault timeline.
* **Soundness** — every emitted trace passes the documented schema
  (``validate_trace``): names/phases/pids present, ``B``/``E`` spans
  balanced per track, shard events merged with their own pids.
* **Coverage** — a traced Table 3 campaign contains spans from at least
  six subsystems, and DES traces carry reroute/stall/link-busy events.
* **Metrics** — counters live in the memo-cache registry (cleared by
  ``clear_memo_caches``), ``repro stats --caches`` lists every
  registered cache, and a campaign warns exactly once when worker
  shards fall back to serial (direct ``sweep_system`` keeps warning
  every time).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro import obs
from repro.analysis.sweep import (
    clear_memo_caches,
    memo_cache_registry,
    memo_cache_sizes,
    sweep_system,
)
from repro.cli.campaign import run_campaign
from repro.cli.formatters import trace_stats_text
from repro.cli.main import main
from repro.cli.manifest import manifest_from_dict
from repro.faults import FaultSpec
from repro.systems import fugaku, lumi
from repro.tune import build_decision_table

REPO_ROOT = Path(__file__).resolve().parent.parent

#: a grid with enough cells to shard across two workers
SHARD_KWARGS = dict(
    collectives=("allgather",),
    node_counts=(8, 16),
    vector_bytes=(1024, 65536),
)

#: the p=64 link-failure scenario from test_timeline: seed 54 kills the
#: one global bundle the mapping routes over, forcing genuine detours
REROUTE_GRID = dict(
    collectives=("allgather",),
    algorithms=("bine-send",),
    node_counts=(64,),
    vector_bytes=(16777216,),
)
REROUTE_TIMELINE = "at=1e-05:links=2,seed=54"

#: kills all but 6 of LUMI's nodes — every flow on a 16-node grid stalls
STALL_TIMELINE = "at=1e-09:nodes=2970,seed=1"


class TestSpanApi:
    def test_disabled_is_shared_noop(self):
        assert not obs.tracing_enabled()
        sp = obs.span("x.thing", p=8)
        assert sp is obs.span("y.other")  # one object, zero allocation
        with sp:
            sp.set(result=1)
        obs.instant("x.marker", step=3)
        obs.counter_event("x.counter", {"v": 1.0})

    def test_in_memory_session_is_balanced(self):
        obs.begin_session(None)
        try:
            with obs.span("outer.work", p=4) as sp:
                with obs.span("inner.step"):
                    obs.instant("inner.mark")
                sp.set(cells=2)
            obs.counter_event("outer.gauge", {"v": 1.5})
        finally:
            trace_doc, stats_doc = obs.end_session()
        assert not obs.tracing_enabled()
        assert obs.validate_trace(trace_doc) == []
        spans = stats_doc["spans"]
        assert spans["outer.work"]["count"] == 1
        assert spans["inner.step"]["count"] == 1
        ends = [
            e for e in trace_doc["traceEvents"]
            if e["name"] == "outer.work" and e["ph"] == "E"
        ]
        assert ends[0]["args"] == {"cells": 2}  # .set() lands on the E event

    def test_double_begin_and_bare_end_rejected(self):
        obs.begin_session(None)
        try:
            with pytest.raises(RuntimeError, match="already active"):
                obs.begin_session(None)
        finally:
            obs.end_session()
        with pytest.raises(RuntimeError, match="no active"):
            obs.end_session()


class TestSpanAggregates:
    @staticmethod
    def _event(name, ph, ts, tid):
        return {"name": name, "ph": ph, "ts": ts, "pid": 1, "tid": tid}

    def test_self_time_subtracts_direct_children_per_track(self):
        ev = self._event
        events = [
            ev("outer", "B", 0.0, 1),
            ev("outer", "B", 1.0, 2),  # the same name on a second track
            ev("mid", "B", 2.0, 1),
            ev("leaf", "B", 3.0, 1),
            ev("leaf", "E", 5.0, 1),
            {"name": "mark", "ph": "i", "ts": 5.5, "pid": 1, "tid": 1, "s": "t"},
            ev("leaf", "B", 6.0, 1),
            ev("leaf", "E", 7.0, 1),
            ev("mid", "E", 9.0, 1),
            ev("leaf", "B", 4.0, 2),   # track 2 interleaves in time
            ev("leaf", "E", 8.0, 2),
            ev("stray", "E", 8.5, 2),  # unmatched: skipped
            ev("outer", "E", 10.0, 2),
            ev("outer", "E", 20.0, 1),
        ]
        aggs = obs.span_aggregates(events)
        # track 1: outer 20 with child mid 7; mid 7 with leaves 2 + 1;
        # track 2: outer 9 with child leaf 4; grandchildren never count
        assert aggs == {
            "leaf": {"count": 3, "total_us": 7.0, "self_us": 7.0},
            "mid": {"count": 1, "total_us": 7.0, "self_us": 4.0},
            "outer": {"count": 2, "total_us": 29.0, "self_us": 18.0},
        }
        text = trace_stats_text({"events": len(events), "spans": aggs})
        assert text.splitlines()[-3:] == [
            "  leaf       3      0.01ms      0.01ms",
            "  mid        1      0.01ms      0.00ms",
            "  outer      2      0.03ms      0.02ms",
        ]


class TestMetricsRegistry:
    def test_metrics_registered_and_cleared_with_caches(self):
        assert "obs.metrics" in memo_cache_registry()
        obs.inc("test.counter")
        obs.set_gauge("test.gauge", 2.0)
        assert memo_cache_sizes()["obs.metrics"] >= 2
        clear_memo_caches()
        assert memo_cache_sizes()["obs.metrics"] == 0
        assert obs.counters() == {}
        assert obs.gauges() == {}

    def test_stats_caches_lists_every_registered_cache(self, capsys):
        assert main(["stats", "--caches"]) == 0
        out = capsys.readouterr().out
        for name in memo_cache_registry():
            assert name in out
        data = None
        assert main(["stats", "--caches", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == set(memo_cache_registry())

    def test_cache_hit_and_miss_counters(self):
        from repro.analysis.sweep import ProfileCache

        clear_memo_caches()
        preset = lumi()
        cache = ProfileCache(preset)
        kwargs = dict(
            collectives=("bcast",), node_counts=(16,), vector_bytes=(1024,)
        )
        obs.begin_session(None)
        try:
            sweep_system(preset, cache=cache, **kwargs)
            sweep_system(preset, cache=cache, **kwargs)  # all warm
        finally:
            _, stats_doc = obs.end_session()
        counters = stats_doc["counters"]
        assert counters["cache.profile.miss"] >= 1
        assert counters["cache.profile.hit"] >= 1
        assert counters["cache.table.miss"] >= 1

    def test_fresh_process_stats_caches_lists_every_cache(self):
        # caches self-register on import; the CLI imports neither the DES
        # records nor the tune server, so --caches must load them itself
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "stats", "--caches", "--format", "json"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        assert set(json.loads(proc.stdout)) == {
            "negabinary.rank_to_nb_table",
            "bine_tree._nu_table",
            "bine_tree._nu_inverse_table",
            "common._pi_table",
            "common._pi_inv_table",
            "torus.torus_algorithms",
            "verify._PATTERN_CACHE",
            "compiled._TABLE_CACHE",
            "tune.serve._SERVE_CACHE",
            "des.records._SIM_CACHE",
            "obs.metrics",
        }

    def test_caches_does_not_combine_with_file(self, capsys):
        assert main(["stats", "--caches", "some.json"]) == 2
        assert "does not combine" in capsys.readouterr().err


class TestTable3TraceIdentity:
    """Satellite 3 + the acceptance scenario, in one (heavy) test."""

    def test_traced_campaign_byte_identical(self, tmp_path, capsys):
        manifest = str(REPO_ROOT / "campaigns" / "table3_lumi.toml")
        plain = tmp_path / "plain.json"
        traced = tmp_path / "traced.json"
        trace = tmp_path / "run.trace.json"
        assert main(["campaign", manifest, "--format", "json",
                     "--output", str(plain)]) == 0
        clear_memo_caches()  # cold traced run: schedule builds re-traced
        assert main(["campaign", manifest, "--format", "json",
                     "--output", str(traced), "--trace", str(trace)]) == 0
        assert traced.read_bytes() == plain.read_bytes()

        # the committed baseline accepts the traced run's records
        assert main(["compare",
                     str(REPO_ROOT / "campaigns/baselines/table3_lumi.json"),
                     str(traced)]) == 0

        # tune artifact bytes (digest included) are trace-independent
        from repro.report.diff import load_record_set

        records = load_record_set(str(plain)).to_records()
        table_plain = build_decision_table(records, name="t3", source="test")
        with obs.trace_session(None):
            table_traced = build_decision_table(
                records, name="t3", source="test"
            )
        assert table_traced.to_json() == table_plain.to_json()

        # trace soundness + subsystem coverage
        doc = json.loads(trace.read_text())
        assert obs.validate_trace(doc) == []
        cats = {e.get("cat") for e in doc["traceEvents"] if e.get("cat")}
        assert {"campaign", "sweep", "evaluate", "profile",
                "schedule", "cache"} <= cats

        # the sidecar reports cache hit/miss counts through `repro stats`
        sidecar = obs.sidecar_path(trace)
        counters = json.loads(sidecar.read_text())["counters"]
        assert counters["cache.profile.miss"] > 0
        assert counters["profile.built"] > 0
        capsys.readouterr()
        assert main(["stats", str(sidecar)]) == 0
        out = capsys.readouterr().out
        assert "cache.profile.miss" in out
        assert main(["stats", str(trace), "--validate"]) == 0


class TestWorkersTraced:
    def test_parallel_traced_identical_and_shard_tagged(self, tmp_path):
        serial = sweep_system(lumi(), **SHARD_KWARGS)
        clear_memo_caches()
        trace = tmp_path / "w2.trace.json"
        with obs.trace_session(trace):
            parallel = sweep_system(lumi(), workers=2, **SHARD_KWARGS)
        assert parallel == serial
        doc = json.loads(trace.read_text())
        assert obs.validate_trace(doc) == []
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert len(pids) >= 2  # parent + at least one worker shard
        assert any(e["name"] == "shard.run" and e["ph"] == "B"
                   for e in doc["traceEvents"])
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M"}
        assert "repro" in names
        assert any(n.startswith("repro shard") for n in names)
        # shard metric deltas were folded into the session counters
        counters = json.loads(obs.sidecar_path(trace).read_text())["counters"]
        assert counters["profile.built"] >= 1


class TestDesTraced:
    def test_des_reroute_timeline_traced_identical(self, tmp_path):
        faults = FaultSpec(timeline=REROUTE_TIMELINE)
        plain = sweep_system(lumi(), faults=faults, **REROUTE_GRID)
        clear_memo_caches()
        trace = tmp_path / "des.trace.json"
        with obs.trace_session(trace):
            traced = sweep_system(lumi(), faults=faults, **REROUTE_GRID)
        assert traced == plain
        doc = json.loads(trace.read_text())
        assert obs.validate_trace(doc) == []
        names = {e["name"] for e in doc["traceEvents"]}
        assert "des.simulate" in names
        cells = {
            (e["args"]["collective"], e["args"]["algorithm"], e["args"]["p"])
            for e in doc["traceEvents"]
            if e["name"] == "des.simulate" and e["ph"] == "B"
        }
        assert cells == {("allgather", "bine-send", 64)}  # the REROUTE_GRID cell
        assert "des.reroute" in names  # flows genuinely detoured
        assert "des.link_busy" in names  # per-link busy-time samples
        counters = json.loads(obs.sidecar_path(trace).read_text())["counters"]
        assert counters["des.reroutes"] >= 1
        assert counters["des.events"] > 0

    def test_des_stalls_are_counted_and_marked(self):
        faults = FaultSpec(timeline=STALL_TIMELINE)
        obs.begin_session(None)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                records = sweep_system(
                    lumi(), ("bcast",), node_counts=(16,),
                    vector_bytes=(1024,), faults=faults,
                )
        finally:
            trace_doc, stats_doc = obs.end_session()
        assert all(r.stalled for r in records)
        assert stats_doc["counters"]["des.stalls"] > 0
        assert "des.stall" in {e["name"] for e in trace_doc["traceEvents"]}


class TestTorusTraced:
    def test_torus_sweep_opens_table_profile_and_evaluate_spans(self):
        """A torus sweep attributes its time like a plan-backed registry
        sweep: one ``schedule.table``, ``profile.table`` and
        ``evaluate.grid`` span per catalog entry, tagged with collective,
        algorithm and p, and tracing changes no record byte."""
        grid = dict(collectives=("bcast", "allreduce"), torus_dims=(2, 2),
                    vector_bytes=(1024,))
        clear_memo_caches()
        plain = sweep_system(fugaku(), **grid)
        clear_memo_caches()  # cold traced run: tables re-rendered
        obs.begin_session(None)
        try:
            traced = sweep_system(fugaku(), **grid)
        finally:
            trace_doc, _ = obs.end_session()
        assert json.dumps([r.to_dict() for r in traced]) == json.dumps(
            [r.to_dict() for r in plain]
        )
        assert obs.validate_trace(trace_doc) == []
        entries = {(r.collective, r.algorithm, r.p) for r in plain}
        assert len(entries) == 9
        for name in ("schedule.table", "profile.table", "evaluate.grid"):
            spans = [
                (e["args"]["collective"], e["args"]["algorithm"], e["args"]["p"])
                for e in trace_doc["traceEvents"]
                if e["name"] == name and e["ph"] == "B"
            ]
            assert sorted(spans) == sorted(entries), name


class TestShardFallbackWarnOnce:
    """Satellite 2: one warning per campaign, not one per grid."""

    CRASHY = {
        "campaign": {"name": "crashy", "system": "lumi"},
        "grid": [
            {"collectives": ["allgather"], "node_counts": [8, 16],
             "vector_bytes": [1024, 65536]},
            {"collectives": ["bcast"], "node_counts": [8, 16],
             "vector_bytes": [1024, 65536]},
        ],
    }

    def test_campaign_warns_once_across_grids(self, monkeypatch):
        manifest = manifest_from_dict(self.CRASHY)
        serial = run_campaign(manifest)
        monkeypatch.setenv("REPRO_TEST_CRASH_SHARD", "1")
        obs.reset()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_campaign(manifest, workers=2)
        fallback = [w for w in caught
                    if "crashed or timed out" in str(w.message)]
        assert len(fallback) == 1  # both grids fell back; one warning
        assert obs.counters()["shard.fallback_serial"] >= 2
        assert result.records == serial.records

    def test_direct_sweep_still_warns_every_time(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_CRASH_SHARD", "1")
        for _ in range(2):
            with pytest.warns(RuntimeWarning, match="crashed or timed out"):
                sweep_system(lumi(), workers=2, **SHARD_KWARGS)


class TestStatsCli:
    def test_validate_flags_corrupt_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace.json"
        bad.write_text(json.dumps({"traceEvents": [
            {"name": "a", "ph": "B", "ts": 0.0, "pid": 1, "tid": 1},
            {"name": "b", "ph": "E", "ts": 1.0, "pid": 1, "tid": 1},
        ]}))
        assert main(["stats", str(bad), "--validate"]) == 1
        assert "schema violation" in capsys.readouterr().err

    def test_validate_accepts_sound_trace(self, tmp_path, capsys):
        good = tmp_path / "good.trace.json"
        good.write_text(json.dumps({"traceEvents": [
            {"name": "a", "ph": "B", "ts": 0.0, "pid": 1, "tid": 1},
            {"name": "a", "ph": "E", "ts": 1.0, "pid": 1, "tid": 1},
        ]}))
        assert main(["stats", str(good), "--validate"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_usage_errors_exit_2(self, tmp_path, capsys):
        assert main(["stats"]) == 2
        assert main(["stats", str(tmp_path / "missing.json")]) == 2
        garbage = tmp_path / "garbage.json"
        garbage.write_text("not json")
        assert main(["stats", str(garbage)]) == 2
        sidecar = tmp_path / "x.stats.json"
        sidecar.write_text(json.dumps({"schema": "repro/trace-stats",
                                       "counters": {}, "spans": {}}))
        assert main(["stats", str(sidecar), "--validate"]) == 2
        capsys.readouterr()

    def test_env_var_traces_any_traceable_command(self, tmp_path,
                                                  monkeypatch, capsys):
        trace = tmp_path / "env.trace.json"
        monkeypatch.setenv(obs.TRACE_ENV, str(trace))
        assert main(["verify", "--quick", "--collective", "bcast",
                     "--algorithm", "bine", "--format", "summary"]) == 0
        capsys.readouterr()
        doc = json.loads(trace.read_text())
        assert obs.validate_trace(doc) == []
        assert any(e.get("name") == "verify.cell"
                   for e in doc["traceEvents"])
        # commands without the --trace knob never start a session
        monkeypatch.setenv(obs.TRACE_ENV, str(tmp_path / "never.json"))
        assert main(["stats", str(trace)]) == 0
        assert not (tmp_path / "never.json").exists()
        capsys.readouterr()
