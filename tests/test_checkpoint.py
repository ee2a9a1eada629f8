"""Crash-safe campaigns: journal format, resume identity, drain, chaos.

The contract under test (ISSUE 10 / docs/robustness.md): a campaign
interrupted at any cell boundary — SIGKILL via the chaos harness, or a
graceful SIGINT/SIGTERM drain — and then resumed with ``--resume``
produces records, summaries, and tune-table digests **byte-identical**
to an uninterrupted run, across serial/parallel execution, the compiled
and DES engines, torus grids, and fault scenarios.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.checkpoint import (
    JOURNAL_SCHEMA,
    CampaignJournal,
    JournalWriter,
    journal_path,
    manifest_digest,
    read_journal,
    summarize_journal,
)
from repro.checkpoint.journal import JOURNAL_VERSION
from repro.cli.campaign import run_campaign
from repro.cli.main import main
from repro.cli.manifest import manifest_from_dict
from repro.faults import FaultSpec
from repro.runtime.errors import InterruptedRunError, JournalError

REPO_ROOT = Path(__file__).resolve().parent.parent

TINY_MANIFEST = {
    "campaign": {"name": "tiny", "system": "lumi"},
    "grid": [{
        "collectives": ["bcast", "allgather"],
        "node_counts": [8, 16],
        "vector_bytes": [1024, 65536],
    }],
    "summary": {"family": "bine", "baseline": "binomial"},
}

TINY_TOML = """
[campaign]
name = "tiny"
system = "lumi"

[[grid]]
collectives = ["bcast", "allgather"]
node_counts = [8, 16]
vector_bytes = [1024, 65536]

[summary]
family = "bine"
baseline = "binomial"
"""

FAULTS_TOML = TINY_TOML + """
[[faults]]

[[faults]]
failed_links = 1
seed = 13
"""

DES_TOML = """
[campaign]
name = "tiny-des"
system = "lumi"

[[grid]]
collectives = ["bcast", "allgather"]
node_counts = [8, 16]
vector_bytes = [1024, 65536]

[[faults]]
timeline = "at=0.001:links=2,seed=5;at=0.01:heal=links"
"""


#: torus grids need the torus preset (and block placement), so the
#: registry grid of this campaign runs on Fugaku too
TORUS_MANIFEST = {
    "campaign": {"name": "tiny-torus", "system": "fugaku",
                 "placement": "block"},
    "grid": [
        {"collectives": ["bcast"], "node_counts": [8],
         "vector_bytes": [1024, 65536]},
        {"collectives": ["allreduce", "bcast"], "torus_dims": [2, 2],
         "vector_bytes": [1024, 65536]},
        {"collectives": ["allreduce", "bcast"], "torus_dims": [2, 2, 2],
         "vector_bytes": [1024, 65536]},
    ],
}


def tiny_manifest():
    return manifest_from_dict(TINY_MANIFEST)


def torus_manifest():
    return manifest_from_dict(TORUS_MANIFEST)


def record_dicts(result):
    return [r.to_dict() for r in result.records]


def record_bytes(result):
    return json.dumps(record_dicts(result)).encode()


# -- journal file format -----------------------------------------------------


class TestJournalFormat:
    def _header(self):
        return {"kind": "header", "schema": JOURNAL_SCHEMA,
                "version": JOURNAL_VERSION}

    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.journal"
        with JournalWriter(path, self._header()) as w:
            w.append({"kind": "cell", "collective": "bcast", "p": 16,
                      "records": []})
        doc = read_journal(path)
        assert doc.header["schema"] == JOURNAL_SCHEMA
        assert doc.entries[0]["collective"] == "bcast"
        assert not doc.truncated

    def test_torn_tail_dropped_and_repaired(self, tmp_path):
        path = tmp_path / "t.journal"
        with JournalWriter(path, self._header()) as w:
            w.append({"kind": "cell", "p": 8})
        sound = path.read_bytes()
        # a crash mid-flush leaves a partial line (no trailing newline)
        path.write_bytes(sound + b'0badc0de {"kind": "cel')
        doc = read_journal(path)
        assert doc.truncated and len(doc.entries) == 1
        assert path.read_bytes() != sound  # plain read never mutates
        read_journal(path, repair=True)
        assert path.read_bytes() == sound  # repair truncates the torn tail

    def test_mid_file_corruption_is_hard_error(self, tmp_path):
        path = tmp_path / "t.journal"
        with JournalWriter(path, self._header()) as w:
            w.append({"kind": "cell", "p": 8})
            w.append({"kind": "cell", "p": 16})
        blob = bytearray(path.read_bytes())
        # flip one payload byte of the middle line
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(JournalError, match="damaged, not torn"):
            read_journal(path)

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "not.journal"
        path.write_text('{"traceEvents": []}\n')
        with pytest.raises(JournalError):
            read_journal(path)

    def test_manifest_digest_tracks_campaign_identity(self):
        a = manifest_digest(tiny_manifest())
        changed = dict(TINY_MANIFEST, campaign={"name": "tiny",
                                                "system": "lumi", "seed": 8})
        b = manifest_digest(manifest_from_dict(changed))
        assert a == manifest_digest(tiny_manifest())
        assert a != b


# -- resume identity (in-process) -------------------------------------------


class TestResumeIdentity:
    def test_journaled_run_identical_to_plain(self, tmp_path):
        plain = run_campaign(tiny_manifest())
        journaled = run_campaign(tiny_manifest(), journal=tmp_path)
        assert record_dicts(journaled) == record_dicts(plain)
        assert journaled.summaries == plain.summaries

    def test_resume_from_partial_journal_identical(self, tmp_path):
        plain = run_campaign(tiny_manifest())
        run_campaign(tiny_manifest(), journal=tmp_path)
        path = journal_path(tmp_path, "tiny")
        # keep the header, the plan, and the first two of four cells
        lines = path.read_bytes().splitlines(keepends=True)
        kinds = [json.loads(l[9:]).get("kind") for l in lines]
        assert kinds.count("cell") == 4
        kept, cells = [], 0
        for line, kind in zip(lines, kinds):
            if kind == "cell":
                cells += 1
                if cells > 2:
                    continue
            kept.append(line)
        path.write_bytes(b"".join(kept))
        resumed = run_campaign(tiny_manifest(), journal=tmp_path, resume=True)
        assert record_dicts(resumed) == record_dicts(plain)
        assert resumed.summaries == plain.summaries
        assert summarize_journal(read_journal(path))["resumes"] == 1

    def test_parallel_journaled_and_resume_identical(self, tmp_path):
        plain = run_campaign(tiny_manifest())
        parallel = run_campaign(tiny_manifest(), journal=tmp_path, workers=2)
        assert record_dicts(parallel) == record_dicts(plain)
        resumed = run_campaign(tiny_manifest(), journal=tmp_path,
                               resume=True, workers=2)
        assert record_dicts(resumed) == record_dicts(plain)

    def test_tune_digest_identical_after_resume(self, tmp_path):
        from repro.tune.tables import build_decision_table

        plain = run_campaign(tiny_manifest())
        run_campaign(tiny_manifest(), journal=tmp_path)
        resumed = run_campaign(tiny_manifest(), journal=tmp_path, resume=True)
        ref = build_decision_table(plain.records, name="t", source="-")
        got = build_decision_table(resumed.records, name="t", source="-")
        assert got.records_digest == ref.records_digest
        assert got.to_dict() == ref.to_dict()

    def test_faults_scenarios_resume_identical(self, tmp_path):
        scenarios = (FaultSpec(), FaultSpec(failed_links=1, seed=13))
        plain = run_campaign(tiny_manifest(), faults=scenarios)
        run_campaign(tiny_manifest(), faults=scenarios, journal=tmp_path)
        resumed = run_campaign(tiny_manifest(), faults=scenarios,
                               journal=tmp_path, resume=True)
        assert record_dicts(resumed) == record_dicts(plain)

    def test_fresh_run_refuses_existing_journal(self, tmp_path):
        run_campaign(tiny_manifest(), journal=tmp_path)
        with pytest.raises(JournalError, match="--resume"):
            run_campaign(tiny_manifest(), journal=tmp_path)

    def test_resume_refuses_foreign_campaign(self, tmp_path):
        run_campaign(tiny_manifest(), journal=tmp_path)
        other = manifest_from_dict({
            "campaign": {"name": "tiny", "system": "lumi", "seed": 8},
            "grid": TINY_MANIFEST["grid"],
        })
        with pytest.raises(JournalError, match="manifest_digest"):
            run_campaign(other, journal=tmp_path, resume=True)

    def test_retired_engine_header_field_resumes_identical(self, tmp_path):
        # journals used to seal the profile engine in their header; one
        # written that way must still resume to the uninterrupted records
        plain = run_campaign(tiny_manifest())
        run_campaign(tiny_manifest(), journal=tmp_path)
        path = journal_path(tmp_path, "tiny")
        doc = read_journal(path)
        assert "engine" not in doc.header
        kept = [e for e in doc.entries if e["kind"] != "cell"]
        kept += [e for e in doc.entries if e["kind"] == "cell"][:2]
        path.unlink()
        with JournalWriter(path, {**doc.header, "engine": "compiled"}) as w:
            for entry in kept:
                w.append(entry)
        resumed = run_campaign(tiny_manifest(), journal=tmp_path, resume=True)
        assert record_bytes(resumed) == record_bytes(plain)
        assert resumed.summaries == plain.summaries
        summary = summarize_journal(read_journal(path))
        assert (summary["cells_done"], summary["resumes"]) == (4, 1)

    def test_checkpoint_counters(self, tmp_path):
        from repro.obs import metrics

        base = metrics.counters().get("checkpoint.journal.append", 0)
        run_campaign(tiny_manifest(), journal=tmp_path)
        counters = metrics.counters()
        assert counters["checkpoint.journal.append"] > base
        skipped = counters.get("checkpoint.resume.skipped", 0)
        run_campaign(tiny_manifest(), journal=tmp_path, resume=True)
        assert metrics.counters()["checkpoint.resume.skipped"] == skipped + 4


class TestTorusJournal:
    """Torus grids journal one ``(collective, ranks)`` cell per collective,
    like registry grids."""

    def test_journaled_run_identical_to_plain(self, tmp_path):
        plain = run_campaign(torus_manifest())
        journaled = run_campaign(torus_manifest(), journal=tmp_path)
        assert record_bytes(journaled) == record_bytes(plain)
        doc = read_journal(journal_path(tmp_path, "tiny-torus"))
        cells = [(e["grid"], e["collective"], e["p"])
                 for e in doc.entries if e["kind"] == "cell"]
        assert cells == [
            (0, "bcast", 8),
            (1, "allreduce", 4), (1, "bcast", 4),
            (2, "allreduce", 8), (2, "bcast", 8),
        ]

    def test_resume_after_first_cell_identical(self, tmp_path):
        plain = run_campaign(torus_manifest())
        run_campaign(torus_manifest(), journal=tmp_path)
        path = journal_path(tmp_path, "tiny-torus")
        lines = path.read_bytes().splitlines(keepends=True)
        kinds = [json.loads(l[9:]).get("kind") for l in lines]
        path.write_bytes(b"".join(lines[:kinds.index("cell") + 1]))
        resumed = run_campaign(torus_manifest(), journal=tmp_path,
                               resume=True)
        assert record_bytes(resumed) == record_bytes(plain)
        assert summarize_journal(read_journal(path))["cells_done"] == 5

    def test_drain_before_torus_cell_flushes_journal(self, tmp_path,
                                                     monkeypatch):
        import signal as _signal

        from repro.checkpoint import drain
        from repro.checkpoint.journal import GridJournal

        plain = run_campaign(torus_manifest())
        store = GridJournal.store

        def store_then_sigterm(self, collective, p, records):
            store(self, collective, p, records)
            drain._handler(_signal.SIGTERM, None)  # as if SIGTERM arrived

        monkeypatch.setattr(GridJournal, "store", store_then_sigterm)
        with pytest.raises(InterruptedRunError) as exc:
            run_campaign(torus_manifest(), journal=tmp_path)
        monkeypatch.undo()
        assert exc.value.signal_name == "SIGTERM"
        # the registry cell is durable and the torus cells planned, not run
        path = journal_path(tmp_path, "tiny-torus")
        summary = summarize_journal(read_journal(path))
        assert summary["cells_done"] == 1
        assert summary["cells_planned"] == 3
        resumed = run_campaign(torus_manifest(), journal=tmp_path,
                               resume=True)
        assert record_bytes(resumed) == record_bytes(plain)

    def test_workers_identical_to_serial(self):
        from repro.obs import metrics

        plain = run_campaign(torus_manifest())
        before = metrics.counters().get("shard.cells", 0)
        sharded = run_campaign(torus_manifest(), workers=2)
        # every cell, torus cells included, went through the pool
        assert metrics.counters()["shard.cells"] - before == 5
        assert record_bytes(sharded) == record_bytes(plain)

    def test_warm_disk_cache_builds_no_profile(self, tmp_path):
        from repro.obs import metrics

        plain = run_campaign(torus_manifest())
        cold = run_campaign(torus_manifest(), disk_dir=tmp_path)
        before = metrics.counters()
        warm = run_campaign(torus_manifest(), disk_dir=tmp_path)
        after = metrics.counters()
        assert after.get("profile.built", 0) == before.get("profile.built", 0)
        assert after.get("cache.disk.hit", 0) > before.get("cache.disk.hit", 0)
        assert record_bytes(warm) == record_bytes(cold) == record_bytes(plain)


# -- chaos harness (subprocess) ----------------------------------------------


def _run_repro(args, *, chaos=None, cwd=None):
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    env.pop("REPRO_CHAOS", None)
    if chaos:
        env["REPRO_CHAOS"] = chaos
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=cwd or REPO_ROOT, env=env, capture_output=True, text=True,
        timeout=600,
    )


def _chaos_until_done(manifest, workdir, *, extra=(), signal_mode="kill",
                      seed=3):
    """Kill/resume loop; returns (reference bytes, final bytes, kills)."""
    ref = workdir / "ref.json"
    out = workdir / "out.json"
    proc = _run_repro(["campaign", str(manifest), "--format", "json",
                       "-o", str(ref), *extra])
    assert proc.returncode == 0, proc.stderr
    base = ["campaign", str(manifest), "--journal", str(workdir / "j"),
            "--format", "json", "-o", str(out), *extra]
    kills = 0
    for attempt in range(32):
        chaos = f"kill_after=1,seed={seed + attempt}"
        if signal_mode != "kill":
            chaos += f",signal={signal_mode}"
        proc = _run_repro(base + (["--resume"] if attempt else []),
                          chaos=chaos)
        if proc.returncode == 0:
            return ref.read_bytes(), out.read_bytes(), kills
        assert proc.returncode in (-9, 137, 9), (
            f"unexpected exit {proc.returncode}: {proc.stderr}"
        )
        kills += 1
    raise AssertionError("chaos loop did not converge in 32 attempts")


class TestChaosHarness:
    @pytest.fixture()
    def faults_manifest(self, tmp_path):
        path = tmp_path / "faults.toml"
        path.write_text(FAULTS_TOML)
        return path

    def test_serial_faults_killed_resume_identical(self, faults_manifest,
                                                   tmp_path):
        ref, out, kills = _chaos_until_done(faults_manifest, tmp_path)
        assert kills >= 3  # ≥3 random cell-boundary kills (acceptance)
        assert ref == out

    def test_workers_killed_resume_identical(self, tmp_path):
        manifest = tmp_path / "tiny.toml"
        manifest.write_text(TINY_TOML)
        ref, out, kills = _chaos_until_done(
            manifest, tmp_path, extra=("--workers", "2"), seed=17,
        )
        assert kills >= 3
        assert ref == out

    def test_des_timeline_killed_resume_identical(self, tmp_path):
        manifest = tmp_path / "des.toml"
        manifest.write_text(DES_TOML)
        ref, out, kills = _chaos_until_done(manifest, tmp_path, seed=29)
        assert kills >= 3
        assert ref == out

    def test_torus_killed_inside_grid_resume_identical(self, tmp_path):
        manifest = tmp_path / "torus.json"
        manifest.write_text(json.dumps(TORUS_MANIFEST))
        ref = tmp_path / "ref.json"
        out = tmp_path / "out.json"
        assert _run_repro(["campaign", str(manifest), "--format", "json",
                           "-o", str(ref)]).returncode == 0
        base = ["campaign", str(manifest), "--journal", str(tmp_path / "j"),
                "--format", "json", "-o", str(out)]
        # the second journaled cell is the first of the 2x2 grid's two
        proc = _run_repro(base, chaos="kill_after=2")
        assert proc.returncode in (-9, 137), proc.stderr
        doc = read_journal(journal_path(tmp_path / "j", "tiny-torus"))
        assert [(e["grid"], e["collective"]) for e in doc.entries
                if e["kind"] == "cell"] == [(0, "bcast"), (1, "allreduce")]
        proc = _run_repro(base + ["--resume"])
        assert proc.returncode == 0, proc.stderr
        assert out.read_bytes() == ref.read_bytes()

    def test_sigint_drains_to_exit_9_with_flushed_journal(self, tmp_path):
        manifest = tmp_path / "tiny.toml"
        manifest.write_text(TINY_TOML)
        proc = _run_repro(
            ["campaign", str(manifest), "--journal", str(tmp_path / "j")],
            chaos="kill_after=2,signal=int",
        )
        assert proc.returncode == 9
        assert "InterruptedRunError" in proc.stderr
        assert "--resume" in proc.stderr
        # the journal was flushed before exit: 2 cells are durable
        doc = read_journal(journal_path(tmp_path / "j", "tiny"))
        summary = summarize_journal(doc)
        assert summary["cells_done"] == 2
        assert summary["cells_planned"] == 4
        # and the drained run resumes to the uninterrupted result
        ref = tmp_path / "ref.json"
        out = tmp_path / "out.json"
        assert _run_repro(["campaign", str(manifest), "--format", "json",
                           "-o", str(ref)]).returncode == 0
        proc = _run_repro(["campaign", str(manifest), "--journal",
                           str(tmp_path / "j"), "--resume",
                           "--format", "json", "-o", str(out)])
        assert proc.returncode == 0, proc.stderr
        assert ref.read_bytes() == out.read_bytes()

    def test_chaos_driver_script(self, tmp_path):
        manifest = tmp_path / "tiny.toml"
        manifest.write_text(TINY_TOML)
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tests" / "chaos.py"),
             str(manifest), "--kill-after", "1", "--seed", "5"],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "byte-identical" in proc.stdout


# -- CLI surface -------------------------------------------------------------


class TestCheckpointCli:
    def test_keyboard_interrupt_exits_130(self, capsys, monkeypatch):
        from repro.cli import commands

        def _interrupt(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(commands, "cmd_list", _interrupt)
        assert main(["list"]) == 130
        assert "interrupted" in capsys.readouterr().err

    def test_resume_without_journal_is_usage_error(self, tmp_path, capsys):
        manifest = tmp_path / "tiny.toml"
        manifest.write_text(TINY_TOML)
        assert main(["campaign", str(manifest), "--resume"]) == 2
        assert "--journal" in capsys.readouterr().err

    def test_corrupt_journal_exits_10(self, tmp_path, capsys):
        manifest = tmp_path / "tiny.toml"
        manifest.write_text(TINY_TOML)
        run_campaign(tiny_manifest(), journal=tmp_path / "j")
        path = journal_path(tmp_path / "j", "tiny")
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        code = main(["campaign", str(manifest), "--journal",
                     str(tmp_path / "j"), "--resume"])
        assert code == 10
        assert "JournalError" in capsys.readouterr().err

    def test_stats_summarizes_journal(self, tmp_path, capsys):
        run_campaign(tiny_manifest(), journal=tmp_path)
        run_campaign(tiny_manifest(), journal=tmp_path, resume=True)
        path = journal_path(tmp_path, "tiny")
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "cells: 4/4 done, 0 remaining" in out
        assert "resumes: 1" in out
        assert main(["stats", str(path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["scenarios"]["none"]["done"] == 4
        assert doc["resumes"] == 1

    def test_stats_validates_journal(self, tmp_path, capsys):
        run_campaign(tiny_manifest(), journal=tmp_path)
        path = journal_path(tmp_path, "tiny")
        assert main(["stats", str(path), "--validate"]) == 0
        assert "ok" in capsys.readouterr().out
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert main(["stats", str(path), "--validate"]) == 10
        assert "JournalError" in capsys.readouterr().err

    def test_campaign_journal_resume_via_cli(self, tmp_path, capsys):
        manifest = tmp_path / "tiny.toml"
        manifest.write_text(TINY_TOML)
        ref = tmp_path / "ref.json"
        out = tmp_path / "out.json"
        assert main(["campaign", str(manifest), "--format", "json",
                     "-o", str(ref)]) == 0
        capsys.readouterr()
        assert main(["campaign", str(manifest), "--journal",
                     str(tmp_path / "j"), "--format", "json",
                     "-o", str(out)]) == 0
        assert "journal" in capsys.readouterr().err
        assert ref.read_bytes() == out.read_bytes()
        assert main(["campaign", str(manifest), "--journal",
                     str(tmp_path / "j"), "--resume", "--format", "json",
                     "-o", str(out)]) == 0
        capsys.readouterr()
        assert ref.read_bytes() == out.read_bytes()


# -- drain scope (in-process) ------------------------------------------------


class TestDrainScope:
    def test_first_signal_requests_drain_second_aborts(self):
        import signal as _signal

        from repro.checkpoint.drain import drain_requested, drain_scope

        with drain_scope():
            assert drain_requested() is None
            os.kill(os.getpid(), _signal.SIGINT)
            assert drain_requested() == "SIGINT"
            with pytest.raises(KeyboardInterrupt):
                os.kill(os.getpid(), _signal.SIGINT)
        # scope exit restores default handlers and clears the request
        assert drain_requested() is None

    def test_interrupted_error_carries_progress(self):
        err = InterruptedRunError("SIGTERM", 3, 5)
        assert err.signal_name == "SIGTERM"
        assert "3 cell(s) journaled" in str(err)
        assert "--resume" in str(err)
