"""End-to-end tests for the ``repro`` CLI on tiny (p ≤ 16) grids.

Every subcommand is exercised through :func:`repro.cli.main` in-process
(stdout captured with capsys), plus one subprocess test for the
``python -m repro`` module entry point and one for ``repro bench``'s
pytest dispatch.  The campaign tests pin the acceptance contract:
manifest → ``repro campaign`` → records identical to the equivalent
direct :func:`sweep_system` call, under any ``--workers`` /
``--disk-cache`` combination.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.sweep import ProfileCache, SweepRecord, sweep_system
from repro.cli import main
from repro.cli.manifest import (
    CampaignManifest,
    GridSpec,
    ManifestError,
    SummarySpec,
    dump_manifest,
    load_manifest,
    manifest_from_dict,
    manifest_to_dict,
)
from repro.systems import lumi

REPO_ROOT = Path(__file__).resolve().parent.parent

TINY_SWEEP = [
    "sweep", "--system", "lumi", "--collective", "bcast",
    "--nodes", "16", "--sizes", "1024,65536",
]

TINY_MANIFEST = {
    "campaign": {"name": "tiny", "system": "lumi", "description": "tiny grid"},
    "grid": [
        {
            "collectives": ["bcast", "allreduce"],
            "node_counts": [8, 16],
            "vector_bytes": [1024, 65536],
        }
    ],
    "summary": {"family": "bine", "baseline": "binomial"},
}


def tiny_direct_records() -> list[SweepRecord]:
    """The direct sweep_system equivalent of TINY_MANIFEST."""
    preset = lumi()
    cache = ProfileCache(preset, placement="scheduler", seed=7, busy_fraction=0.55)
    return sweep_system(
        preset,
        ("bcast", "allreduce"),
        node_counts=(8, 16),
        vector_bytes=(1024, 65536),
        cache=cache,
    )


# -- repro list --------------------------------------------------------------


class TestList:
    def test_text_catalog(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "systems: fugaku, leonardo, lumi, marenostrum5" in out
        assert "bcast:" in out and "alltoall:" in out
        assert "bine" in out

    def test_collective_filter(self, capsys):
        assert main(["list", "--collective", "alltoall"]) == 0
        out = capsys.readouterr().out
        assert "alltoall:" in out and "bcast:" not in out

    def test_family_filter(self, capsys):
        assert main(["list", "--family", "ring"]) == 0
        out = capsys.readouterr().out
        assert "ring allreduce" in out and "binomial scatter" not in out

    def test_json_catalog(self, capsys):
        assert main(["list", "--json"]) == 0
        catalog = json.loads(capsys.readouterr().out)
        assert {"systems", "collectives", "families", "algorithms"} <= set(catalog)
        names = {(a["collective"], a["name"]) for a in catalog["algorithms"]}
        assert ("allreduce", "bine-rsag") in names
        assert len(names) >= 40

    def test_markdown_catalog(self, capsys):
        assert main(["list", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# Algorithm catalog")
        assert "| `bine-rsag` | bine |" in out

    def test_unknown_collective_fails(self, capsys):
        assert main(["list", "--collective", "bogus"]) == 2
        assert "unknown collective" in capsys.readouterr().err

    def test_json_respects_filters(self, capsys):
        assert main(["list", "--json", "--collective", "alltoall"]) == 0
        catalog = json.loads(capsys.readouterr().out)
        assert {a["collective"] for a in catalog["algorithms"]} == {"alltoall"}

    def test_markdown_rejects_filters(self, capsys):
        assert main(["list", "--markdown", "--collective", "bcast"]) == 2
        assert "full docs/algorithms.md catalog" in capsys.readouterr().err

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "catalog.md"
        assert main(["list", "--markdown", "--output", str(target)]) == 0
        assert target.read_text().startswith("# Algorithm catalog")


# -- repro schedule ----------------------------------------------------------


class TestSchedule:
    def test_pretty_print(self, capsys):
        assert main(["schedule", "allreduce", "bine-rsag", "-p", "16"]) == 0
        out = capsys.readouterr().out
        assert "schedule allreduce/bine-rsag: p=16" in out
        assert "step 0" in out and "validation: on" in out

    def test_verify_runs_executor(self, capsys):
        assert main(["schedule", "bcast", "bine", "-p", "8", "--verify"]) == 0
        assert "verify: executor output matches" in capsys.readouterr().out

    def test_truncation(self, capsys):
        assert main(
            ["schedule", "allgather", "ring", "-p", "16", "--max-steps", "2"]
        ) == 0
        assert "more steps" in capsys.readouterr().out

    def test_unknown_algorithm_fails(self, capsys):
        assert main(["schedule", "bcast", "nope", "-p", "8"]) == 2
        assert "no algorithm" in capsys.readouterr().err

    def test_constraint_violation_fails(self, capsys):
        # bine bcast is pow2-only; p=12 must fail with a clear message
        assert main(["schedule", "bcast", "bine", "-p", "12"]) == 2
        assert "cannot build" in capsys.readouterr().err


# -- repro sweep -------------------------------------------------------------


class TestSweep:
    def direct(self) -> list[SweepRecord]:
        preset = lumi()
        cache = ProfileCache(
            preset, placement="scheduler", seed=7, busy_fraction=0.55
        )
        return sweep_system(
            preset, ("bcast",), node_counts=(16,),
            vector_bytes=(1024, 65536), cache=cache,
        )

    def test_json_matches_direct_call(self, capsys):
        assert main(TINY_SWEEP + ["--format", "json"]) == 0
        got = [SweepRecord.from_dict(d) for d in json.loads(capsys.readouterr().out)]
        assert got == self.direct()

    def test_csv_shape(self, capsys):
        assert main(TINY_SWEEP + ["--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("system,collective,algorithm")
        assert len(lines) == len(self.direct()) + 1

    def test_markdown_shape(self, capsys):
        assert main(TINY_SWEEP + ["--format", "markdown"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("| system |") or lines[0].startswith("| system")
        assert len(lines) == len(self.direct()) + 2

    def test_summary_default(self, capsys):
        assert main(TINY_SWEEP) == 0
        out = capsys.readouterr().out
        assert "Coll." in out and "bcast" in out

    def test_workers_identical_to_serial(self, capsys):
        assert main(TINY_SWEEP + ["--format", "json"]) == 0
        serial = capsys.readouterr().out
        assert main(TINY_SWEEP + ["--format", "json", "--workers", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_disk_cache_warm_identical(self, tmp_path, capsys):
        flags = ["--format", "json", "--disk-cache", str(tmp_path / "c")]
        assert main(TINY_SWEEP + flags) == 0
        cold = capsys.readouterr().out
        assert list((tmp_path / "c").rglob("*.pkl")), "cache not populated"
        assert main(TINY_SWEEP + flags) == 0
        assert capsys.readouterr().out == cold

    def test_unknown_system_fails(self, capsys):
        assert main(["sweep", "--system", "summit"]) == 2
        assert "unknown system" in capsys.readouterr().err

    def test_unknown_algorithm_fails(self, capsys):
        assert main(TINY_SWEEP + ["--algorithm", "bien"]) == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_summary_json(self, capsys):
        assert main(TINY_SWEEP + ["--format", "summary-json"]) == 0
        duels = json.loads(capsys.readouterr().out)
        assert duels and duels[0]["collective"] == "bcast"
        assert "win_pct" in duels[0]

    def test_ppn_not_dividing_nodes_fails(self, capsys):
        # 17 ranks at 2 per node: a usage error, not a traceback
        assert main(["sweep", "--system", "lumi", "--collective", "allreduce",
                     "--nodes", "17", "--ppn", "2", "--sizes", "1024"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "[17]" in err and "ppn=2" in err

    def test_mapping_rejects_ppn_not_dividing_p(self):
        cache = ProfileCache(lumi(), placement="block")
        with pytest.raises(ValueError, match="p=17 .*ppn=2"):
            cache.mapping_for(17, 2)


# -- repro campaign ----------------------------------------------------------


class TestCampaign:
    def test_manifest_records_identical_to_direct(self, tmp_path, capsys):
        manifest = tmp_path / "tiny.json"
        manifest.write_text(json.dumps(TINY_MANIFEST))
        assert main(["campaign", str(manifest), "--format", "json"]) == 0
        got = [SweepRecord.from_dict(d) for d in json.loads(capsys.readouterr().out)]
        assert got == tiny_direct_records()

    def test_toml_json_equivalence(self, tmp_path, capsys):
        toml = tmp_path / "tiny.toml"
        toml.write_text(
            '[campaign]\nname = "tiny"\nsystem = "lumi"\n'
            "[[grid]]\n"
            'collectives = ["bcast", "allreduce"]\n'
            "node_counts = [8, 16]\n"
            "vector_bytes = [1024, 65536]\n"
        )
        assert main(["campaign", str(toml), "--format", "json"]) == 0
        got = [SweepRecord.from_dict(d) for d in json.loads(capsys.readouterr().out)]
        assert got == tiny_direct_records()

    def test_workers_and_disk_cache_identical(self, tmp_path, capsys):
        manifest = tmp_path / "tiny.json"
        manifest.write_text(json.dumps(TINY_MANIFEST))
        flags = ["--format", "json", "--workers", "2",
                 "--disk-cache", str(tmp_path / "cache")]
        assert main(["campaign", str(manifest)] + flags) == 0
        first = capsys.readouterr().out
        assert main(["campaign", str(manifest)] + flags) == 0  # warm
        assert capsys.readouterr().out == first
        assert [SweepRecord.from_dict(d) for d in json.loads(first)] == (
            tiny_direct_records()
        )

    def test_summary_output(self, tmp_path, capsys):
        manifest = tmp_path / "tiny.json"
        manifest.write_text(json.dumps(TINY_MANIFEST))
        assert main(["campaign", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "tiny grid" in out and "Coll." in out

    def test_summary_json_output(self, tmp_path, capsys):
        manifest = tmp_path / "tiny.json"
        manifest.write_text(json.dumps(TINY_MANIFEST))
        assert main(["campaign", str(manifest), "--format", "summary-json"]) == 0
        duels = json.loads(capsys.readouterr().out)
        assert {d["collective"] for d in duels} == {"bcast", "allreduce"}

    def test_missing_manifest_fails(self, capsys):
        assert main(["campaign", "nope.toml"]) == 2

    def test_invalid_manifest_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"campaign": {"name": "x", "system": "lumi"}}))
        assert main(["campaign", str(bad)]) == 2
        assert "[[grid]]" in capsys.readouterr().err


class TestManifest:
    def test_roundtrip(self, tmp_path):
        manifest = CampaignManifest(
            name="rt",
            system="lumi",
            grids=(
                GridSpec(
                    collectives=("bcast",),
                    node_counts=(16,),
                    vector_bytes=(1024,),
                    algorithms=("bine",),
                    max_p={"bcast": 64},
                ),
            ),
            summary=SummarySpec(baseline_overrides={"alltoall": "bruck"}),
        )
        path = tmp_path / "rt.json"
        dump_manifest(manifest, path)
        assert load_manifest(path) == manifest
        assert manifest_from_dict(manifest_to_dict(manifest)) == manifest

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d["campaign"].update(system="summit"), "unknown system"),
            (lambda d: d["campaign"].update(placement="banana"), "placement"),
            (lambda d: d.update(extra=1), "unknown key"),
            (lambda d: d["grid"][0].update(collectives=["bogus"]), "collective"),
            (lambda d: d["grid"][0].update(collectives=[]), "at least one"),
            (lambda d: d["grid"][0].update(node_counts=[]), "positive integer"),
            (lambda d: d["grid"][0].update(node_counts="16"), "got a string"),
            (lambda d: d["grid"][0].pop("node_counts"), "missing required"),
            (lambda d: d["grid"][0].update(algorithms=["bien"]), "unknown algorithm"),
            (lambda d: d["summary"].update(family="bien"), "unknown family"),
            (lambda d: d["summary"].update(
                baseline_overrides={"bogus": "bruck"}), "unknown collective"),
        ],
    )
    def test_validation_errors(self, mutate, message):
        data = json.loads(json.dumps(TINY_MANIFEST))  # deep copy
        mutate(data)
        with pytest.raises(ManifestError, match=message):
            manifest_from_dict(data)

    def test_shipped_manifests_load(self):
        campaigns = sorted((REPO_ROOT / "campaigns").glob("*.toml"))
        assert len(campaigns) >= 5
        systems = set()
        for path in campaigns:
            m = load_manifest(path)
            systems.add(m.system)
            assert m.grids
            if m.system == "fugaku":  # the torus studies carry no duel table
                assert all(g.torus_dims is not None for g in m.grids)
            else:
                assert m.summary is not None
                assert m.summary.baseline_for("alltoall") == "bruck"
        assert {"lumi", "leonardo", "marenostrum5", "fugaku"} <= systems

    def test_ppn_must_divide_node_counts(self):
        data = json.loads(json.dumps(TINY_MANIFEST))
        data["grid"][0].update(node_counts=[16, 17], ppn=2)
        with pytest.raises(ManifestError, match=r"\[17\] .*ppn=2"):
            manifest_from_dict(data)
        data["grid"][0].update(node_counts=[16], ppn=0)
        with pytest.raises(ManifestError, match="ppn must be >= 1"):
            manifest_from_dict(data)

    def test_paper_vector_keyword(self):
        data = json.loads(json.dumps(TINY_MANIFEST))
        data["grid"][0]["vector_bytes"] = "paper"
        m = manifest_from_dict(data)
        assert m.grids[0].vector_bytes == tuple(32 * 8**k for k in range(9))


# -- repro plot --------------------------------------------------------------


class TestPlot:
    #: the acceptance slice of the Table 3 manifest: real file, tiny grid
    TABLE3_PLOT = [
        "plot", "--manifest", str(REPO_ROOT / "campaigns" / "table3_lumi.toml"),
        "--collective", "bcast", "--collective", "allreduce",
        "--nodes", "16,64", "--sizes", "2048,131072",
    ]

    def test_manifest_renders_figures(self, tmp_path, capsys):
        out = tmp_path / "report"
        assert main(self.TABLE3_PLOT + ["--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert {"heatmap_bcast.svg", "heatmap_allreduce.svg",
                "boxplot_improvement.svg", "index.md", "index.html"} == names
        index = (out / "index.md").read_text()
        assert "table3_lumi.toml" in index and "sha256" in index
        for svg in names - {"index.md", "index.html"}:
            assert (out / svg).read_text().startswith("<svg")

    def test_byte_deterministic_across_runs(self, tmp_path, capsys):
        """Acceptance: two runs of the same plot produce identical bytes."""
        for sub in ("r1", "r2"):
            assert main(self.TABLE3_PLOT + ["--out", str(tmp_path / sub)]) == 0
        capsys.readouterr()
        files = sorted(p.name for p in (tmp_path / "r1").iterdir())
        assert files
        for name in files:
            assert (tmp_path / "r1" / name).read_bytes() == (
                tmp_path / "r2" / name
            ).read_bytes(), f"{name} not byte-deterministic"

    def test_records_input(self, tmp_path, capsys):
        records_file = tmp_path / "records.json"
        assert main(TINY_SWEEP + ["--format", "json",
                                  "--output", str(records_file)]) == 0
        capsys.readouterr()
        out = tmp_path / "report"
        assert main(["plot", "--records", str(records_file),
                     "--out", str(out)]) == 0
        assert (out / "heatmap_bcast.svg").exists()

    def test_empty_filter_fails(self, tmp_path, capsys):
        assert main([
            "plot", "--manifest",
            str(REPO_ROOT / "campaigns" / "table3_lumi.toml"),
            "--out", str(tmp_path), "--nodes", "7",
        ]) == 2
        assert "leave nothing" in capsys.readouterr().err

    def test_non_sweep_records_fail(self, tmp_path, capsys):
        assert main(["plot", "--records", str(REPO_ROOT / "BENCH_sweep.json"),
                     "--out", str(tmp_path)]) == 2
        assert "sweep records" in capsys.readouterr().err


# -- repro compare -----------------------------------------------------------


class TestCompare:
    def records_file(self, tmp_path, capsys) -> Path:
        path = tmp_path / "records.json"
        assert main(TINY_SWEEP + ["--format", "json", "--output", str(path)]) == 0
        capsys.readouterr()
        return path

    def test_self_diff_exits_zero(self, tmp_path, capsys):
        """Acceptance smoke: the same record set twice is drift-free."""
        path = self.records_file(tmp_path, capsys)
        assert main(["compare", str(path), str(path)]) == 0
        out = capsys.readouterr().out
        assert "identical within tolerance" in out

    def test_perturbed_copy_exits_one_and_names_cell(self, tmp_path, capsys):
        """Acceptance smoke: a perturbed copy drifts, naming the cell."""
        path = self.records_file(tmp_path, capsys)
        rows = json.loads(path.read_text())
        rows[0]["time"] *= 1.02
        perturbed = tmp_path / "perturbed.json"
        perturbed.write_text(json.dumps(rows))
        assert main(["compare", str(path), str(perturbed)]) == 1
        out = capsys.readouterr().out
        assert "DRIFT" in out
        assert f"algorithm={rows[0]['algorithm']}" in out
        assert "time" in out

    def test_bench_blobs_parse_and_self_diff(self, capsys):
        """Schema check: the repo BENCH_*.json blobs diff as metric sets."""
        for name in ("BENCH_sweep.json", "BENCH_verify.json"):
            blob = str(REPO_ROOT / name)
            assert main(["compare", blob, blob]) == 0
            assert "[metrics]" in capsys.readouterr().out

    def test_kind_mismatch_fails(self, tmp_path, capsys):
        path = self.records_file(tmp_path, capsys)
        assert main(["compare", str(path),
                     str(REPO_ROOT / "BENCH_sweep.json")]) == 2
        assert "cannot diff" in capsys.readouterr().err

    def test_baseline_update_and_gate(self, tmp_path, capsys):
        manifest = tmp_path / "tiny.json"
        manifest.write_text(json.dumps(TINY_MANIFEST))
        baseline = tmp_path / "baseline.json"
        assert main(["compare", str(baseline), str(manifest), "--update"]) == 0
        capsys.readouterr()
        # rerun of the deterministic campaign: gate passes
        assert main(["compare", str(baseline), str(manifest)]) == 0
        capsys.readouterr()
        # perturbed baseline: gate fails and names the drift
        payload = json.loads(baseline.read_text())
        payload["records"][2]["global_bytes"] += 1.0
        baseline.write_text(json.dumps(payload))
        assert main(["compare", str(baseline), str(manifest)]) == 1
        assert "global_bytes" in capsys.readouterr().out

    def test_update_requires_manifest(self, tmp_path, capsys):
        path = self.records_file(tmp_path, capsys)
        assert main(["compare", str(tmp_path / "b.json"), str(path),
                     "--update"]) == 2
        assert "not a manifest" in capsys.readouterr().err

    def test_markdown_format(self, tmp_path, capsys):
        path = self.records_file(tmp_path, capsys)
        assert main(["compare", str(path), str(path),
                     "--format", "markdown"]) == 0
        assert capsys.readouterr().out.startswith("**")

    def test_missing_file_fails(self, capsys):
        assert main(["compare", "nope.json", "nope.json"]) == 2

    def test_malformed_json_fails_cleanly(self, tmp_path, capsys):
        # a truncated baseline must exit 2 (usage error), never 1 (drift)
        good = self.records_file(tmp_path, capsys)
        bad = tmp_path / "truncated.json"
        bad.write_text(good.read_text()[:40])
        assert main(["compare", str(bad), str(good)]) == 2
        assert "not valid JSON" in capsys.readouterr().err


# -- torus campaign manifests ------------------------------------------------


class TestTorusManifest:
    TINY_TORUS = {
        "campaign": {"name": "tiny-torus", "system": "fugaku",
                     "placement": "block"},
        "grid": [
            {
                "collectives": ["allreduce", "bcast"],
                "torus_dims": [2, 2, 2],
                "vector_bytes": [1024, 1048576],
            }
        ],
    }

    def test_campaign_matches_direct_sweep_torus(self, tmp_path, capsys):
        from repro.systems import fugaku

        manifest = tmp_path / "torus.json"
        manifest.write_text(json.dumps(self.TINY_TORUS))
        assert main(["campaign", str(manifest), "--format", "json"]) == 0
        got = [SweepRecord.from_dict(d) for d in json.loads(capsys.readouterr().out)]
        want = sweep_system(fugaku(), ("allreduce", "bcast"),
                            torus_dims=(2, 2, 2), vector_bytes=(1024, 1048576))
        assert got == want
        assert {r.system for r in got} == {"fugaku:2x2x2"}
        assert {r.algorithm for r in got if r.collective == "allreduce"} >= {
            "bine-multiport", "bine-torus", "bucket", "binomial",
        }

    def test_shipped_fugaku_manifests_validate(self):
        fig11b = load_manifest(REPO_ROOT / "campaigns" / "fig11b_fugaku.toml")
        assert [g.torus_dims for g in fig11b.grids] == [
            (2, 2, 2), (4, 4, 4), (8, 8, 8), (8, 8)
        ]
        assert all(g.node_counts == (
            g.torus_dims[0] * g.torus_dims[1] * (g.torus_dims + (1,))[2],
        ) for g in fig11b.grids)
        appd = load_manifest(REPO_ROOT / "campaigns" / "appd_torus.toml")
        assert appd.grids[0].algorithms == ("bine-torus", "bine-multiport")

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d["campaign"].update(system="lumi"), "fugaku"),
            (lambda d: d["grid"][0].update(torus_dims=[3, 3]), "power of two|extent"),
            (lambda d: d["grid"][0].update(node_counts=[9]), "contradicts"),
            (lambda d: d["grid"][0].update(algorithms=["warp-drive"]),
             "unknown algorithm"),
            (lambda d: d["grid"][0].update(max_p={"bcast": 4}), "neither max_p"),
            (lambda d: d["grid"][0].update(ppn=2), "neither max_p nor ppn"),
            (lambda d: d["grid"][0].update(collectives=["alltoall"]),
             "no torus algorithm"),
            (lambda d: d["campaign"].update(placement="scheduler"),
             'placement = "block"'),
        ],
    )
    def test_torus_validation_errors(self, mutate, message):
        data = json.loads(json.dumps(self.TINY_TORUS))
        mutate(data)
        with pytest.raises(ManifestError, match=message):
            manifest_from_dict(data)

    def test_torus_roundtrip(self):
        m = manifest_from_dict(json.loads(json.dumps(self.TINY_TORUS)))
        assert manifest_from_dict(manifest_to_dict(m)) == m


# -- repro verify ------------------------------------------------------------


class TestVerify:
    def test_quick_smoke_grid(self, capsys):
        """The tier-1 oracle smoke: every registry cell at p=4,8, one seed."""
        assert main(["verify", "--quick"]) == 0
        captured = capsys.readouterr()
        assert "0 failed" in captured.err
        assert "total:" in captured.out and " ok" in captured.out

    def test_quick_cross_check_engines(self, capsys):
        assert main(["verify", "--quick", "--engine", "both",
                     "--collective", "allreduce"]) == 0
        out = capsys.readouterr().out
        assert "allreduce" in out and "failed" in out

    def test_json_records(self, capsys):
        assert main(["verify", "--collective", "bcast", "--nodes", "8,12",
                     "--seeds", "0", "--format", "json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert {r["status"] for r in records} == {"ok", "skipped"}
        assert {r["p"] for r in records} == {8, 12}  # pow2-only cells skip at 12
        assert all(r["engine"] == "compiled" for r in records)

    def test_markdown_and_table(self, capsys):
        assert main(["verify", "--quick", "--collective", "scatter",
                     "--format", "markdown"]) == 0
        assert capsys.readouterr().out.startswith("| collective |")
        assert main(["verify", "--quick", "--collective", "scatter",
                     "--format", "table"]) == 0
        assert "scatter" in capsys.readouterr().out

    def test_workers_identical_to_serial(self, capsys):
        args = ["verify", "--quick", "--collective", "gather", "--format", "json"]
        assert main(args) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(args + ["--workers", "2"]) == 0
        parallel = json.loads(capsys.readouterr().out)
        strip = lambda rs: [{**r, "elapsed_s": 0} for r in rs]
        assert strip(serial) == strip(parallel)

    def test_failure_exits_one(self, capsys, monkeypatch):
        from repro.collectives.registry import ALGORITHMS, AlgorithmSpec
        from repro.runtime.schedule import Schedule

        spec = AlgorithmSpec(
            "bcast", "broken", "bine",
            lambda p, n, root, op: Schedule(
                p, meta={"collective": "bcast", "n": n, "root": 0}
            ),
            pow2_only=False,
        )
        monkeypatch.setitem(ALGORITHMS, ("bcast", "broken"), spec)
        assert main(["verify", "--quick", "--collective", "bcast",
                     "--algorithm", "broken"]) == 1
        captured = capsys.readouterr()
        assert "1 failed" in captured.err or "2 failed" in captured.err
        assert "failures:" in captured.out

    def test_unknown_collective_fails(self, capsys):
        assert main(["verify", "--collective", "bogus"]) == 2
        assert "unknown collective" in capsys.readouterr().err

    def test_unknown_algorithm_fails(self, capsys):
        assert main(["verify", "--collective", "bcast", "--algorithm", "bien"]) == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "verify.json"
        assert main(["verify", "--quick", "--collective", "alltoall",
                     "--format", "json", "--output", str(target)]) == 0
        records = json.loads(target.read_text())
        assert records and all(r["collective"] == "alltoall" for r in records)


# -- repro bench -------------------------------------------------------------


class TestBench:
    def test_list_inventory(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "bench_table3_lumi" in out and "bench_fig01_bcast_traffic" in out
        assert "Table 3" in out  # docstring first lines shown

    def test_pattern_filter(self, capsys):
        assert main(["bench", "--list", "table"]) == 0
        out = capsys.readouterr().out
        assert "bench_table5_mn5" in out and "bench_fig01" not in out

    def test_no_match_fails(self, capsys):
        assert main(["bench", "zzz-not-a-bench"]) == 2

    def test_runs_one_bench_via_pytest(self):
        # cheapest bench: Eq. 2 distance ratios (pure arithmetic)
        assert main(["bench", "eq02"]) == 0


# -- python -m repro ---------------------------------------------------------


def test_module_entry_point():
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "list", "--collective", "bcast"],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert "bcast:" in proc.stdout
