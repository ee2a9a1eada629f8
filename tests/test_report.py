"""Tests for the ``repro.report`` subsystem: figures, diffs, baselines, artifacts.

The golden-SVG tests pin the byte-determinism contract: the committed
``tests/data/golden_*.svg`` must equal a fresh render of the synthetic
record set, bit for bit.  Regenerate after an intentional figure change
with::

    PYTHONPATH=src python tests/test_report.py --regen
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.sweep import SweepRecord
from repro.cli.campaign import run_campaign
from repro.cli.manifest import manifest_from_dict
from repro.report import (
    RecordSetError,
    boxplot_svg,
    check_baseline,
    diff_record_sets,
    heatmap_svg,
    load_record_set,
    record_set_from_records,
    records_digest,
    render_report,
    write_baseline,
)
from repro.report.diff import record_set_from_json
from repro.report.figures import boxplot_figure, heatmap_figure
from repro.report.svg import SvgCanvas, fmt

REPO_ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = Path(__file__).parent / "data"

TINY_MANIFEST = {
    "campaign": {"name": "tiny", "system": "lumi"},
    "grid": [
        {
            "collectives": ["bcast"],
            "node_counts": [16],
            "vector_bytes": [1024, 65536],
        }
    ],
}


def synthetic_records() -> list[SweepRecord]:
    """A fixed, model-independent record set for golden figures.

    Covers the figure edge cases on purpose: a missing grid cell at
    (16, 64 KiB), a Bine win with and without a non-Bine competitor, a
    single-sample improvement distribution, and non-power-of-two p=6.
    """
    rows = [
        # (collective, algorithm, family, p, n_bytes, time, global_bytes)
        ("bcast", "bine", "bine", 4, 1024, 1.0e-6, 10.0),
        ("bcast", "binomial-dd", "binomial", 4, 1024, 1.3e-6, 14.0),
        ("bcast", "ring", "ring", 4, 65536, 2.0e-6, 20.0),
        ("bcast", "bine", "bine", 4, 65536, 2.5e-6, 18.0),
        ("bcast", "bine", "bine", 6, 1024, 1.1e-6, 11.0),
        ("bcast", "binomial-dd", "binomial", 6, 1024, 1.05e-6, 12.0),
        ("bcast", "bine", "bine", 16, 1024, 1.4e-6, 30.0),  # no competitor
        # (16, 65536) intentionally missing
        ("allreduce", "bine-rsag", "bine", 4, 1024, 3.0e-6, 40.0),
        ("allreduce", "rabenseifner", "sota", 4, 1024, 3.9e-6, 52.0),
        ("allreduce", "ring", "ring", 4, 65536, 6.0e-6, 80.0),
        ("allreduce", "bine-rsag", "bine", 4, 65536, 7.0e-6, 70.0),
    ]
    return [SweepRecord("testsys", *row) for row in rows]


GOLDEN_HEATMAP = DATA_DIR / "golden_heatmap.svg"
GOLDEN_BOXPLOT = DATA_DIR / "golden_boxplot.svg"


def render_goldens() -> dict[Path, str]:
    records = synthetic_records()
    return {
        GOLDEN_HEATMAP: heatmap_figure(records, "bcast", title="golden: bcast"),
        GOLDEN_BOXPLOT: boxplot_figure(
            records, ("bcast", "allreduce"), title="golden: improvement"
        ),
    }


# -- SVG layer ---------------------------------------------------------------


class TestSvg:
    def test_fmt_fixed(self):
        assert fmt(12.0) == "12"
        assert fmt(12.50) == "12.5"
        assert fmt(-0.0001) == "0"
        assert fmt(3) == "3"

    def test_canvas_escapes_text(self):
        c = SvgCanvas(10, 10)
        c.text(0, 0, "a<b&c")
        assert "a&lt;b&amp;c" in c.render()

    def test_canvas_no_timestamps(self):
        c = SvgCanvas(10, 10)
        c.rect(0, 0, 5, 5, fill="#fff")
        assert c.render() == SvgCanvas(10, 10).render().replace(
            "</svg>", '<rect x="0" y="0" width="5" height="5" fill="#fff"/>\n</svg>'
        )


# -- golden figures ----------------------------------------------------------


class TestGoldenFigures:
    @pytest.mark.parametrize("path", [GOLDEN_HEATMAP, GOLDEN_BOXPLOT])
    def test_golden_bytes(self, path):
        rendered = render_goldens()[path]
        assert path.exists(), (
            f"{path} missing — regenerate with "
            "`PYTHONPATH=src python tests/test_report.py --regen`"
        )
        assert path.read_text() == rendered + "\n", (
            f"{path.name} drifted from a fresh render; if the figure "
            "change is intentional, regenerate with "
            "`PYTHONPATH=src python tests/test_report.py --regen`"
        )

    def test_render_is_deterministic(self):
        first = render_goldens()
        second = render_goldens()
        assert first == second

    def test_heatmap_marks_missing_and_bine_cells(self):
        svg = render_goldens()[GOLDEN_HEATMAP]
        assert "no record" in svg          # the (16, 64 KiB) hole
        assert ">BINE</text>" in svg       # bine win without competitor
        assert ">1.30</text>" in svg       # bine win ratio over binomial
        assert ">N</text>" in svg          # binomial letter at p=6
        assert ">R</text>" in svg          # ring letter at (4, 64 KiB)

    def test_boxplot_single_sample_and_empty_groups(self):
        # single improvement sample: box collapses to a line, no crash
        svg = boxplot_svg([("one", None), ("two", None)], title="empty")
        assert "no winning" in svg
        from repro.analysis.boxplot import box_stats

        svg = boxplot_svg([("single", box_stats([5.0]))])
        assert "n=1" in svg

    def test_unknown_family_fails_loudly(self):
        records = [SweepRecord("s", "bcast", "x", "mystery", 4, 32, 1e-6, 1.0),
                   SweepRecord("s", "bcast", "y", "ring", 4, 32, 2e-6, 1.0)]
        with pytest.raises(ValueError, match="mystery"):
            heatmap_figure(records, "bcast")


# -- record-set loading ------------------------------------------------------


class TestLoader:
    def test_sweep_records_roundtrip(self, tmp_path):
        records = synthetic_records()
        path = tmp_path / "records.json"
        path.write_text(json.dumps([r.to_dict() for r in records]))
        rs = load_record_set(path)
        assert rs.kind == "sweep"
        assert len(rs.rows) == len(records)

    def test_baseline_wrapper_unwraps(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text(json.dumps(
            {"baseline_of": "x", "records": [r.to_dict() for r in synthetic_records()]}
        ))
        assert load_record_set(path).kind == "sweep"

    def test_verify_records(self):
        rows = [{
            "collective": "bcast", "algorithm": "bine", "family": "bine",
            "p": 8, "n": 32, "seeds": 2, "engine": "compiled",
            "status": "ok", "detail": "", "elapsed_s": 0.01,
        }]
        rs = record_set_from_json(rows, "verify")
        assert rs.kind == "verify"
        assert rs.rows[("bcast", "bine", 8, 32, 2, "compiled")]["status"] == "ok"

    def test_bench_blobs_parse_as_metrics(self):
        # the repo-root benchmark blobs must always load under the diff
        # engine (schema check): flat metrics, self-diff clean
        for name in ("BENCH_sweep.json", "BENCH_verify.json"):
            rs = load_record_set(REPO_ROOT / name)
            assert rs.kind == "metrics"
            assert len(rs.rows) > 5
            assert not diff_record_sets(rs, rs).drifted

    def test_duplicate_cells_rejected(self):
        rows = [synthetic_records()[0].to_dict()] * 2
        with pytest.raises(RecordSetError, match="duplicate"):
            record_set_from_json(rows, "dup")

    def test_row_missing_field_rejected(self):
        # first row complete, later row missing a field: clean error, not
        # a raw KeyError from deep inside the keying loop
        rows = [r.to_dict() for r in synthetic_records()[:3]]
        del rows[2]["time"]
        with pytest.raises(RecordSetError, match="row #2.*'time'"):
            record_set_from_json(rows, "partial")

    def test_to_records_roundtrip(self):
        records = synthetic_records()
        rs = record_set_from_records(records, "rt")
        assert rs.to_records() == records
        metrics = load_record_set(REPO_ROOT / "BENCH_sweep.json")
        with pytest.raises(RecordSetError, match="metrics"):
            metrics.to_records()

    def test_garbage_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        with pytest.raises(RecordSetError, match="not valid JSON"):
            load_record_set(bad)
        with pytest.raises(RecordSetError, match="neither sweep"):
            record_set_from_json([{"x": 1}], "weird")
        with pytest.raises(RecordSetError, match="array or object"):
            record_set_from_json(3, "scalar")
        with pytest.raises(RecordSetError, match="objects"):
            record_set_from_json([1, 2], "ints")


# -- diffing -----------------------------------------------------------------


class TestDiff:
    def sets(self):
        records = synthetic_records()
        return (record_set_from_records(records, "a"),
                record_set_from_records(records, "b"))

    def test_self_diff_clean(self):
        a, b = self.sets()
        diff = diff_record_sets(a, b)
        assert not diff.drifted
        assert diff.unchanged == len(a.rows)

    def test_changed_cell_named(self):
        a, _ = self.sets()
        records = synthetic_records()
        perturbed = records[:3] + [
            SweepRecord(**{**records[3].to_dict(), "time": records[3].time * 1.05})
        ] + records[4:]
        diff = diff_record_sets(a, record_set_from_records(perturbed, "b"))
        assert diff.drifted
        assert len(diff.changed) == 1
        (change,) = diff.changed
        assert change.fields[0].field == "time"
        assert change.fields[0].rel == pytest.approx(0.05 / 1.05, rel=1e-6)
        assert "bine" in a.key_str(change.key)

    def test_tolerance_absorbs_drift(self):
        a, _ = self.sets()
        records = synthetic_records()
        perturbed = [
            SweepRecord(**{**r.to_dict(), "time": r.time * (1 + 1e-7)})
            for r in records
        ]
        b = record_set_from_records(perturbed, "b")
        assert diff_record_sets(a, b, tolerance=1e-6).drifted is False
        assert diff_record_sets(a, b, tolerance=1e-9).drifted is True

    def test_added_and_removed(self):
        records = synthetic_records()
        a = record_set_from_records(records[:-1], "a")
        b = record_set_from_records(records[1:], "b")
        diff = diff_record_sets(a, b)
        assert len(diff.added) == 1 and len(diff.removed) == 1

    def test_family_retag_is_drift(self):
        records = synthetic_records()
        retagged = [SweepRecord(**{**records[0].to_dict(), "family": "sota"})]
        diff = diff_record_sets(
            record_set_from_records(records[:1], "a"),
            record_set_from_records(retagged, "b"),
        )
        assert diff.drifted
        assert diff.changed[0].fields[0].field == "family"
        assert diff.changed[0].fields[0].rel is None  # non-numeric: exact

    def test_disjoint_key_sets_surface_in_summary(self, tmp_path, capsys):
        # regression: two BENCH-style metric blobs with no keys in common
        # must surface every added/removed key in the summary — and say
        # outright that nothing aligned, instead of a quiet "0 changed"
        from repro.report.diff import diff_summary

        ref = tmp_path / "BENCH_old.json"
        cand = tmp_path / "BENCH_new.json"
        ref.write_text(json.dumps({"sweep_cold_s": 1.5, "sweep_warm_s": 0.2}))
        cand.write_text(json.dumps({"verify_cold_s": 3.0, "verify_warm_s": 0.4}))
        a = load_record_set(ref)
        b = load_record_set(cand)
        diff = diff_record_sets(a, b)
        assert diff.drifted
        assert len(diff.added) == 2 and len(diff.removed) == 2
        summary = diff_summary(diff)
        assert "2 added, 2 removed" in summary
        for key in ("sweep_cold_s", "sweep_warm_s", "verify_cold_s",
                    "verify_warm_s"):
            assert key in summary
        assert "share no cells" in summary
        # end to end through the CLI: exit 1 and the note on stdout
        from repro.cli.main import main

        assert main(["compare", str(ref), str(cand)]) == 1
        out = capsys.readouterr().out
        assert "share no cells" in out and "added verify_cold_s" in out

    def test_partial_overlap_has_no_disjoint_note(self):
        from repro.report.diff import diff_summary

        records = synthetic_records()
        diff = diff_record_sets(
            record_set_from_records(records[:-1], "a"),
            record_set_from_records(records[1:], "b"),
        )
        assert "share no cells" not in diff_summary(diff)

    def test_kind_mismatch_rejected(self):
        a, _ = self.sets()
        metrics = load_record_set(REPO_ROOT / "BENCH_sweep.json")
        with pytest.raises(RecordSetError, match="cannot diff"):
            diff_record_sets(a, metrics)

    def test_renderers_cover_all_sections(self):
        from repro.report.diff import diff_json, diff_markdown, diff_summary, diff_table

        records = synthetic_records()
        a = record_set_from_records(records, "a")
        perturbed = [
            SweepRecord(**{**r.to_dict(), "time": r.time * 2}) for r in records[:1]
        ] + records[2:]
        b = record_set_from_records(perturbed, "b")
        diff = diff_record_sets(a, b)
        summary = diff_summary(diff)
        assert "DRIFT" in summary and "changed" in summary and "removed" in summary
        assert "| changed |" in diff_markdown(diff)
        assert "changed" in diff_table(diff)
        payload = json.loads(diff_json(diff))
        assert payload["drifted"] is True
        assert payload["cells"]["changed"] == 1


# -- baseline gate -----------------------------------------------------------


class TestBaseline:
    def test_freeze_and_gate(self, tmp_path):
        manifest = manifest_from_dict(TINY_MANIFEST)
        manifest_path = tmp_path / "tiny.json"
        manifest_path.write_text(json.dumps(TINY_MANIFEST))
        records = run_campaign(manifest).records
        baseline = write_baseline(tmp_path / "base.json", manifest, records)
        # identical rerun: clean gate
        diff = check_baseline(baseline, manifest_path)
        assert not diff.drifted
        # perturb the frozen copy: the gate must name the drifted cell
        payload = json.loads(baseline.read_text())
        payload["records"][0]["time"] *= 1.5
        baseline.write_text(json.dumps(payload))
        diff = check_baseline(baseline, manifest_path)
        assert diff.drifted and len(diff.changed) == 1

    def test_context_mismatch_rejected(self, tmp_path):
        manifest = manifest_from_dict(TINY_MANIFEST)
        manifest_path = tmp_path / "tiny.json"
        manifest_path.write_text(json.dumps(TINY_MANIFEST))
        baseline = write_baseline(
            tmp_path / "base.json", manifest, run_campaign(manifest).records
        )
        # same records, different frozen context: gate must refuse, not
        # report misleading cell-level drift
        payload = json.loads(baseline.read_text())
        payload["seed"] = 99
        baseline.write_text(json.dumps(payload))
        with pytest.raises(RecordSetError, match="seed"):
            check_baseline(baseline, manifest_path)

    def test_baseline_is_deterministic_json(self, tmp_path):
        manifest = manifest_from_dict(TINY_MANIFEST)
        records = run_campaign(manifest).records
        p1 = write_baseline(tmp_path / "b1.json", manifest, records)
        p2 = write_baseline(tmp_path / "b2.json", manifest, records)
        assert p1.read_text() == p2.read_text()


# -- artifacts ---------------------------------------------------------------


class TestArtifacts:
    def test_render_report_writes_everything(self, tmp_path):
        records = synthetic_records()
        written = render_report(records, tmp_path, name="t", source="synthetic")
        names = {p.name for p in written}
        assert {"heatmap_bcast.svg", "heatmap_allreduce.svg",
                "boxplot_improvement.svg", "index.md", "index.html"} == names
        index = (tmp_path / "index.md").read_text()
        digest = records_digest(records)
        assert digest in index
        for figure in names - {"index.md", "index.html"}:
            assert figure in index
            assert figure in (tmp_path / "index.html").read_text()

    def test_render_report_deterministic(self, tmp_path):
        records = synthetic_records()
        render_report(records, tmp_path / "r1", name="t", source="s")
        render_report(records, tmp_path / "r2", name="t", source="s")
        for p1 in sorted((tmp_path / "r1").iterdir()):
            p2 = tmp_path / "r2" / p1.name
            assert p1.read_bytes() == p2.read_bytes()

    def test_multi_system_records_render_per_system(self, tmp_path):
        # two sub-torus tags at the same p must not merge into one heatmap
        records = [
            SweepRecord("fugaku:4x4x4", "bcast", "bine-torus", "bine",
                        64, 1024, 1.0e-6, 8.0),
            SweepRecord("fugaku:4x4x4", "bcast", "binomial", "binomial",
                        64, 1024, 2.0e-6, 9.0),
            SweepRecord("fugaku:8x8", "bcast", "bine-torus", "bine",
                        64, 1024, 3.0e-6, 8.0),
            SweepRecord("fugaku:8x8", "bcast", "binomial", "binomial",
                        64, 1024, 1.5e-6, 9.0),
        ]
        written = render_report(records, tmp_path, name="t", source="s")
        names = {p.name for p in written}
        assert "heatmap_bcast_fugaku-4x4x4.svg" in names
        assert "heatmap_bcast_fugaku-8x8.svg" in names
        assert "heatmap_bcast.svg" not in names
        # each figure reflects only its own sub-torus' winner
        svg_4x4x4 = (tmp_path / "heatmap_bcast_fugaku-4x4x4.svg").read_text()
        svg_8x8 = (tmp_path / "heatmap_bcast_fugaku-8x8.svg").read_text()
        assert ">2.00</text>" in svg_4x4x4  # bine wins 4x4x4 at ratio 2
        assert ">N</text>" in svg_8x8       # binomial wins 8x8

    def test_digest_order_independent(self):
        records = synthetic_records()
        assert records_digest(records) == records_digest(records[::-1])
        assert records_digest(records) != records_digest(records[:-1])

    @pytest.mark.parametrize("count", [0, 1, None], ids=["none", "one", "many"])
    def test_streamed_digest_equals_joined_text(self, count):
        # the digest hashes the sorted JSON rows joined by newlines
        records = synthetic_records()[:count]
        rows = sorted(json.dumps(r.to_dict(), sort_keys=True) for r in records)
        joined = hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]
        assert records_digest(records) == joined
        assert count != 0 or joined == hashlib.sha256(b"").hexdigest()[:16]


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        DATA_DIR.mkdir(exist_ok=True)
        for path, svg in render_goldens().items():
            path.write_text(svg + "\n")
            print(f"wrote {path}")
    else:
        print(__doc__)
