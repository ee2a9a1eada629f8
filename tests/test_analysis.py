"""Tests for the analysis layer: sweeps, summaries, heatmaps, Fig. 5 study."""

import pytest

from repro.analysis.boxplot import box_stats, format_box_row
from repro.analysis.heatmap import (
    FAMILY_LETTERS,
    families_without_letter,
    family_letter,
    human_bytes,
    render_heatmap,
)
from repro.analysis.jobs import allreduce_traffic_reduction, run_study
from repro.analysis.summarize import (
    best_algorithm_cells,
    bine_improvement_distribution,
    family_duel,
    format_duel_table,
    geometric_mean,
)
from repro.analysis.sweep import ProfileCache, SweepRecord, sweep_system
from repro.systems import lumi, marenostrum5
from repro.topology.allocation import SystemShape


@pytest.fixture(scope="module")
def small_sweep():
    preset = marenostrum5()
    cache = ProfileCache(preset, placement="scheduler", seed=1)
    return sweep_system(
        preset,
        ("allreduce", "bcast"),
        node_counts=(8, 32),
        vector_bytes=(256, 64 * 1024, 8 * 1024**2),
        cache=cache,
    )


class TestSweep:
    def test_record_fields(self, small_sweep):
        assert small_sweep
        r = small_sweep[0]
        assert r.system == "marenostrum5"
        assert r.time > 0
        assert r.global_bytes >= 0

    def test_grid_coverage(self, small_sweep):
        cells = {(r.collective, r.p, r.n_bytes) for r in small_sweep}
        assert ("allreduce", 8, 256) in cells
        assert ("bcast", 32, 8 * 1024**2) in cells

    def test_block_placement_differs(self):
        # 256 nodes exceed one 160-node subtree, so placement matters.
        preset = marenostrum5()
        rec_sched = sweep_system(
            preset, ("allreduce",), node_counts=(256,), vector_bytes=(64 * 1024,),
            algorithms=("bine-rsag",), placement="scheduler",
        )
        rec_block = sweep_system(
            preset, ("allreduce",), node_counts=(256,), vector_bytes=(64 * 1024,),
            algorithms=("bine-rsag",), placement="block",
        )
        assert rec_sched[0].time != rec_block[0].time or (
            rec_sched[0].global_bytes != rec_block[0].global_bytes
        )

    def test_bad_placement_rejected(self):
        with pytest.raises(ValueError):
            ProfileCache(marenostrum5(), placement="nope")


class TestSummaries:
    def test_family_duel(self, small_sweep):
        duel = family_duel(small_sweep, "allreduce")
        assert duel.cells == 6
        assert 0 <= duel.win_pct <= 100
        assert duel.win_pct + duel.loss_pct <= 100

    def test_duel_formatting(self, small_sweep):
        text = format_duel_table([family_duel(small_sweep, "allreduce")])
        assert "allreduce" in text

    def test_missing_collective(self, small_sweep):
        with pytest.raises(ValueError):
            family_duel(small_sweep, "alltoall")

    def test_best_cells_and_distribution(self, small_sweep):
        cells = best_algorithm_cells(small_sweep, "allreduce")
        assert len(cells) == 6
        pct, improvements = bine_improvement_distribution(small_sweep, "allreduce")
        assert 0 <= pct <= 100
        assert all(i > 0 for i in improvements)

    def test_geometric_mean(self):
        assert geometric_mean([2, 8]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0


class TestRendering:
    def test_human_bytes(self):
        assert human_bytes(32) == "32 B"
        assert human_bytes(2048) == "2 KiB"
        assert human_bytes(8 * 1024**2) == "8 MiB"

    def test_heatmap_renders(self, small_sweep):
        cells = best_algorithm_cells(small_sweep, "allreduce")
        text = render_heatmap(cells, (8, 32), (256, 64 * 1024, 8 * 1024**2))
        assert "64 KiB" in text

    def test_box_stats(self):
        stats = box_stats([1, 2, 3, 4, 100])
        assert stats.median == 3
        assert stats.whisker_hi < 100  # outlier excluded from whisker
        assert stats.max == 100
        assert "med=" in format_box_row("x", stats)

    def test_box_stats_empty(self):
        with pytest.raises(ValueError):
            box_stats([])

    def test_box_stats_single_sample(self):
        stats = box_stats([7.5])
        assert stats.count == 1
        assert stats.q1 == stats.median == stats.q3 == 7.5
        assert stats.whisker_lo == stats.whisker_hi == 7.5
        assert stats.mean == stats.min == stats.max == 7.5

    def test_box_stats_zero_iqr(self):
        # all-identical values: IQR is 0, whiskers must collapse, not crash
        stats = box_stats([3.0] * 12)
        assert stats.q1 == stats.q3 == stats.median == 3.0
        assert stats.whisker_lo == stats.whisker_hi == 3.0


class TestFamilyLetters:
    def mk(self, family, p=8, nb=1024):
        return SweepRecord("s", "bcast", "algo", family, p, nb, 1e-6, 8.0)

    def test_known_letters(self):
        assert family_letter("ring") == "R"
        assert family_letter("binomial") == "N"

    def test_unknown_family_fails_loudly(self):
        with pytest.raises(ValueError, match="carrier-pigeon"):
            family_letter("carrier-pigeon")

    def test_registry_families_all_covered(self):
        # a newly registered family without a FAMILY_LETTERS entry would
        # break heatmap rendering — fail here first, naming the family
        assert families_without_letter() == []

    def test_torus_catalog_families_covered(self, monkeypatch):
        from repro.analysis import heatmap

        letters = {f: c for f, c in FAMILY_LETTERS.items()
                   if f not in ("bucket", "trinaryx")}
        monkeypatch.setattr(heatmap, "FAMILY_LETTERS", letters)
        assert families_without_letter() == ["bucket", "trinaryx"]

    def test_render_heatmap_unknown_family_fails_loudly(self):
        cells = {(8, 1024): (self.mk("carrier-pigeon"), None)}
        with pytest.raises(ValueError, match="carrier-pigeon"):
            render_heatmap(cells, (8,), (1024,))

    def test_render_heatmap_missing_cells_blank(self):
        # only one of four grid cells present: the rest render as blanks
        cells = {(8, 1024): (self.mk("ring"), None)}
        text = render_heatmap(cells, (8, 32), (1024, 65536))
        assert "R" in text
        assert len([ln for ln in text.splitlines() if ln.strip()]) >= 4

    def test_render_heatmap_non_pow2_nodes(self):
        cells = {
            (6, 1024): (self.mk("ring", p=6), None),
            (24, 1024): (self.mk("bine", p=24), 1.23),
        }
        text = render_heatmap(cells, (6, 24), (1024,), title="non-pow2")
        assert "non-pow2" in text and "1.23" in text

    def test_render_heatmap_bine_without_ratio(self):
        cells = {(8, 1024): (self.mk("bine"), None)}
        assert "BINE" in render_heatmap(cells, (8,), (1024,))

    def test_letters_are_unique(self):
        letters = list(FAMILY_LETTERS.values())
        assert len(letters) == len(set(letters))


class TestFig5Study:
    def test_single_group_zero_reduction(self):
        assert allreduce_traffic_reduction([0] * 16) == 0.0

    def test_irregular_groups_positive_reduction(self):
        # 256 ranks over ~96-node groups (non-power-of-two, like real
        # systems' 124/180): Bine cuts global traffic.
        groups = [min(r // 96, 2) for r in range(256)]
        red = allreduce_traffic_reduction(groups)
        assert 0 < red <= 1 / 3 + 1e-9

    def test_aligned_pow2_groups_are_adversarial(self):
        # With perfectly aligned power-of-two groups, recursive doubling's
        # crossings are minimal and Bine can *increase* traffic — the
        # counterexample class the paper concedes in Sec. 2.2.
        groups = [r // 128 for r in range(256)]
        red = allreduce_traffic_reduction(groups)
        assert red < 0

    def test_study_shape(self):
        shape = SystemShape("t", 8, 32)
        study = run_study(shape, (8, 64), jobs_per_count=5, seed=0,
                          busy_fraction=0.7)
        assert set(study.reductions) == {8, 64}
        assert all(len(v) == 5 for v in study.reductions.values())
        for vals in study.reductions.values():
            assert all(v <= 1 / 3 + 1e-9 for v in vals)
