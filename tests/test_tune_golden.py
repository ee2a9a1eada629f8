"""Golden decision-table artifact: frozen bytes from the Table 3 campaign.

``tests/data/golden_tune_lumi.json`` is the decision table compiled from
a fixed slice of ``campaigns/table3_lumi.toml`` (bcast + allreduce,
p ∈ {16, 64}, three paper vector sizes).  The same contract as the
golden SVGs: a rebuild must be byte-identical — under serial execution
and ``--workers 2`` sharding — and every winner in
the table must equal the corresponding Fig. 9a heatmap cell.

Regenerate after an intentional model change with::

    PYTHONPATH=src python tests/test_tune_golden.py --regen
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.summarize import best_algorithm_cells
from repro.cli.campaign import run_campaign
from repro.cli.commands import _restrict_manifest
from repro.cli.main import main
from repro.cli.manifest import load_manifest
from repro.tune import DecisionTable, build_decision_table

REPO_ROOT = Path(__file__).resolve().parents[1]
MANIFEST = REPO_ROOT / "campaigns" / "table3_lumi.toml"
DATA_DIR = Path(__file__).parent / "data"
GOLDEN = DATA_DIR / "golden_tune_lumi.json"

#: the frozen slice: two collectives, two node counts, three paper sizes
COLLECTIVES = ("bcast", "allreduce")
NODES = (16, 64)
SIZES = (2048, 131072, 1048576)


def build_golden_table(workers=None) -> DecisionTable:
    manifest = load_manifest(MANIFEST)
    manifest, error = _restrict_manifest(manifest, COLLECTIVES, NODES, SIZES)
    assert error is None
    result = run_campaign(manifest, workers=workers)
    return build_decision_table(
        result.records, name=manifest.name, source="campaigns/table3_lumi.toml"
    ), result.records


class TestGoldenTuneArtifact:
    @pytest.fixture(scope="class")
    def built(self):
        return build_golden_table()

    def test_golden_bytes(self, built):
        table, _ = built
        assert GOLDEN.exists(), (
            f"{GOLDEN} missing — regenerate with "
            "`PYTHONPATH=src python tests/test_tune_golden.py --regen`"
        )
        assert GOLDEN.read_text() == table.to_json(), (
            "golden_tune_lumi.json drifted from a fresh build; if the "
            "model change is intentional, regenerate with "
            "`PYTHONPATH=src python tests/test_tune_golden.py --regen`"
        )

    def test_golden_loads_and_validates(self):
        table = DecisionTable.from_dict(
            json.loads(GOLDEN.read_text()), label=str(GOLDEN)
        )
        assert table.name == "table3-lumi"
        assert {t.collective for t in table.tables} == set(COLLECTIVES)
        for sub in table.tables:
            assert sub.p_grid == NODES
            assert sub.n_grid == SIZES
            assert sub.cells == len(NODES) * len(SIZES)

    def test_byte_identical_with_workers(self, built):
        table, _ = built
        again, _ = build_golden_table(workers=2)
        assert again.to_json() == table.to_json(), (
            "decision table bytes differ under workers=2"
        )

    def test_every_winner_matches_fig9a_heatmap_cell(self, built):
        # the acceptance gate: the artifact and the Fig. 9a heatmaps must
        # name the same winner in every cell, because both are computed by
        # best_algorithm_cells over the same records
        table, records = built
        for sub in table.tables:
            own = [
                r for r in records
                if (r.system, r.faults, r.collective, r.ppn) == sub.key
            ]
            heatmap = best_algorithm_cells(own, sub.collective)
            for i, p in enumerate(sub.p_grid):
                for j, nb in enumerate(sub.n_grid):
                    best, _ratio = heatmap[(p, nb)]
                    assert sub.winner[i][j] == best.algorithm, (
                        f"{sub.collective} p={p} n={nb}: table says "
                        f"{sub.winner[i][j]}, heatmap says {best.algorithm}"
                    )

    def test_cli_build_matches_library_build(self, built, tmp_path, capsys):
        table, _ = built
        out = tmp_path / "cli_table.json"
        code = main([
            "tune", str(MANIFEST),
            "--collective", "bcast", "--collective", "allreduce",
            "--nodes", "16,64", "--sizes", "2048,131072,1048576",
            "-o", str(out),
        ])
        capsys.readouterr()
        assert code == 0
        built_cli = json.loads(out.read_text())
        expect = json.loads(table.to_json())
        # "source" records the operand as typed (absolute here), and the
        # integrity digest covers it — everything else must be identical
        for volatile in ("source", "digest"):
            built_cli.pop(volatile)
            expect.pop(volatile)
        assert built_cli == expect


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        DATA_DIR.mkdir(exist_ok=True)
        table, _ = build_golden_table()
        GOLDEN.write_text(table.to_json())
        print(f"wrote {GOLDEN} ({table.cells} cells)")
    else:
        print(__doc__)
