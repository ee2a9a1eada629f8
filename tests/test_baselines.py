"""Committed Table 3-5 baselines gate the model in tier-1.

``campaigns/baselines/*.json`` freeze the paper-table campaigns' records
(written by ``repro compare <baseline> <manifest> --update``).  Every
tier-1 run reruns the campaigns and diffs them cell by cell at the
bit-stable tolerance (1e-9 relative — see ``docs/reporting.md``): the
sweep pipeline is deterministic end to end, so any drift means the model
changed.  Intentional model evolution re-freezes with ``--update`` and
explains itself in the commit; everything else is a regression.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.report.baseline import check_baseline
from repro.report.diff import DEFAULT_TOLERANCE, diff_summary

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINES = REPO_ROOT / "campaigns" / "baselines"

#: the paper-table campaigns gated in tier-1 (the torus baselines,
#: ``appd_torus`` and ``fig11b_fugaku``, gate in a CI step instead)
GATED = ("table3_lumi", "table4_leonardo", "table5_mn5")


@pytest.mark.parametrize("name", GATED)
def test_campaign_matches_committed_baseline(name):
    diff = check_baseline(
        BASELINES / f"{name}.json",
        REPO_ROOT / "campaigns" / f"{name}.toml",
        tolerance=DEFAULT_TOLERANCE,
    )
    assert not diff.drifted, (
        f"{name} drifted from its committed baseline "
        f"(re-freeze with `repro compare campaigns/baselines/{name}.json "
        f"campaigns/{name}.toml --update` if the change is intentional):\n"
        + diff_summary(diff)
    )


def test_every_paper_table_campaign_has_a_baseline():
    # adding a table manifest without freezing its baseline should fail
    # loudly here, not silently skip the gate
    manifests = {p.stem for p in (REPO_ROOT / "campaigns").glob("table*.toml")}
    assert manifests == set(GATED)
    for name in GATED:
        assert (BASELINES / f"{name}.json").exists()
