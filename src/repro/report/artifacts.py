"""Figure rendering orchestration plus the artifact manifest index.

:func:`render_report` is the one entry point ``repro plot`` and
``benchmarks/_shared.py`` share: render every figure a record set
supports (one heatmap per collective, one improvement boxplot across
collectives) and write ``index.md`` / ``index.html`` linking each figure
to its source manifest, placement context, and the SHA-256 digest of the
exact records it was rendered from.  Everything written is byte-
deterministic — rerunning the same campaign reproduces every artifact
bit for bit, which is what makes the index's digest a cache key.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from html import escape
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.analysis.sweep import SweepRecord

if TYPE_CHECKING:
    from repro.cli.manifest import CampaignManifest

__all__ = ["Artifact", "records_digest", "render_report", "write_index"]


@dataclass(frozen=True)
class Artifact:
    """One generated figure file plus its provenance caption."""

    filename: str
    kind: str  # 'heatmap' | 'boxplot'
    description: str


def records_digest(records: Sequence[SweepRecord]) -> str:
    """SHA-256 over the canonical JSON of the records (order-independent).

    Example::

        >>> r = SweepRecord("lumi", "bcast", "bine", "bine", 16, 32, 1e-6, 64.0)
        >>> records_digest([r]) == records_digest([r])
        True
        >>> len(records_digest([r]))
        16
    """
    digest = hashlib.sha256()  # the sorted rows joined by newlines, streamed
    for i, row in enumerate(sorted(json.dumps(r.to_dict(), sort_keys=True) for r in records)):
        digest.update(b"\n" * bool(i) + row.encode())
    return digest.hexdigest()[:16]


def write_index(
    out_dir: Path,
    artifacts: Sequence[Artifact],
    *,
    name: str,
    source: str,
    system: str,
    placement: str,
    seed: int,
    digest: str,
    record_count: int,
) -> list[Path]:
    """Write ``index.md`` and ``index.html`` describing every artifact."""
    md = [
        f"# Report: {name}",
        "",
        f"- source: `{source}`",
        f"- system: `{system}`",
        f"- placement: `{placement}` (seed {seed})",
        f"- records: {record_count} (sha256 `{digest}`)",
        "",
        "| figure | kind | description |",
        "|---|---|---|",
    ]
    html = [
        "<!DOCTYPE html>",
        "<html><head><meta charset=\"utf-8\">"
        f"<title>Report: {escape(name)}</title></head><body>",
        f"<h1>Report: {escape(name)}</h1>",
        "<ul>",
        f"<li>source: <code>{escape(source)}</code></li>",
        f"<li>system: <code>{escape(system)}</code></li>",
        f"<li>placement: <code>{escape(placement)}</code> (seed {seed})</li>",
        f"<li>records: {record_count} (sha256 <code>{escape(digest)}</code>)</li>",
        "</ul>",
    ]
    for art in artifacts:
        md.append(
            f"| [{art.filename}]({art.filename}) | {art.kind} "
            f"| {art.description} |"
        )
        html.append(
            f"<figure><img src=\"{escape(art.filename)}\" "
            f"alt=\"{escape(art.description)}\">"
            f"<figcaption>{escape(art.description)}</figcaption></figure>"
        )
    html.append("</body></html>")
    index_md = out_dir / "index.md"
    index_html = out_dir / "index.html"
    index_md.write_text("\n".join(md) + "\n")
    index_html.write_text("\n".join(html) + "\n")
    return [index_md, index_html]


def render_report(
    records: Sequence[SweepRecord],
    out_dir: str | Path,
    *,
    name: str,
    source: str,
    manifest: CampaignManifest | None = None,
    collectives: Sequence[str] | None = None,
) -> list[Path]:
    """Render every figure for ``records`` into ``out_dir`` plus the index.

    ``collectives`` restricts/orders the figures; by default every
    collective present in the records gets a heatmap, and all of them
    share one improvement boxplot.  Record sets spanning several system
    tags (the Fugaku sub-torus campaigns) or fault scenarios (degraded-
    fabric campaigns) get one figure set per (system, scenario) pair,
    suffixed with the tags.  Returns the written paths (figures first,
    then ``index.md`` / ``index.html``).
    """
    # the figure layer loads only when figures are drawn, not for digests
    from repro.report.figures import boxplot_figure, heatmap_figure

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if collectives is None:
        seen: dict[str, None] = {}
        for r in records:
            seen.setdefault(r.collective)
        collectives = tuple(seen)
    # Figures are rendered per (system tag, fault scenario): multi-sub-torus
    # campaigns (e.g. Fig. 11b's fugaku:4x4x4 and fugaku:8x8, both 64
    # ranks) and degraded-fabric scenarios would otherwise merge distinct
    # topologies / fabric conditions into one heatmap cell.  A fault
    # timeline extends the scenario label (``faults@timeline``), and
    # stalled DES records are dropped — a stalled run has no completion
    # time to plot (the index digest still covers the full record set).
    def scenario_of(r):
        return r.faults if r.timeline == "none" else f"{r.faults}@{r.timeline}"

    plottable = [r for r in records if not r.stalled]
    panes = sorted({(r.system, scenario_of(r)) for r in plottable})
    written: list[Path] = []
    artifacts: list[Artifact] = []
    for system, faults in panes:
        if len(panes) == 1:
            own, suffix, label = list(plottable), "", name
        else:
            own = [
                r for r in plottable
                if r.system == system and scenario_of(r) == faults
            ]
            tag = system if faults == "none" else f"{system}_{faults}"
            suffix = "_" + re.sub(r"[^A-Za-z0-9._-]+", "-", tag)
            label = (f"{name} [{system}]" if faults == "none"
                     else f"{name} [{system}, faults={faults}]")
        for coll in collectives:
            if not any(r.collective == coll for r in own):
                continue
            filename = f"heatmap_{coll}{suffix}.svg"
            svg = heatmap_figure(own, coll, title=f"{label}: {coll}")
            (out_dir / filename).write_text(svg + "\n")
            written.append(out_dir / filename)
            artifacts.append(
                Artifact(filename, "heatmap",
                         f"best algorithm per (nodes x size) cell, {coll}"
                         + (f", {system}" if suffix else "")
                         + (f", faults={faults}"
                            if suffix and faults != "none" else ""))
            )
        boxplot_name = f"boxplot_improvement{suffix}.svg"
        svg = boxplot_figure(own, collectives,
                             title=f"{label}: Bine improvement where it wins")
        (out_dir / boxplot_name).write_text(svg + "\n")
        written.append(out_dir / boxplot_name)
        artifacts.append(
            Artifact(boxplot_name, "boxplot",
                     "Bine improvement distribution per collective"
                     + (f", {system}" if suffix else "")
                     + (f", faults={faults}"
                        if suffix and faults != "none" else ""))
        )
    written.extend(
        write_index(
            out_dir,
            artifacts,
            name=name,
            source=source,
            system=manifest.system if manifest else
            (records[0].system if records else "unknown"),
            placement=manifest.placement if manifest else "unknown",
            seed=manifest.seed if manifest else 0,
            digest=records_digest(records),
            record_count=len(records),
        )
    )
    return written
