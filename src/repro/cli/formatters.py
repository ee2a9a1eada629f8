"""Renderers turning library objects into CLI output.

Everything here is a pure function from data to ``str`` so every
subcommand (and the doc-freshness test) shares one source of truth:
``docs/algorithms.md`` *is* :func:`algorithms_markdown`, and the JSON/CSV
views of a sweep are the same rows in a different syntax
(:data:`repro.analysis.sweep.RECORD_FIELDS` fixes the column order).

Example::

    >>> from repro.analysis.sweep import SweepRecord
    >>> r = SweepRecord("lumi", "bcast", "bine", "bine", 16, 32, 1e-6, 64.0)
    >>> print(records_csv([r]).splitlines()[0])
    system,collective,algorithm,family,p,n_bytes,time,global_bytes,faults,ppn,timeline,stalled
"""

from __future__ import annotations

import csv
import io
import json
from typing import Sequence

from repro.analysis.heatmap import human_bytes
from repro.analysis.summarize import DuelSummary, format_duel_table
from repro.analysis.sweep import RECORD_FIELDS, SweepRecord
from repro.analysis.verifygrid import VERIFY_FIELDS, VerifyRecord
from repro.collectives.registry import COLLECTIVES, families, iter_specs
from repro.runtime.schedule import Schedule, Transfer
from repro.systems import ALL_SYSTEMS

__all__ = [
    "records_json",
    "records_csv",
    "records_markdown",
    "records_table",
    "summaries_json",
    "summaries_text",
    "verify_records_json",
    "verify_records_markdown",
    "verify_records_table",
    "verify_summary_text",
    "tune_table_text",
    "tune_selections_text",
    "cache_sizes_text",
    "trace_stats_text",
    "trace_stats_json",
    "schedule_report",
    "algorithms_text",
    "algorithms_markdown",
    "catalog_dict",
]


# -- sweep records -----------------------------------------------------------


def records_json(records: Sequence[SweepRecord]) -> str:
    """Records as a JSON array of objects (keys in column order).

    Example::

        >>> records_json([])
        '[]'
    """
    return json.dumps([r.to_dict() for r in records], indent=2)


def records_csv(records: Sequence[SweepRecord]) -> str:
    """Records as CSV with a header row, ready for pandas/gnuplot."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=RECORD_FIELDS, lineterminator="\n")
    writer.writeheader()
    for r in records:
        writer.writerow(r.to_dict())
    return buf.getvalue().rstrip("\n")


def records_markdown(records: Sequence[SweepRecord]) -> str:
    """Records as a GitHub-flavoured Markdown table.

    Example::

        >>> records_markdown([]).splitlines()[0].startswith("| system |")
        True
    """
    lines = [
        "| " + " | ".join(RECORD_FIELDS) + " |",
        "|" + "---|" * len(RECORD_FIELDS),
    ]
    for r in records:
        d = r.to_dict()
        d["time"] = f"{d['time']:.6g}"
        d["global_bytes"] = f"{d['global_bytes']:.6g}"
        lines.append("| " + " | ".join(str(d[f]) for f in RECORD_FIELDS) + " |")
    return "\n".join(lines)


def records_table(records: Sequence[SweepRecord]) -> str:
    """Records as an aligned plain-text table (human consumption).

    Example::

        >>> records_table([]).splitlines()[0].split()[:2]
        ['collective', 'algorithm']
    """
    # the faults / timeline / stalled columns only appear when a degraded
    # scenario (or DES timeline) is present, so pristine sweeps keep their
    # historical layout
    degraded = any(r.faults != "none" for r in records)
    timed = any(r.timeline != "none" for r in records)
    stalled = any(r.stalled for r in records)
    hdr = (
        f"{'collective':<15}{'algorithm':<26}{'family':<10}"
        f"{'p':>6}{'size':>9}{'time':>12}{'glob.bytes':>12}"
        + (f"  {'faults':<24}" if degraded else "")
        + (f"  {'timeline':<32}" if timed else "")
        + ("  stalled" if stalled else "")
    )
    lines = [hdr, "-" * len(hdr)]
    for r in records:
        lines.append(
            f"{r.collective:<15}{r.algorithm:<26}{r.family:<10}"
            f"{r.p:>6}{human_bytes(r.n_bytes):>9}"
            f"{r.time:>12.3e}{r.global_bytes:>12.3e}"
            + (f"  {r.faults:<24}" if degraded else "")
            + (f"  {r.timeline:<32}" if timed else "")
            + (f"  {'yes' if r.stalled else 'no':<7}" if stalled else "")
        )
    return "\n".join(lines)


# -- duel summaries ----------------------------------------------------------


def summaries_json(duels: Sequence[DuelSummary]) -> str:
    """Duel summaries (one Table 3/4/5 row per collective) as JSON.

    Example::

        >>> summaries_json([])
        '[]'
    """
    return json.dumps([d.to_dict() for d in duels], indent=2)


def summaries_text(duels: Sequence[DuelSummary], caption: str = "") -> str:
    """The paper-style duel table, optionally captioned.

    Example::

        >>> summaries_text([], caption="Table 3").splitlines()[0]
        'Table 3'
    """
    text = format_duel_table(duels)
    return f"{caption}\n{text}" if caption else text


# -- verification records ----------------------------------------------------


def verify_records_json(records: Sequence[VerifyRecord]) -> str:
    """Verification records as a JSON array (keys in column order).

    Example::

        >>> verify_records_json([])
        '[]'
    """
    return json.dumps([r.to_dict() for r in records], indent=2)


def verify_records_markdown(records: Sequence[VerifyRecord]) -> str:
    """Verification records as a GitHub-flavoured Markdown table.

    Example::

        >>> verify_records_markdown([]).splitlines()[0].startswith("| collective |")
        True
    """
    lines = [
        "| " + " | ".join(VERIFY_FIELDS) + " |",
        "|" + "---|" * len(VERIFY_FIELDS),
    ]
    for r in records:
        d = r.to_dict()
        d["elapsed_s"] = f"{d['elapsed_s']:.4g}"
        lines.append("| " + " | ".join(str(d[f]) for f in VERIFY_FIELDS) + " |")
    return "\n".join(lines)


def verify_records_table(records: Sequence[VerifyRecord]) -> str:
    """Verification records as an aligned plain-text table.

    Example::

        >>> verify_records_table([]).splitlines()[0].split()[:2]
        ['collective', 'algorithm']
    """
    hdr = (
        f"{'collective':<15}{'algorithm':<26}{'p':>6}{'n':>8}{'seeds':>6}"
        f"{'status':>9}{'time':>9}  detail"
    )
    lines = [hdr, "-" * len(hdr)]
    for r in records:
        lines.append(
            f"{r.collective:<15}{r.algorithm:<26}{r.p:>6}{r.n:>8}{r.seeds:>6}"
            f"{r.status:>9}{r.elapsed_s:>8.3f}s  {r.detail}"
        )
    return "\n".join(lines)


def verify_summary_text(records: Sequence[VerifyRecord]) -> str:
    """Per-collective ok/failed/skipped roll-up plus every failure's detail.

    Example::

        >>> verify_summary_text([]).splitlines()[-1]
        'total: 0 cells, 0 ok, 0 failed, 0 skipped (0.0s)'
    """
    by_coll: dict[str, dict[str, int]] = {}
    for r in records:
        counts = by_coll.setdefault(r.collective, {"ok": 0, "failed": 0, "skipped": 0})
        counts[r.status] += 1
    lines = []
    width = max((len(c) for c in by_coll), default=10)
    for coll, counts in by_coll.items():
        cells = sum(counts.values())
        lines.append(
            f"{coll:<{width}}  {cells:>4} cells  {counts['ok']:>4} ok  "
            f"{counts['failed']:>4} failed  {counts['skipped']:>4} skipped"
        )
    failures = [r for r in records if r.status == "failed"]
    if failures:
        lines.append("")
        lines.append("failures:")
        for r in failures:
            lines.append(
                f"  {r.collective}/{r.algorithm} p={r.p} n={r.n}: {r.detail}"
            )
    totals = {"ok": 0, "failed": 0, "skipped": 0}
    for r in records:
        totals[r.status] += 1
    elapsed = sum(r.elapsed_s for r in records)
    if lines:
        lines.append("")
    lines.append(
        f"total: {len(records)} cells, {totals['ok']} ok, "
        f"{totals['failed']} failed, {totals['skipped']} skipped "
        f"({elapsed:.1f}s)"
    )
    return "\n".join(lines)


# -- decision tables ---------------------------------------------------------


def tune_table_text(table) -> str:
    """Digest of a decision-table artifact: provenance plus one line per
    ``(system, faults, collective, ppn)`` sub-table."""
    lines = [
        f"decision table {table.name!r} ({table.source})",
        f"records: {table.record_count} (digest {table.records_digest}), "
        f"{len(table.tables)} sub-tables, {table.cells} cells",
    ]
    for sub in table.tables:
        algos = sorted({w for row in sub.winner for w in row if w is not None})
        lines.append(
            f"  {sub.system}/{sub.faults}/{sub.collective}/ppn={sub.ppn}: "
            f"{len(sub.p_grid)}x{len(sub.n_grid)} grid "
            f"(p {sub.p_grid[0]}..{sub.p_grid[-1]}, "
            f"n {human_bytes(sub.n_grid[0])}..{human_bytes(sub.n_grid[-1])}), "
            f"winners: {', '.join(algos) if algos else 'none'}"
        )
    return "\n".join(lines)


def tune_selections_text(answers: Sequence[tuple[dict, object]]) -> str:
    """``--query`` answers, one aligned line per query."""
    lines = []
    for query, sel in answers:
        q = (
            f"{query['collective']} p={query['p']} "
            f"n={human_bytes(query['n_bytes'])}"
        )
        if sel is None:
            lines.append(f"{q:<40} -> refused (off-grid)")
            continue
        cell = "" if sel.exact else (
            f"  [nearest cell p={sel.p} n={human_bytes(sel.n_bytes)}]"
        )
        margin = f" margin {sel.margin:.3f}x" if sel.margin is not None else ""
        lines.append(f"{q:<40} -> {sel.algorithm} ({sel.family}){margin}{cell}")
    return "\n".join(lines)


# -- telemetry stats ---------------------------------------------------------


def cache_sizes_text(sizes) -> str:
    """Live memo-cache sizes (``repro stats --caches``), one row per cache.

    Example::

        >>> print(cache_sizes_text({"a.cache": 3, "b.cache": 0}))
        a.cache         3
        b.cache         0
        total           3
    """
    if not sizes:
        return "no registered caches"
    width = max(max(len(n) for n in sizes), len("total"))
    lines = [f"{name:<{width}}  {sizes[name]:>7}" for name in sorted(sizes)]
    lines.append(f"{'total':<{width}}  {sum(sizes.values()):>7}")
    return "\n".join(lines)


def _metric_rows(title: str, values) -> list[str]:
    lines = ["", f"{title}:"]
    width = max(len(n) for n in values)
    for name in sorted(values):
        lines.append(f"  {name:<{width}}  {float(values[name]):>12g}")
    return lines


def trace_stats_text(doc) -> str:
    """A stats document (``.stats.json`` sidecar or trace summary) as text.

    Example::

        >>> print(trace_stats_text({"trace": "t.json", "events": 4,
        ...     "counters": {"cache.profile.hit": 5},
        ...     "spans": {
        ...         "sweep.system": {"count": 1, "total_us": 1500.0, "self_us": 300.0},
        ...         "profile.table": {"count": 2, "total_us": 1200.0, "self_us": 1200.0},
        ...     }}))
        trace: t.json  events: 4
        <BLANKLINE>
        counters:
          cache.profile.hit             5
        <BLANKLINE>
        spans:
          name           count       total        self
          profile.table      2      1.20ms      1.20ms
          sweep.system       1      1.50ms      0.30ms

    Sidecars written before self time was recorded show ``-`` there.
    """
    head = []
    if doc.get("trace"):
        head.append(f"trace: {doc['trace']}")
    head.append(f"events: {doc.get('events', 0)}")
    if doc.get("shards"):
        head.append(f"shards: {doc['shards']}")
    lines = ["  ".join(head)]
    for title in ("counters", "gauges"):
        if doc.get(title):
            lines += _metric_rows(title, doc[title])
    spans = doc.get("spans") or {}
    if spans:
        lines += ["", "spans:"]
        width = max(max(len(n) for n in spans), len("name"))
        lines.append(
            f"  {'name':<{width}}  {'count':>5}  {'total':>10}  {'self':>10}"
        )
        for name in sorted(spans):
            agg = spans[name]
            self_us = agg.get("self_us")
            own = "-" if self_us is None else f"{self_us / 1000.0:.2f}ms"
            lines.append(
                f"  {name:<{width}}  {agg['count']:>5}  "
                f"{agg['total_us'] / 1000.0:>8.2f}ms  {own:>10}"
            )
    return "\n".join(lines)


def trace_stats_json(doc) -> str:
    """The stats document as deterministic JSON (``--format json``)."""
    return json.dumps(doc, indent=2, sort_keys=True)


def journal_stats_text(summary) -> str:
    """A record-journal summary (``repro stats RUN.journal``) as text.

    The look-before-you-resume view of a dead run: how many cells each
    scenario has journaled, how many a ``--resume`` would still compute.

    Example::

        >>> print(journal_stats_text({
        ...     "journal": "t.journal", "campaign": "tiny", "system": "lumi",
        ...     "manifest_digest": "ab12", "resumes": 1,
        ...     "truncated_tail": False, "cells_done": 3, "cells_planned": 4,
        ...     "scenarios": {"none": {"planned": 4, "done": 3, "records": 96,
        ...                            "remaining": 1}}}))
        journal: t.journal  campaign: tiny (lumi)  digest: ab12
        cells: 3/4 done, 1 remaining  resumes: 1
        <BLANKLINE>
        scenario      done  planned  remaining  records
        none             3        4          1       96
    """
    lines = [
        f"journal: {summary['journal']}  campaign: {summary['campaign']} "
        f"({summary['system']})  "
        f"digest: {summary['manifest_digest']}",
        f"cells: {summary['cells_done']}/{summary['cells_planned']} done, "
        f"{summary['cells_planned'] - summary['cells_done']} remaining  "
        f"resumes: {summary['resumes']}"
        + ("  (torn tail dropped)" if summary["truncated_tail"] else ""),
    ]
    scenarios = summary["scenarios"]
    if scenarios:
        width = max(max(len(n) for n in scenarios), len("scenario"))
        lines += [
            "",
            f"{'scenario':<{width}}  {'done':>4}  {'planned':>7}  "
            f"{'remaining':>9}  {'records':>7}",
        ]
        for name in sorted(scenarios):
            row = scenarios[name]
            lines.append(
                f"{name:<{width}}  {row['done']:>4}  {row['planned']:>7}  "
                f"{row['remaining']:>9}  {row['records']:>7}"
            )
    return "\n".join(lines)


# -- schedules ---------------------------------------------------------------


def _segments(buf: str, segs) -> str:
    body = ",".join(f"{lo}:{hi}" for lo, hi in segs)
    return f"{buf}[{body}]"


def _transfer_line(t: Transfer) -> str:
    op = f" (op={t.op})" if t.op else ""
    tag = f"  #{t.tag}" if t.tag else ""
    return (
        f"    {t.src:>5} -> {t.dst:<5} "
        f"{_segments(t.src_buf, t.src_segments)} -> "
        f"{_segments(t.dst_buf, t.dst_segments)}{op}{tag}"
    )


def schedule_report(
    schedule: Schedule,
    collective: str,
    algorithm: str,
    max_steps: int = 12,
    max_transfers: int = 4,
) -> str:
    """Pretty-print one schedule: meta, per-step transfer digest.

    ``max_steps`` / ``max_transfers`` truncate the listing (a 1024-rank
    butterfly has thousands of transfers); truncation is always announced.

    Example::

        >>> from repro.collectives.registry import build
        >>> print(schedule_report(build("bcast", "bine", 4, 4),
        ...                       "bcast", "bine").splitlines()[0])
        schedule bcast/bine: p=4, 2 steps, 12 elements on the wire
    """
    lines = [
        f"schedule {collective}/{algorithm}: p={schedule.p}, "
        f"{schedule.num_steps} steps, "
        f"{schedule.total_comm_elems()} elements on the wire"
    ]
    meta = {k: v for k, v in schedule.meta.items()}
    if meta:
        lines.append(f"meta: {meta}")
    lines.append(
        f"max per-rank send volume: {schedule.max_rank_send_elems()} elements"
    )
    for i, step in enumerate(schedule.steps):
        if i == max_steps:
            lines.append(f"... ({schedule.num_steps - max_steps} more steps)")
            break
        label = f" [{step.label}]" if step.label else ""
        segs = max((t.num_segments for t in step.transfers), default=0)
        lines.append(
            f"step {i}{label}: {len(step.transfers)} transfers, "
            f"{len(step.pre)} pre / {len(step.post)} post copies, "
            f"max {segs} wire segments"
        )
        for j, t in enumerate(step.transfers):
            if j == max_transfers:
                lines.append(
                    f"    ... ({len(step.transfers) - max_transfers} more)"
                )
                break
            lines.append(_transfer_line(t))
    return "\n".join(lines)


# -- registry catalog --------------------------------------------------------


def _system_rows() -> list[dict]:
    rows = []
    for name in sorted(ALL_SYSTEMS):
        preset = ALL_SYSTEMS[name]()
        topo = preset.build_topology()
        rows.append(
            {
                "system": name,
                "topology": type(topo).__name__,
                "nodes": topo.num_nodes,
                "groups": topo.num_groups,
                "node_counts": list(preset.node_counts),
                "notes": preset.notes,
            }
        )
    return rows


def catalog_dict(
    collective: str | None = None, family: str | None = None
) -> dict:
    """The registry as one JSON-ready dict (``repro list --json``).

    ``collective``/``family`` filter the ``algorithms`` entry; the
    systems/collectives/families inventory always shows the full space.

    Example::

        >>> sorted(catalog_dict())
        ['algorithms', 'collectives', 'families', 'systems']
        >>> {a["collective"] for a in catalog_dict("alltoall")["algorithms"]}
        {'alltoall'}
    """
    return {
        "systems": _system_rows(),
        "collectives": list(COLLECTIVES),
        "families": families(),
        "algorithms": [
            {
                "collective": s.collective,
                "name": s.name,
                "family": s.family,
                "constraints": list(s.constraints),
                "description": s.description,
            }
            for s in iter_specs(collective, family)
        ],
    }


def algorithms_text(
    collective: str | None = None, family: str | None = None
) -> str:
    """Grouped plain-text catalog (default ``repro list`` output).

    Example::

        >>> algorithms_text("alltoall").splitlines()[0]
        'alltoall:'
    """
    specs = iter_specs(collective, family)
    if not specs:
        return "no matching algorithms"
    lines: list[str] = []
    current = None
    for s in specs:
        if s.collective != current:
            if current is not None:
                lines.append("")
            current = s.collective
            lines.append(f"{s.collective}:")
        cons = f"  [{'; '.join(s.constraints)}]" if s.constraints else ""
        lines.append(f"  {s.name:<24} {s.family:<9} {s.description}{cons}")
    return "\n".join(lines)


def algorithms_markdown() -> str:
    """The full Markdown catalog — the exact content of ``docs/algorithms.md``.

    Generated artifact: regenerate with
    ``python -m repro list --markdown > docs/algorithms.md``; the
    doc-freshness test (``tests/test_docs.py``) fails when the committed
    copy drifts from this function's output.
    """
    specs = iter_specs()
    lines = [
        "# Algorithm catalog",
        "",
        "<!-- GENERATED FILE — do not edit by hand.",
        "     Regenerate with: python -m repro list --markdown > docs/algorithms.md -->",
        "",
        f"{len(specs)} registered algorithms across {len(COLLECTIVES)} "
        f"collectives, grouped by family "
        f"({', '.join(f'`{f}`' for f in families())}).",
        "Families feed the paper's \"Bine vs binomial\" (Tables 3–5) and "
        "\"Bine vs best state-of-the-art\" (Figs. 9–11) summaries.",
        "",
        "## Systems",
        "",
        "| System | Topology | Nodes | Groups | Node counts swept | Notes |",
        "|---|---|---:|---:|---|---|",
    ]
    for row in _system_rows():
        counts = ", ".join(str(c) for c in row["node_counts"])
        lines.append(
            f"| `{row['system']}` | {row['topology']} | {row['nodes']} "
            f"| {row['groups']} | {counts} | {row['notes']} |"
        )
    for coll in COLLECTIVES:
        lines += [
            "",
            f"## {coll}",
            "",
            "| Algorithm | Family | Constraints | Description |",
            "|---|---|---|---|",
        ]
        for s in iter_specs(coll):
            cons = "; ".join(s.constraints) if s.constraints else "—"
            lines.append(
                f"| `{s.name}` | {s.family} | {cons} | {s.description} |"
            )
    return "\n".join(lines)
