"""Figure artifacts, record-set diffing, and baseline regression gating.

The report layer turns sweep records into the paper's visual evidence and
keeps record sets comparable across reruns:

* :mod:`repro.report.svg` — a dependency-free, byte-deterministic SVG
  canvas (fixed float formatting, no timestamps);
* :mod:`repro.report.figures` — the Fig. 9a/10a heatmaps and
  Fig. 5/9b/10b/11a/11b boxplots, rendered from
  :class:`~repro.analysis.sweep.SweepRecord` sets;
* :mod:`repro.report.diff` — :class:`RecordSetDiff`: align two record
  sets cell by cell, classify added/removed/changed with a relative
  tolerance, render summary/table/json/markdown;
* :mod:`repro.report.baseline` — freeze a campaign's records to a
  committed baseline file and gate reruns against it;
* :mod:`repro.report.artifacts` — the markdown/HTML index linking every
  generated figure to its source manifest, seed and record digest.

``repro plot`` and ``repro compare`` are the CLI front ends
(:mod:`repro.cli.commands`); ``benchmarks/_shared.py`` can emit the same
artifacts per campaign with ``REPRO_BENCH_ARTIFACTS=1``.  The names below
load from their submodule on first use, so importing one submodule (the
sweep and tune layers read :func:`records_digest`) loads no other.
"""

from repro import lazy_exports

__getattr__ = lazy_exports(__name__, {
    "artifacts": ("render_report", "records_digest"),
    "baseline": ("check_baseline", "write_baseline"),
    "diff": ("RecordSet", "RecordSetDiff", "RecordSetError", "diff_record_sets",
             "load_record_set", "record_set_from_records"),
    "figures": ("boxplot_svg", "heatmap_svg"),
})

__all__ = [
    "RecordSet",
    "RecordSetDiff",
    "RecordSetError",
    "diff_record_sets",
    "load_record_set",
    "record_set_from_records",
    "heatmap_svg",
    "boxplot_svg",
    "check_baseline",
    "write_baseline",
    "render_report",
    "records_digest",
]
