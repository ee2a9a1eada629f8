"""Argument wiring for the ``repro`` CLI.

:func:`main` builds the parser, dispatches to :mod:`repro.cli.commands`,
and returns a process exit code.  Install exposes it as the ``repro``
console script; ``python -m repro`` reaches it via :mod:`repro.__main__`.

Exit codes (:data:`EXIT_CODES`): 0 success; 1 drift / verify failure;
2 usage or domain error; 3 invalid fault spec; 4 partitioned topology;
5 corrupted profile-cache entry surfaced as an error; 6 worker shard
failure with fallback disabled; 7 corrupted or mismatched decision-table
artifact; 8 DES engine error (a timeline on an analytic-only cell, which
the discrete-event engine cannot replay) — also returned, with complete
record output, when a timeline stalled at least one flow mid-run;
9 graceful drain — a journaled campaign stopped at a cell boundary after
SIGINT/SIGTERM with its progress flushed (resume with ``--resume``);
10 unusable record journal (corrupt beyond the torn tail, or sealed for
a different campaign); 130 immediate interrupt (``KeyboardInterrupt`` /
second signal).  Bench runs pass through pytest's code.

Example::

    >>> main(["list", "--json", "--output", "/tmp/catalog.json"])  # doctest: +SKIP
    0
"""

from __future__ import annotations

import argparse
import os
import sys

from repro import obs
from repro.cli import commands
from repro.runtime.errors import (
    CacheCorruptionError,
    DESEngineError,
    FaultSpecError,
    InterruptedRunError,
    JournalError,
    TopologyPartitionedError,
    TuneArtifactError,
    WorkerShardError,
)

__all__ = ["main", "build_parser", "EXIT_CODES"]

#: one distinct nonzero exit code per runtime failure class, so scripted
#: campaign drivers can tell "bad --faults string" from "fabric cut in two"
EXIT_CODES: dict[type[Exception], int] = {
    FaultSpecError: 3,
    TopologyPartitionedError: 4,
    CacheCorruptionError: 5,
    WorkerShardError: 6,
    TuneArtifactError: 7,
    DESEngineError: 8,
    InterruptedRunError: 9,
    JournalError: 10,
}

#: exit code for a run whose records include stalled DES cells (the run
#: itself completed and produced full output)
STALLED_EXIT = 8


def _int_list(text: str) -> tuple[int, ...]:
    """Parse ``16,64,256`` into a tuple of ints (argparse type)."""
    try:
        values = tuple(int(x) for x in text.split(",") if x)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-o", "--output", metavar="FILE",
        help="write the result here instead of stdout",
    )


def _add_trace(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write a Chrome-trace-event JSON of this run to FILE (open in "
        "Perfetto) plus a <stem>.stats.json metrics sidecar; records stay "
        "byte-identical with tracing on or off (REPRO_TRACE sets the path "
        "when this flag is omitted; see docs/observability.md)",
    )


def _add_execution_knobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, metavar="N",
        help="shard (collective, p) cells over N worker processes; "
        "records are identical to a serial run",
    )
    _add_trace(parser)
    parser.add_argument(
        "--disk-cache", metavar="DIR",
        help="persist schedule profiles under DIR across runs "
        "(delete DIR to force a cold rebuild)",
    )


def _add_faults(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults", action="append", metavar="SPEC", default=None,
        help="degraded-fabric scenario, e.g. 'links=2,seed=13' or "
        "'links=1,global=0.5' ('none' for the pristine fabric); repeat "
        "the flag to run several scenarios in one invocation — overrides "
        "a manifest's [[faults]] list (see docs/robustness.md)",
    )
    parser.add_argument(
        "--timeline", metavar="TL", default=None,
        help="mid-run fault timeline applied to every scenario, e.g. "
        "'at=0.001:links=2,seed=5;at=0.01:heal=links'; replayed on the "
        "discrete-event fabric engine (see docs/robustness.md for the "
        "grammar)",
    )


def _add_record_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("summary", "summary-json", "table", "json", "csv", "markdown"),
        default="summary",
        help="summary: paper-style duel table (summary-json: same rows as "
        "JSON); table: aligned records; json/csv/markdown: machine-readable "
        "records (default: summary)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The full ``repro`` argument parser (exposed for docs and tests).

    Example::

        >>> build_parser().parse_args(["schedule", "bcast", "bine"]).ranks
        16
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Drive the Bine-trees reproduction: inspect the algorithm "
        "registry, build schedules, run sweeps and paper campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    # list
    p = sub.add_parser(
        "list",
        help="catalog of systems, collectives and registered algorithms",
        description="Print the registry catalog. --markdown emits the exact "
        "content of docs/algorithms.md; --json a machine-readable catalog.",
    )
    p.add_argument("--collective", help="only this collective (e.g. allreduce)")
    p.add_argument("--family", help="only this family (e.g. bine)")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--markdown", action="store_true",
                      help="full Markdown catalog (docs/algorithms.md)")
    mode.add_argument("--json", action="store_true",
                      help="JSON catalog for tooling")
    _add_output(p)
    p.set_defaults(func=commands.cmd_list)

    # schedule
    p = sub.add_parser(
        "schedule",
        help="build + validate + pretty-print one collective schedule",
        description="Build one schedule from the registry (validation on by "
        "default; REPRO_VALIDATE=0 disables) and print a step-by-step digest.",
    )
    p.add_argument("collective", help="e.g. allreduce (see `repro list`)")
    p.add_argument("algorithm", help="e.g. bine-rsag (see `repro list`)")
    p.add_argument("-p", "--ranks", type=int, default=16,
                   help="number of ranks (default: 16)")
    p.add_argument("-n", "--elems", type=int,
                   help="vector elements per rank (default: same as --ranks)")
    p.add_argument("--root", type=int, default=0,
                   help="root rank for rooted collectives (default: 0)")
    p.add_argument("--op", default="sum",
                   help="reduction op for reducing collectives (default: sum)")
    p.add_argument("--verify", action="store_true",
                   help="execute on NumPy buffers and check the ground truth")
    p.add_argument("--max-steps", type=int, default=12,
                   help="steps to print before truncating (default: 12)")
    p.add_argument("--max-transfers", type=int, default=4,
                   help="transfers per step to print (default: 4)")
    _add_output(p)
    p.set_defaults(func=commands.cmd_schedule)

    # sweep
    p = sub.add_parser(
        "sweep",
        help="evaluate algorithms over one (nodes x sizes) grid of a system",
        description="Wrap sweep_system: profile every applicable algorithm "
        "once per (collective, p), evaluate at every vector size, and render "
        "records or the paper-style duel summary.",
    )
    p.add_argument("--system", required=True,
                   help="system preset: lumi, leonardo, marenostrum5, fugaku")
    p.add_argument("--collective", action="append", metavar="NAME",
                   help="collective to sweep (repeatable; default: all eight)")
    p.add_argument("--algorithm", action="append", metavar="NAME",
                   help="restrict to these algorithm names (repeatable)")
    p.add_argument("--nodes", type=_int_list, metavar="P1,P2,...",
                   help="rank counts (default: the system preset's grid)")
    p.add_argument("--sizes", type=_int_list, metavar="B1,B2,...",
                   help="vector sizes in bytes (default: 32B...512MiB)")
    p.add_argument("--placement", choices=("scheduler", "block"),
                   default="scheduler",
                   help="scheduler: sampled fragmented allocation (paper); "
                   "block: idealised group-aligned mapping")
    p.add_argument("--seed", type=int, default=7,
                   help="allocation-sampler seed (default: 7)")
    p.add_argument("--busy-fraction", type=float, default=0.55,
                   help="sampler load factor (default: 0.55)")
    p.add_argument("--ppn", type=int, default=1,
                   help="ranks per node (default: 1)")
    p.add_argument("--family", default="bine",
                   help="summary: family whose wins are counted (default: bine)")
    p.add_argument("--baseline", default="binomial",
                   help="summary: family to duel against (default: binomial)")
    _add_faults(p)
    _add_execution_knobs(p)
    _add_record_format(p)
    _add_output(p)
    p.set_defaults(func=commands.cmd_sweep)

    # verify
    p = sub.add_parser(
        "verify",
        help="bulk-run the executor oracle over a collective/algorithm grid",
        description="Execute every registered algorithm's schedule on NumPy "
        "buffers and check the collective's post-condition, cell by cell. "
        "The compiled engine batches all seeds through one columnar plan "
        "per cell; 'both' additionally cross-checks compiled against the "
        "reference executor bit for bit.  Exit code 1 if any cell fails.",
    )
    p.add_argument("--collective", action="append", metavar="NAME",
                   help="collective to verify (repeatable; default: all eight)")
    p.add_argument("--algorithm", action="append", metavar="NAME",
                   help="restrict to these algorithm names (repeatable)")
    p.add_argument("--nodes", type=_int_list, metavar="P1,P2,...",
                   help="rank counts (default: 4,8,16,17,32; --quick: 4,8)")
    p.add_argument("--elems-per-rank", type=int, default=4, metavar="K",
                   help="vector elements per rank, n = K*p (default: 4)")
    p.add_argument("--seeds", type=_int_list, metavar="S1,S2,...",
                   help="input seeds per cell (default: 0,1; --quick: 0)")
    p.add_argument("--engine", choices=("compiled", "reference", "both"),
                   default="compiled",
                   help="compiled: batched columnar plans (default); "
                   "reference: interpreted executor; both: cross-check")
    p.add_argument("--quick", action="store_true",
                   help="CI smoke grid: p=4,8 and one seed unless overridden")
    p.add_argument("--workers", type=int, metavar="N",
                   help="shard cells over N worker processes")
    _add_trace(p)
    p.add_argument("--format",
                   choices=("summary", "table", "json", "markdown"),
                   default="summary",
                   help="summary: per-collective roll-up (default); "
                   "table/json/markdown: one row per cell")
    _add_output(p)
    p.set_defaults(func=commands.cmd_verify)

    # bench
    p = sub.add_parser(
        "bench",
        help="discover and run the benchmarks/bench_*.py paper scripts",
        description="Run reproduction scripts via pytest in a subprocess. "
        "Patterns select scripts by filename substring (e.g. 'table3', "
        "'fig09').",
    )
    p.add_argument("patterns", nargs="*",
                   help="substring filters on bench script names")
    p.add_argument("--list", action="store_true",
                   help="list matching scripts instead of running them")
    p.set_defaults(func=commands.cmd_bench)

    # plot
    p = sub.add_parser(
        "plot",
        help="render campaign figures (SVG heatmaps + boxplots) to a directory",
        description="Render the Fig. 9a/10a-style best-algorithm heatmap per "
        "collective and the Fig. 9b-style Bine-improvement boxplot, plus an "
        "index.md/index.html artifact manifest linking every figure to its "
        "source, seed and record digest.  Output is byte-deterministic: the "
        "same records always produce the same SVG bytes.",
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--manifest", metavar="FILE",
                     help="campaign manifest to run and plot (TOML/JSON)")
    src.add_argument("--records", metavar="FILE",
                     help="sweep records JSON (from `repro sweep/campaign "
                     "--format json`) to plot without re-running")
    p.add_argument("--out", required=True, metavar="DIR",
                   help="directory for the SVG figures and the artifact index")
    p.add_argument("--collective", action="append", metavar="NAME",
                   help="only plot these collectives (repeatable)")
    p.add_argument("--nodes", type=_int_list, metavar="P1,P2,...",
                   help="restrict the grid to these rank counts")
    p.add_argument("--sizes", type=_int_list, metavar="B1,B2,...",
                   help="restrict the grid to these vector sizes (bytes)")
    _add_faults(p)
    _add_execution_knobs(p)
    p.set_defaults(func=commands.cmd_plot)

    # compare
    p = sub.add_parser(
        "compare",
        help="diff two record sets cell by cell (baseline regression gate)",
        description="Align two record sets by cell identity and classify "
        "added/removed/changed cells under a relative tolerance.  Operands "
        "are records/baseline JSON files (sweep records, verify records, or "
        "BENCH_*.json metric blobs) or campaign manifests, which are rerun — "
        "`repro compare baseline.json campaigns/x.toml` is the regression "
        "gate.  Exit code 1 when anything drifted.",
    )
    p.add_argument("ref", help="reference: records/baseline JSON or a manifest")
    p.add_argument("candidate", help="candidate: records JSON or a manifest")
    p.add_argument("--tolerance", type=float, default=1e-9, metavar="REL",
                   help="relative drift tolerance per numeric field "
                   "(default: 1e-9, i.e. bit-stable reruns)")
    p.add_argument("--update", action="store_true",
                   help="freeze CANDIDATE (a campaign manifest) into REF as "
                   "the new baseline instead of comparing")
    p.add_argument("--format",
                   choices=("summary", "table", "json", "markdown"),
                   default="summary",
                   help="summary: verdict + drifted cells (default); "
                   "table/json/markdown: one row per drifted cell")
    _add_faults(p)
    _add_execution_knobs(p)
    _add_output(p)
    p.set_defaults(func=commands.cmd_compare)

    # tune
    p = sub.add_parser(
        "tune",
        help="compile sweep records into a decision-table artifact and query it",
        description="Build the algorithm-selection oracle: run (or load) "
        "sweep records and freeze the per-(system, faults, collective, ppn) "
        "winner grids into a versioned, digest-sealed JSON artifact, then "
        "answer selection queries against it (see docs/tuning.md).  SOURCE "
        "is a campaign manifest (rerun), a sweep-records JSON, or an "
        "existing decision-table JSON.  Exit code 7 marks a corrupted or "
        "mismatched artifact.",
    )
    p.add_argument("source",
                   help="manifest (.toml/.json), sweep-records JSON, or "
                   "decision-table JSON")
    p.add_argument("--name", metavar="NAME",
                   help="table name stamped into the artifact "
                   "(default: manifest/file name)")
    p.add_argument("--collective", action="append", metavar="NAME",
                   help="restrict a manifest run to these collectives "
                   "(repeatable)")
    p.add_argument("--nodes", type=_int_list, metavar="P1,P2,...",
                   help="restrict a manifest run to these rank counts")
    p.add_argument("--sizes", type=_int_list, metavar="B1,B2,...",
                   help="restrict a manifest run to these vector sizes (bytes)")
    p.add_argument("--query", action="append", metavar="Q",
                   help="selection query 'collective=bcast,p=16,n=1024"
                   "[,system=...,ppn=...,faults=...]' (repeatable)")
    p.add_argument("--policy", choices=("exact", "nearest", "refuse"),
                   default="exact",
                   help="off-grid query policy: exact errors, nearest snaps "
                   "in log2 space, refuse answers None (default: exact)")
    _add_faults(p)
    _add_execution_knobs(p)
    _add_output(p)
    p.set_defaults(func=commands.cmd_tune)

    # campaign
    p = sub.add_parser(
        "campaign",
        help="run a declarative TOML/JSON campaign manifest",
        description="Run every grid of a campaign manifest against one "
        "shared profile cache (see campaigns/*.toml for the Table 3/4/5 "
        "reproductions).",
    )
    p.add_argument("manifest", help="path to a .toml or .json manifest")
    p.add_argument(
        "--journal", metavar="DIR", default=None,
        help="stream every finished cell into a crash-safe record journal "
        "under DIR; SIGINT/SIGTERM then drain gracefully (exit 9) instead "
        "of losing progress (see docs/robustness.md)",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="resume a dead journaled run: skip already-journaled cells "
        "and reproduce the uninterrupted result byte for byte "
        "(requires --journal)",
    )
    _add_faults(p)
    _add_execution_knobs(p)
    _add_record_format(p)
    _add_output(p)
    p.set_defaults(func=commands.cmd_campaign)

    # stats
    p = sub.add_parser(
        "stats",
        help="summarize a trace/stats/journal file, or inspect memo caches",
        description="Post-run observability: FILE is a Chrome trace written "
        "by --trace/REPRO_TRACE, its .stats.json sidecar, or a record "
        "journal written by `repro campaign --journal`; prints counter "
        "totals and per-span aggregates (for a journal: cells done/remaining "
        "per scenario and the resume count).  --validate checks a trace "
        "against the documented schema, or a journal's CRC seals (exit 1 / "
        "exit 10 on violations); --caches prints the current size of every "
        "registered memo cache instead.",
    )
    p.add_argument("file", nargs="?", metavar="FILE",
                   help="trace JSON, .stats.json sidecar, or record journal "
                   "to summarize")
    p.add_argument("--caches", action="store_true",
                   help="print live memo-cache sizes (memo_cache_sizes()) "
                   "instead of reading a file")
    p.add_argument("--validate", action="store_true",
                   help="check FILE (a trace) against the trace-event "
                   "schema; exit 1 and list violations when unsound")
    p.add_argument("--format", choices=("table", "json"), default="table",
                   help="table: aligned text (default); json: raw dict")
    _add_output(p)
    p.set_defaults(func=commands.cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro`` / ``python -m repro``; returns exit code."""
    args = build_parser().parse_args(argv)
    # --trace FILE (or REPRO_TRACE) wraps the whole command in a trace
    # session; commands without the knob (list, schedule, stats, ...) never
    # trace, so `repro stats` can't clobber the file it is reading
    trace_path = getattr(args, "trace", None) if hasattr(args, "trace") else None
    if trace_path is None and hasattr(args, "trace"):
        trace_path = os.environ.get(obs.TRACE_ENV) or None
    try:
        if trace_path:
            with obs.trace_session(trace_path):
                code = args.func(args)
            print(
                f"# trace: wrote {trace_path} and "
                f"{obs.sidecar_path(trace_path)}",
                file=sys.stderr,
            )
            return code
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        # single-line diagnostic naming the failure class, then the
        # class-specific exit code — campaign drivers branch on it
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        for cls, code in EXIT_CODES.items():
            if isinstance(exc, cls):
                return code
        raise AssertionError("unreachable")  # pragma: no cover
    except KeyboardInterrupt:
        # an unjournaled ^C (or the second signal of a drain) — the
        # conventional 128+SIGINT code, distinct from graceful drain's 9
        print("interrupted", file=sys.stderr)
        return 130
