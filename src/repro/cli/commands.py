"""Implementations behind the ``repro`` subcommands.

Each ``cmd_*`` takes the parsed :mod:`argparse` namespace and returns a
process exit code; :mod:`repro.cli.main` owns the argument wiring.  All
output rendering lives in :mod:`repro.cli.formatters` so the same tables
serve files (``--output``) and stdout.

Example::

    >>> from repro.cli import main
    >>> main(["schedule", "bcast", "bine", "-p", "8"])  # doctest: +SKIP
    0
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

from repro.analysis.sweep import ProfileCache, sweep_system
from repro.analysis.verifygrid import DEFAULT_NODE_COUNTS, verify_grid
from repro.cli import formatters as fmt
from repro.cli.campaign import duel_summaries, run_campaign
from repro.cli.manifest import ManifestError, load_manifest, ppn_error
from repro.collectives.registry import COLLECTIVES, build, families, iter_specs
from repro.faults import FaultSpec
from repro.runtime.errors import FaultSpecError
from repro.runtime.schedule import validation_enabled
from repro.systems import ALL_SYSTEMS, system_for

__all__ = [
    "cmd_list",
    "cmd_schedule",
    "cmd_sweep",
    "cmd_verify",
    "cmd_bench",
    "cmd_campaign",
    "cmd_plot",
    "cmd_compare",
    "cmd_tune",
    "cmd_stats",
]


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text + "\n")
        print(f"wrote {output}")
    else:
        print(text)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _parse_faults(args) -> tuple[FaultSpec, ...] | None:
    """``--faults``/``--timeline`` → scenarios, or ``None`` when both absent.

    ``--timeline`` composes: it is applied on top of every ``--faults``
    scenario (or on the pristine fabric when ``--faults`` is omitted).
    Raised :class:`FaultSpecError`\\ s propagate to ``main()``, which maps
    them to exit code 3 (parsing happens here, not in an argparse ``type``,
    precisely so the taxonomy handler sees them).
    """
    import dataclasses

    from repro.faults import FaultTimeline

    specs = getattr(args, "faults", None)
    timeline_text = getattr(args, "timeline", None)
    timeline = (
        FaultTimeline.parse(timeline_text) if timeline_text is not None else None
    )
    if specs is None:
        if timeline is None:
            return None
        return (FaultSpec(timeline=timeline),)
    scenarios = tuple(FaultSpec.parse(text) for text in specs)
    if timeline is not None:
        scenarios = tuple(
            dataclasses.replace(s, timeline=timeline) for s in scenarios
        )
    labels = [(s.label, s.timeline_label) for s in scenarios]
    if len(set(labels)) != len(labels):
        raise FaultSpecError(f"duplicate --faults scenarios: {labels}")
    return scenarios


def _check_grid_selection(collectives, algorithms):
    """Shared collective/algorithm validation; returns an error string or None."""
    bad = [c for c in collectives if c not in COLLECTIVES]
    if bad:
        return f"unknown collective(s) {bad}; have {list(COLLECTIVES)}"
    if algorithms:
        known = {s.name for c in collectives for s in iter_specs(c)}
        bad = [a for a in algorithms if a not in known]
        if bad:
            return (
                f"unknown algorithm(s) {bad} for collectives "
                f"{list(collectives)}; have {sorted(known)}"
            )
    return None


# -- repro list --------------------------------------------------------------


def cmd_list(args) -> int:
    """``repro list`` — registry catalog as text, Markdown, or JSON.

    Example::

        $ repro list --collective allreduce
        $ repro list --markdown > docs/algorithms.md
    """
    if args.collective and args.collective not in COLLECTIVES:
        return _fail(
            f"unknown collective {args.collective!r}; have {list(COLLECTIVES)}"
        )
    if args.family and args.family not in families():
        return _fail(f"unknown family {args.family!r}; have {families()}")
    if args.markdown:
        if args.collective or args.family:
            return _fail(
                "--markdown renders the full docs/algorithms.md catalog and "
                "does not combine with --collective/--family"
            )
        text = fmt.algorithms_markdown()
    elif args.json:
        import json

        text = json.dumps(
            fmt.catalog_dict(args.collective, args.family), indent=2
        )
    else:
        header = (
            f"systems: {', '.join(sorted(ALL_SYSTEMS))}\n"
            f"collectives: {', '.join(COLLECTIVES)}\n"
            f"families: {', '.join(families())}\n"
        )
        text = header + "\n" + fmt.algorithms_text(args.collective, args.family)
    _emit(text, args.output)
    return 0


# -- repro schedule ----------------------------------------------------------


def cmd_schedule(args) -> int:
    """``repro schedule`` — build, validate, pretty-print one schedule.

    Example::

        $ repro schedule allreduce bine-rsag -p 16 --verify
    """
    n = args.elems if args.elems is not None else args.ranks
    try:
        schedule = build(
            args.collective, args.algorithm, args.ranks, n, args.root, args.op
        )
    except KeyError as exc:
        return _fail(str(exc.args[0]))
    except ValueError as exc:
        return _fail(
            f"cannot build {args.collective}/{args.algorithm} "
            f"at p={args.ranks}, n={n}: {exc}"
        )
    lines = [
        fmt.schedule_report(
            schedule,
            args.collective,
            args.algorithm,
            max_steps=args.max_steps,
            max_transfers=args.max_transfers,
        )
    ]
    lines.append(
        "validation: on" if validation_enabled() else "validation: off (REPRO_VALIDATE)"
    )
    if args.verify:
        from repro.collectives.verify import run_and_check

        try:
            run_and_check(schedule, seed=42)
        except AssertionError as exc:
            print("\n".join(lines))
            return _fail(f"verification FAILED: {exc}")
        lines.append("verify: executor output matches NumPy ground truth")
    _emit("\n".join(lines), args.output)
    return 0


# -- repro sweep -------------------------------------------------------------


def _render_records(records, fmt_name: str) -> str:
    return {
        "table": fmt.records_table,
        "json": fmt.records_json,
        "csv": fmt.records_csv,
        "markdown": fmt.records_markdown,
    }[fmt_name](records)


def _duel_text(records, collectives, family: str, baseline_for) -> str:
    duels, skipped = duel_summaries(records, collectives, family, baseline_for)
    parts = []
    if duels:
        parts.append(fmt.summaries_text(duels))
    if skipped:
        parts.append(
            f"(no comparable {family}-vs-baseline cells for: {', '.join(skipped)})"
        )
    return "\n".join(parts) if parts else "no records"


def cmd_sweep(args) -> int:
    """``repro sweep`` — one grid over a system, any output format.

    Example::

        $ repro sweep --system lumi --collective allreduce \\
              --nodes 16,64 --format csv --output allreduce.csv
    """
    try:
        preset = system_for(args.system)
    except KeyError as exc:
        return _fail(str(exc.args[0]))
    collectives = tuple(args.collective) if args.collective else COLLECTIVES
    error = _check_grid_selection(collectives, args.algorithm) or ppn_error(
        args.nodes or preset.node_counts, args.ppn
    )
    if error:
        return _fail(error)
    scenarios = _parse_faults(args) or (FaultSpec(),)
    records = []
    for scenario in scenarios:
        cache = ProfileCache(
            preset,
            placement=args.placement,
            seed=args.seed,
            busy_fraction=args.busy_fraction,
            disk_dir=args.disk_cache,
            faults=scenario,
        )
        records.extend(
            sweep_system(
                preset,
                collectives,
                node_counts=args.nodes,
                vector_bytes=args.sizes,
                algorithms=args.algorithm or None,
                ppn=args.ppn,
                cache=cache,
                workers=args.workers,
            )
        )
    print(
        f"# {args.system}: {len(records)} records "
        f"({len(collectives)} collectives)",
        file=sys.stderr,
    )
    if args.format == "summary":
        text = _duel_text(
            records, collectives, args.family, lambda _: args.baseline
        )
    elif args.format == "summary-json":
        duels, _ = duel_summaries(
            records, collectives, args.family, lambda _: args.baseline
        )
        text = fmt.summaries_json(duels)
    else:
        text = _render_records(records, args.format)
    _emit(text, args.output)
    return _stalled_exit(records)


def _stalled_exit(records) -> int:
    """0, or the stalled-run exit code when any DES cell lost flows mid-run.

    The records themselves are complete and were already emitted — the
    nonzero code only tells scripted drivers the fabric partitioned under
    the timeline (see docs/robustness.md, exit code 8).
    """
    stalled = sum(1 for r in records if getattr(r, "stalled", False))
    if not stalled:
        return 0
    from repro.cli.main import STALLED_EXIT

    print(
        f"# {stalled} record(s) stalled mid-run (timeline partitioned the "
        "fabric); times for those cells are lower bounds",
        file=sys.stderr,
    )
    return STALLED_EXIT


# -- repro verify ------------------------------------------------------------


def cmd_verify(args) -> int:
    """``repro verify`` — bulk-run the executor oracle over a grid.

    Exit codes: 0 all cells ok (or skipped), 1 at least one failure,
    2 usage error.

    Example::

        $ repro verify --quick
        $ repro verify --collective allreduce --nodes 64,1024 --engine both
    """
    collectives = tuple(args.collective) if args.collective else COLLECTIVES
    error = _check_grid_selection(collectives, args.algorithm)
    if error:
        return _fail(error)
    if args.elems_per_rank < 1:
        return _fail("--elems-per-rank must be >= 1")
    nodes = args.nodes if args.nodes else ((4, 8) if args.quick else DEFAULT_NODE_COUNTS)
    seeds = args.seeds if args.seeds else ((0,) if args.quick else (0, 1))
    records = verify_grid(
        collectives,
        nodes,
        elems_per_rank=args.elems_per_rank,
        seeds=seeds,
        engine=args.engine,
        algorithms=args.algorithm or None,
        workers=args.workers,
    )
    counts = {"ok": 0, "failed": 0, "skipped": 0}
    for r in records:
        counts[r.status] += 1
    print(
        f"# verify [{args.engine}]: {len(records)} cells, {counts['ok']} ok, "
        f"{counts['failed']} failed, {counts['skipped']} skipped",
        file=sys.stderr,
    )
    text = {
        "summary": fmt.verify_summary_text,
        "table": fmt.verify_records_table,
        "json": fmt.verify_records_json,
        "markdown": fmt.verify_records_markdown,
    }[args.format](records)
    _emit(text, args.output)
    return 1 if counts["failed"] else 0


# -- repro bench -------------------------------------------------------------


def _benchmarks_dir() -> Path | None:
    """The bench-script directory: CWD first, then the source checkout."""
    import repro

    roots = [Path.cwd()]
    if getattr(repro, "__file__", None):
        roots.append(Path(repro.__file__).resolve().parents[2])
    for root in roots:
        cand = root / "benchmarks"
        if cand.is_dir() and list(cand.glob("bench_*.py")):
            return cand
    return None


def _bench_doc(path: Path) -> str:
    try:
        doc = ast.get_docstring(ast.parse(path.read_text())) or ""
    except SyntaxError:
        doc = ""
    return doc.splitlines()[0] if doc else ""


def cmd_bench(args) -> int:
    """``repro bench`` — discover and run ``benchmarks/bench_*.py``.

    Example::

        $ repro bench --list
        $ repro bench table3 fig09
    """
    bench_dir = _benchmarks_dir()
    if bench_dir is None:
        return _fail(
            "no benchmarks/ directory found (run from a source checkout)"
        )
    scripts = sorted(bench_dir.glob("bench_*.py"))
    if args.patterns:
        scripts = [
            s for s in scripts if any(pat in s.stem for pat in args.patterns)
        ]
        if not scripts:
            return _fail(f"no bench script matches {args.patterns}")
    if args.list:
        width = max(len(s.stem) for s in scripts)
        for s in scripts:
            print(f"{s.stem:<{width}}  {_bench_doc(s)}")
        return 0
    repo_root = bench_dir.parent
    env = dict(os.environ)
    src = str(repo_root / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    cmd = [sys.executable, "-m", "pytest", "-q"] + [
        str(s.relative_to(repo_root)) for s in scripts
    ]
    print(f"$ {' '.join(cmd)}  (cwd={repo_root})", file=sys.stderr)
    proc = subprocess.run(cmd, cwd=repo_root, env=env)
    return proc.returncode


# -- repro plot --------------------------------------------------------------


def _restrict_manifest(manifest, collectives, nodes, sizes):
    """Trim a manifest's grids to the requested slices (for cheap plots).

    Returns the restricted manifest, or an error string when nothing of
    the manifest survives the filters.
    """
    import dataclasses

    grids = []
    for grid in manifest.grids:
        colls = tuple(
            c for c in grid.collectives if not collectives or c in collectives
        )
        node_counts = tuple(
            p for p in grid.node_counts if not nodes or p in nodes
        )
        vector_bytes = grid.vector_bytes
        if sizes:
            if vector_bytes is None:
                vector_bytes = tuple(sizes)
            else:
                vector_bytes = tuple(nb for nb in vector_bytes if nb in sizes)
        if not colls or not node_counts or vector_bytes == ():
            continue
        grids.append(
            dataclasses.replace(
                grid, collectives=colls, node_counts=node_counts,
                vector_bytes=vector_bytes,
            )
        )
    if not grids:
        return None, (
            "the --collective/--nodes/--sizes filters leave nothing of "
            f"manifest {manifest.name!r}"
        )
    # summary=None: plot renders figures, not duel tables — don't pay the
    # family_duel pass over a full campaign's records for nothing
    return dataclasses.replace(
        manifest, grids=tuple(grids), summary=None
    ), None


def cmd_plot(args) -> int:
    """``repro plot`` — render campaign figures (SVG) plus an artifact index.

    Exit codes: 0 artifacts written, 2 usage/domain error.

    Example::

        $ repro plot --manifest campaigns/table3_lumi.toml --out report/
        $ repro plot --records sweep.json --out report/ --collective allreduce
    """
    from repro.report import render_report
    from repro.report.diff import RecordSetError, load_record_set

    manifest = None
    if args.manifest:
        try:
            manifest = load_manifest(args.manifest)
        except (ManifestError, FileNotFoundError) as exc:
            return _fail(str(exc))
        manifest, error = _restrict_manifest(
            manifest, args.collective, args.nodes, args.sizes
        )
        if error:
            return _fail(error)
        result = run_campaign(
            manifest, workers=args.workers, disk_dir=args.disk_cache,
            faults=_parse_faults(args),
        )
        records = result.records
        name, source = manifest.name, args.manifest
    else:
        try:
            record_set = load_record_set(args.records)
        except (RecordSetError, FileNotFoundError) as exc:
            return _fail(str(exc))
        if record_set.kind != "sweep":
            return _fail(
                f"{args.records}: plot needs sweep records, got "
                f"{record_set.kind!r}"
            )
        records = [
            r for r in record_set.to_records()
            if (not args.collective or r.collective in args.collective)
            and (not args.nodes or r.p in args.nodes)
            and (not args.sizes or r.n_bytes in args.sizes)
        ]
        name, source = Path(args.records).stem, args.records
    if not records:
        return _fail("no records to plot")
    try:
        written = render_report(
            records, args.out, name=name, source=source, manifest=manifest,
            collectives=tuple(args.collective) if args.collective else None,
        )
    except ValueError as exc:  # e.g. a family with no heatmap letter
        return _fail(str(exc))
    print(f"# plot: {len(records)} records -> {len(written)} artifacts",
          file=sys.stderr)
    for path in written:
        print(path)
    return 0


# -- repro compare -----------------------------------------------------------


def _resolve_record_set(path_text: str, workers, disk_dir, faults=None):
    """A compare operand: records/baseline JSON, or a manifest to rerun.

    Returns ``(record_set, manifest_or_None)``; raises ``ManifestError``
    or :class:`~repro.report.diff.RecordSetError` on bad input.
    """
    import json as _json

    from repro.report.diff import (
        RecordSetError,
        record_set_from_json,
        record_set_from_records,
    )

    path = Path(path_text)
    data = None
    if path.suffix == ".json":
        try:
            data = _json.loads(path.read_text())
        except _json.JSONDecodeError as exc:
            raise RecordSetError(f"{path_text}: not valid JSON ({exc})") from None
        # a JSON *manifest* has [campaign] + [[grid]]; anything else (incl.
        # BENCH_*.json blobs, which carry a "campaign" metadata key but no
        # grids) diffs as a record set
        if not (isinstance(data, dict) and isinstance(data.get("campaign"), dict)
                and "grid" in data):
            return record_set_from_json(data, path_text), None
    # a campaign manifest (TOML, or JSON with a [campaign] table): run it
    from repro.cli.manifest import manifest_from_dict

    manifest = (
        manifest_from_dict(data) if data is not None else load_manifest(path)
    )
    result = run_campaign(
        manifest, workers=workers, disk_dir=disk_dir, faults=faults,
    )
    return record_set_from_records(result.records, label=path_text), manifest


def cmd_compare(args) -> int:
    """``repro compare`` — diff two record sets cell by cell.

    Operands are records/baseline JSON files or campaign manifests (a
    manifest is rerun, which is the baseline regression gate).  Exit
    codes: 0 identical within tolerance, 1 drift (the drifted cells are
    named), 2 usage/domain error.

    Example::

        $ repro compare baselines/table3.json campaigns/table3_lumi.toml --update
        $ repro compare baselines/table3.json campaigns/table3_lumi.toml
        $ repro compare old_sweep.json new_sweep.json --format markdown
    """
    from repro.report.baseline import write_baseline
    from repro.report.diff import (
        RecordSetError,
        diff_json,
        diff_markdown,
        diff_record_sets,
        diff_summary,
        diff_table,
    )

    if args.update:
        try:
            candidate, manifest = _resolve_record_set(
                args.candidate, args.workers, args.disk_cache,
                _parse_faults(args),
            )
        except (ManifestError, RecordSetError, FileNotFoundError, OSError) as exc:
            return _fail(str(exc))
        if manifest is None:
            return _fail(
                "--update freezes a campaign manifest's records; "
                f"{args.candidate!r} is not a manifest"
            )
        if Path(args.ref).suffix != ".json":
            return _fail("--update writes a .json baseline file")
        records = candidate.to_records()
        write_baseline(args.ref, manifest, records)
        print(f"froze {len(records)} records -> {args.ref}", file=sys.stderr)
        return 0
    try:
        faults = _parse_faults(args)
        ref, _ = _resolve_record_set(
            args.ref, args.workers, args.disk_cache, faults
        )
        candidate, _ = _resolve_record_set(
            args.candidate, args.workers, args.disk_cache, faults
        )
        diff = diff_record_sets(ref, candidate, tolerance=args.tolerance)
    except (ManifestError, RecordSetError, FileNotFoundError, OSError) as exc:
        return _fail(str(exc))
    text = {
        "summary": diff_summary,
        "table": diff_table,
        "json": diff_json,
        "markdown": diff_markdown,
    }[args.format](diff)
    _emit(text, args.output)
    return 1 if diff.drifted else 0


# -- repro tune --------------------------------------------------------------


_QUERY_INT_KEYS = ("p", "n_bytes", "ppn")


def _parse_tune_query(text: str) -> dict:
    """``collective=bcast,p=16,n=1024[,system=...,ppn=...,faults=...]``.

    Returns the query dict or raises ``ValueError`` with a usage hint.
    """
    query: dict = {"ppn": 1, "faults": "none"}
    for part in text.split(","):
        if "=" not in part:
            raise ValueError(f"query term {part!r} is not key=value")
        key, _, value = part.partition("=")
        key = key.strip()
        key = {"n": "n_bytes", "nodes": "p"}.get(key, key)
        if key in _QUERY_INT_KEYS:
            query[key] = int(value)
        elif key in ("collective", "system", "faults"):
            query[key] = value.strip()
        else:
            raise ValueError(
                f"unknown query key {key!r} (expected collective, p, "
                "n/n_bytes, system, ppn, faults)"
            )
    missing = [k for k in ("collective", "p", "n_bytes") if k not in query]
    if missing:
        raise ValueError(f"query {text!r} is missing {missing}")
    return query


def cmd_tune(args) -> int:
    """``repro tune`` — compile sweep records into a decision table and query it.

    SOURCE is a campaign manifest (run, then compiled), a sweep-records
    JSON file (compiled directly), or an existing decision-table JSON
    (loaded and digest-checked).  ``--output`` writes the canonical
    artifact bytes; ``--query`` answers selection queries against it.
    Exit codes: 0 ok, 2 usage/off-grid query, 7 corrupted artifact.

    Example::

        $ repro tune campaigns/table3_lumi.toml -o table.json
        $ repro tune table.json --query collective=bcast,p=16,n=1024
    """
    import json as _json

    from repro.report.diff import RecordSetError, record_set_from_json
    from repro.runtime.errors import TuneQueryError
    from repro.tune import (
        DecisionTable,
        build_decision_table,
        lookup,
    )

    path = Path(args.source)
    table = None
    manifest = data = None
    if path.suffix == ".json":
        try:
            data = _json.loads(path.read_text())
        except (OSError, _json.JSONDecodeError) as exc:
            return _fail(f"{args.source}: cannot read ({exc})")
    if isinstance(data, dict) and data.get("schema") == "repro/decision-table":
        # TuneArtifactError (bad digest/schema) propagates to exit code 7
        table = DecisionTable.from_dict(data, label=args.source)
        if args.collective or args.nodes or args.sizes:
            return _fail(
                "--collective/--nodes/--sizes restrict a manifest run; "
                f"{args.source!r} is already a compiled table"
            )
    else:
        if data is not None and not (
            isinstance(data, dict) and isinstance(data.get("campaign"), dict)
            and "grid" in data
        ):
            # sweep-records JSON (or a frozen baseline wrapping one)
            try:
                record_set = record_set_from_json(data, args.source)
            except RecordSetError as exc:
                return _fail(str(exc))
            if record_set.kind != "sweep":
                return _fail(
                    f"{args.source}: tune compiles sweep records, got "
                    f"{record_set.kind!r}"
                )
            records = record_set.to_records()
            name = args.name or path.stem
        else:
            try:
                manifest = load_manifest(path)
            except (ManifestError, FileNotFoundError) as exc:
                return _fail(str(exc))
            manifest, error = _restrict_manifest(
                manifest, args.collective, args.nodes, args.sizes
            )
            if error:
                return _fail(error)
            result = run_campaign(
                manifest, workers=args.workers, disk_dir=args.disk_cache,
                faults=_parse_faults(args),
            )
            records = result.records
            name = args.name or manifest.name
        if not records:
            return _fail("no records to compile into a decision table")
        table = build_decision_table(records, name=name, source=args.source)
    print(
        f"# tune {table.name!r}: {table.record_count} records -> "
        f"{len(table.tables)} sub-tables, {table.cells} cells",
        file=sys.stderr,
    )
    if args.output:
        # raw to_json bytes, not _emit: the artifact contract is
        # byte-deterministic and golden tests compare files exactly
        Path(args.output).write_text(table.to_json())
        print(f"wrote {args.output}")
    answers = []
    default_system = (
        table.tables[0].system if len({t.system for t in table.tables}) == 1
        else None
    )
    for text in args.query or ():
        try:
            query = _parse_tune_query(text)
        except ValueError as exc:
            return _fail(str(exc))
        system = query.get("system", default_system)
        if system is None:
            return _fail(
                f"query {text!r} needs system=... (the table spans "
                f"{sorted({t.system for t in table.tables})})"
            )
        try:
            sel = lookup(
                table, query["collective"], system, query["p"], query["ppn"],
                query["n_bytes"], faults=query["faults"], policy=args.policy,
            )
        except TuneQueryError as exc:
            return _fail(str(exc))
        answers.append((query, sel))
    if answers:
        print(fmt.tune_selections_text(answers))
    elif not args.output:
        _emit(fmt.tune_table_text(table), None)
    return 0


# -- repro stats -------------------------------------------------------------


def _summarize_trace(name: str, data: dict) -> dict:
    """Fold a raw trace file into the sidecar's stats shape.

    No counters: the registry totals for the traced run only live in the
    ``.stats.json`` the session wrote next to the trace.
    """
    from repro.obs import span_aggregates

    events = [e for e in data.get("traceEvents", ()) if isinstance(e, dict)]
    pids = {e.get("pid") for e in events}
    return {
        "trace": name,
        "events": len(events),
        "shards": max(0, len(pids) - 1),
        "spans": span_aggregates(events),
    }


def cmd_stats(args) -> int:
    """``repro stats`` — summarize traces/sidecars, or inspect live caches.

    FILE is a Chrome trace written by ``--trace``/``REPRO_TRACE``, its
    ``.stats.json`` sidecar, or a record journal written by ``repro
    campaign --journal`` (summarized as cells done/remaining per scenario
    plus the resume count — the look-before-you-resume view of a dead
    run).  Exit codes: 0 ok, 1 ``--validate`` found schema violations,
    2 usage error, 10 unusable journal.

    Example::

        $ repro campaign campaigns/table3_lumi.toml --trace run.trace.json
        $ repro stats run.trace.stats.json
        $ repro stats run.trace.json --validate
        $ repro stats runs/table3-lumi.journal
        $ repro stats --caches
    """
    import importlib
    import json as _json
    import pkgutil

    import repro
    from repro import obs
    from repro.runtime.memo import memo_cache_sizes

    if args.caches:
        if args.file or args.validate:
            return _fail(
                "--caches reads this process's live memo caches and does "
                "not combine with FILE or --validate"
            )
        # a cache registers when its module is imported: load the whole
        # package so modules this command never uses are listed too
        for mod in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(mod.name)
        sizes = memo_cache_sizes()
        text = (
            _json.dumps(sizes, indent=2, sort_keys=True)
            if args.format == "json"
            else fmt.cache_sizes_text(sizes)
        )
        _emit(text, args.output)
        return 0
    if not args.file:
        return _fail("stats needs a FILE (trace, .stats.json, or journal) "
                     "or --caches")
    try:
        # lenient decode: a corrupt journal must still reach the sniff below
        # (its sealed header line is sound ASCII) to get the exit-10 path
        raw = Path(args.file).read_bytes().decode("utf-8", "replace")
    except OSError as exc:
        return _fail(f"{args.file}: cannot read ({exc})")
    # a record journal is JSONL, not JSON — sniff its sealed header before
    # attempting to parse the file as one document
    if '"repro/journal"' in raw.partition("\n")[0]:
        from repro.checkpoint import read_journal, summarize_journal

        summary = summarize_journal(read_journal(args.file))
        if args.validate:
            tail = " (torn tail dropped)" if summary["truncated_tail"] else ""
            print(
                f"{args.file}: ok ({summary['cells_done']} cell(s) "
                f"journaled, {summary['resumes']} resume(s)){tail}"
            )
            return 0
        text = (
            _json.dumps(summary, indent=2, sort_keys=True)
            if args.format == "json"
            else fmt.journal_stats_text(summary)
        )
        _emit(text, args.output)
        return 0
    try:
        data = _json.loads(raw)
    except _json.JSONDecodeError as exc:
        return _fail(f"{args.file}: cannot read ({exc})")
    if isinstance(data, dict) and data.get("schema") == obs.STATS_SCHEMA:
        if args.validate:
            return _fail(
                f"{args.file} is a stats sidecar; --validate checks the "
                "trace file itself"
            )
        doc = data
    else:
        errors = obs.validate_trace(data)
        if args.validate:
            if errors:
                print(
                    f"error: {args.file}: {len(errors)} schema violation(s)",
                    file=sys.stderr,
                )
                for err in errors[:20]:
                    print(f"  {err}", file=sys.stderr)
                if len(errors) > 20:
                    print(f"  ... ({len(errors) - 20} more)", file=sys.stderr)
                return 1
            events = data["traceEvents"]
            pids = {e.get("pid") for e in events if isinstance(e, dict)}
            print(
                f"{args.file}: ok ({len(events)} events, "
                f"{len(pids)} process(es))"
            )
            return 0
        if errors:
            return _fail(
                f"{args.file}: not a valid trace or stats file "
                f"({errors[0]}; --validate lists everything)"
            )
        doc = _summarize_trace(Path(args.file).name, data)
    text = (
        fmt.trace_stats_json(doc)
        if args.format == "json"
        else fmt.trace_stats_text(doc)
    )
    _emit(text, args.output)
    return 0


# -- repro campaign ----------------------------------------------------------


def cmd_campaign(args) -> int:
    """``repro campaign`` — run a TOML/JSON manifest end to end.

    ``--journal DIR`` makes the run crash-safe (cells stream into a
    write-ahead journal; SIGINT/SIGTERM drain gracefully with exit
    code 9) and ``--resume`` picks a dead run back up byte-identically.

    Example::

        $ repro campaign campaigns/table3_lumi.toml --workers 8
        $ repro campaign campaigns/table3_lumi.toml --journal runs/
        $ repro campaign campaigns/table3_lumi.toml --journal runs/ --resume
    """
    try:
        manifest = load_manifest(args.manifest)
    except (ManifestError, FileNotFoundError) as exc:
        return _fail(str(exc))
    if args.resume and not args.journal:
        return _fail("--resume needs --journal DIR (the journal to resume)")
    if args.journal:
        from repro.checkpoint import journal_path

        print(
            f"# journal: {journal_path(args.journal, manifest.name)}"
            + (" (resuming)" if args.resume else ""),
            file=sys.stderr,
        )
    result = run_campaign(
        manifest, workers=args.workers, disk_dir=args.disk_cache,
        faults=_parse_faults(args), journal=args.journal, resume=args.resume,
    )
    cells = len({r.key for r in result.records})
    print(
        f"# campaign {manifest.name!r} on {manifest.system}: "
        f"{len(result.records)} records, {cells} cells",
        file=sys.stderr,
    )
    if args.format == "summary":
        caption = manifest.description or manifest.name
        if result.summaries:
            text = fmt.summaries_text(result.summaries, caption)
        else:
            text = (
                f"{caption}\n(no duel summary in manifest; "
                "use --format json/csv/markdown for records)"
            )
        if result.skipped:
            text += f"\n(skipped, no comparable cells: {', '.join(result.skipped)})"
    elif args.format == "summary-json":
        text = fmt.summaries_json(result.summaries)
    else:
        text = _render_records(result.records, args.format)
    _emit(text, args.output)
    return _stalled_exit(result.records)
