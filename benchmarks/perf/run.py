"""Layer-resolved performance benchmark of the repro pipelines.

One run (what ``BENCHMARK.json``'s command executes)::

    python3 benchmarks/perf/run.py --workload campaign_cold --seed 0 \\
        --seconds 20 --trace 0

sets the workload up, then repeats its unit of work, each from a collected
heap, until ``--seconds`` have passed.  ``--trace 0`` reports the
end-to-end metrics: set-up time and peak RSS.  ``setup_s`` is the median
of five set-ups spread over the run, each timed from starting a fresh
process to its workload being ready, imports included.  ``--trace 1`` alternates untraced units
with units run under the layer shims of ``shims.py`` and reports the
per-layer metrics, among them ``wall_s``, the median untraced unit.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
run's output digest and the ten most expensive schedule builds.  A run
exits 1 when an output is wrong, a repeated input's digest differs, a
seed-0 digest differs from ``expected.json``, a required layer saw no
call, or the traced units leave more than 10% of their wall-clock
unattributed.

A suite (no ``--trace``) runs every workload, or those named, in fresh
child processes, ``--repeat`` untraced and ``--repeat`` traced runs
each, prints every metric and writes a results JSON for ``compare.py``::

    python3 benchmarks/perf/run.py --seed 0 --repeat 5 --out a.json
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import os  # noqa: E402

if __name__ == "__main__":
    # one caller, one thread: no BLAS pool may compete for the cores.  Only
    # the benchmark's own processes pin this; importing run.py changes nothing
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
if __name__ == "__main__":
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: no repro sources under {SRC}")
    sys.path.insert(0, str(SRC))

from repro.obs import metrics as obs_metrics  # noqa: E402

import shims  # noqa: E402
from workloads import WORKLOADS, sha  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

#: name -> (unit, better), as BENCHMARK.json declares them
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    "wall_s": ("s", "lower"),
    "collectives.build.calls": ("count", "lower"),
    "collectives.build.self_s": ("s", "lower"),
    "collectives.build.transfers": ("count", "lower"),
    "model.lower.calls": ("count", "lower"),
    "model.lower.self_s": ("s", "lower"),
    "model.profile.calls": ("count", "lower"),
    "model.profile.self_s": ("s", "lower"),
    "model.evaluate.calls": ("count", "lower"),
    "model.evaluate.cells": ("count", "higher"),
    "model.evaluate.self_s": ("s", "lower"),
    "analysis.sweep.self_s": ("s", "lower"),
    "analysis.sweep.records": ("count", "higher"),
    "analysis.sweep.profile_hit_ratio": ("ratio", "higher"),
    "analysis.cache.self_s": ("s", "lower"),
    "des.simulate.calls": ("count", "lower"),
    "des.simulate.self_s": ("s", "lower"),
    "des.simulate.stalled": ("count", "lower"),
    "runtime.compile.calls": ("count", "lower"),
    "runtime.compile.self_s": ("s", "lower"),
    "runtime.execute.calls": ("count", "lower"),
    "runtime.execute.self_s": ("s", "lower"),
    "collectives.verify.check.self_s": ("s", "lower"),
    "analysis.verifygrid.self_s": ("s", "lower"),
    "analysis.verifygrid.cells_ok": ("count", "higher"),
    "analysis.verifygrid.cells_skipped": ("count", "lower"),
    "analysis.verifygrid.cells_failed": ("count", "lower"),
    "tune.build.calls": ("count", "lower"),
    "tune.build.self_s": ("s", "lower"),
    "tune.serve.queries": ("count", "higher"),
    "tune.serve.self_s": ("s", "lower"),
    "tune.select.p50_us": ("us", "lower"),
    "tune.select.p999_us": ("us", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}
#: the traced units must attribute at least 90% of their wall-clock
MAX_UNATTRIBUTED = 0.10
SETUPS = 5
EXPECTED = HERE / "expected.json"


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of sorted ``values`` (0 without samples)."""
    if not values:
        return 0.0
    return values[max(0, math.ceil(len(values) * q) - 1)]


def _layer_metrics(tracer: shims.Tracer, walls: dict, counters: dict) -> dict:
    """Per-layer metrics: totals over the traced units, per traced unit.

    ``wall_s`` is the median untraced unit: the shims never time it.
    """
    layers = tracer.layers
    per = 1.0 / len(walls[True])
    hits = counters.get("cache.profile.hit", 0)
    lookups = hits + counters.get("cache.profile.miss", 0)
    latencies = sorted(layers["tune.select"].samples)
    special = {
        "wall_s": statistics.median(walls[False]),
        "trace.overhead_frac": (
            statistics.median(walls[True]) / statistics.median(walls[False]) - 1
        ),
        "trace.unattributed_s": (sum(walls[True]) - tracer.self_total()) * per,
        "analysis.sweep.profile_hit_ratio": hits / lookups if lookups else 0.0,
        "tune.select.p50_us": _percentile(latencies, 0.5) * 1e6,
        "tune.select.p999_us": _percentile(latencies, 0.999) * 1e6,
    }
    values = {}
    for name in PER_LAYER:
        layer_name, _, field = name.rpartition(".")
        if name in special:
            values[name] = special[name]
        elif field == "calls":
            values[name] = layers[layer_name].calls * per
        elif field == "self_s":
            values[name] = layers[layer_name].self_s * per
        else:
            values[name] = layers[layer_name].counts[field] * per
    return values


def _traced_problems(workload, tracer: shims.Tracer, walls: dict) -> list[str]:
    """Shim coverage and attribution guards of a traced run."""
    problems = [
        f"required layer {layer} saw no call"
        for layer in workload.layers if tracer.layers[layer].calls == 0
    ]
    traced_s = sum(walls[True])
    unattributed = traced_s - tracer.self_total()
    if unattributed > MAX_UNATTRIBUTED * traced_s:
        problems.append(
            f"traced units leave {unattributed / traced_s:.1%} of their "
            f"wall-clock unattributed (limit {MAX_UNATTRIBUTED:.0%})"
        )
    return problems


def fresh_setup(name: str, seed: int) -> float:
    """Seconds from starting a fresh process to its workload being set up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", name, "--seed", str(seed)]
    t = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        wall = time.perf_counter() - t
    if proc.returncode or ready.strip() != "ready":
        raise RuntimeError(f"{' '.join(cmd)} did not set up (exit {proc.returncode})")
    return wall


def measure(name: str, seed: int, seconds: float, trace: bool,
            grid: dict | None = None, setups: int = SETUPS) -> dict:
    """One run of workload ``name``: its metrics, digest and problems.

    An untraced run times ``setups`` fresh-process set-ups for ``setup_s``,
    spread evenly over the measured ``seconds`` (and not counted in them),
    so that a slow spell of a few seconds shifts one sample, not all.
    With ``setups=0`` (a tiny ``grid``, which a fresh process cannot see)
    the import time plus this process's own set-up stands in.
    """
    fresh = 0 if trace else setups
    setup_walls: list[float] = []
    gc.collect()
    t = time.perf_counter()
    workload = WORKLOADS[name](seed, **(grid or {}))
    if not fresh:
        setup_walls.append(IMPORT_S + time.perf_counter() - t)
    cycle = workload.cycle
    tracer = shims.Tracer() if trace else None
    counters: dict[str, float] = {}
    walls: dict[bool, list[float]] = {False: [], True: []}
    digests: dict[int, str] = {}
    problems: list[str] = []
    attempted = failed = 0
    out = None
    min_units = cycle * (2 if trace else 1)
    start = time.perf_counter()
    while attempted < min_units or time.perf_counter() - start < seconds:
        if len(setup_walls) < fresh and (
            time.perf_counter() - start >= len(setup_walls) * seconds / fresh
        ):
            t = time.perf_counter()
            setup_walls.append(fresh_setup(name, seed))
            start += time.perf_counter() - t
        i = attempted
        attempted += 1
        # traced and untraced units alternate; the parity flips every pass
        # over the inputs, so each input of a multi-input workload runs both ways
        traced = trace and (i % cycle + i // cycle) % 2 == 1
        gc.collect()
        obs_metrics.reset()
        if traced:
            tracer.install()
        t = time.perf_counter()
        try:
            out = workload.run(i)
        except Exception:
            failed += 1
            problems.append(f"unit {i}: {traceback.format_exc()}")
            continue
        finally:
            wall = time.perf_counter() - t
            if traced:
                tracer.uninstall()
        walls[traced].append(wall)
        if traced:
            for key, value in obs_metrics.counters().items():
                counters[key] = counters.get(key, 0) + value
        digest, unit_problems = workload.digest(i, out)
        first = digests.setdefault(i % cycle, digest)
        if digest != first:
            unit_problems.append(
                f"unit {i}: digest {digest} differs from {first} for the same input"
            )
        if unit_problems:
            failed += 1
            problems += unit_problems
    setup_walls += [fresh_setup(name, seed) for _ in range(fresh - len(setup_walls))]
    if out is not None:
        attempted += 1
        closing = workload.check(out)
        if closing:
            failed += 1
            problems += closing
    result = {
        "workload": name,
        "seed": seed,
        "digest": sha(digests[u] for u in range(cycle)) if len(digests) == cycle else None,
        "units": {"untraced": len(walls[False]), "traced": len(walls[True])},
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
    if trace and walls[True] and walls[False]:
        result["metrics"] = _layer_metrics(tracer, walls, counters)
        problems += _traced_problems(workload, tracer, walls)
        per = 1.0 / len(walls[True])
        builds = tracer.layers["collectives.build"].by_key
        result["top_builds"] = [
            {"collective": c, "algorithm": a, "p": p, "self_s": s * per}
            for (c, a, p), s in sorted(builds.items(), key=lambda kv: -kv[1])[:10]
        ]
    elif not trace and walls[False]:
        result["metrics"] = {
            "setup_s": statistics.median(setup_walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        problems.append("no unit completed")
        result["metrics"] = {}
    return result


def run_one(args) -> int:
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    expected = json.loads(EXPECTED.read_text()).get(args.workload)
    if args.seed == 0 and result["digest"] != expected:
        result["problems"].append(
            f"seed-0 digest {result['digest']} differs from expected.json "
            f"({expected}); update expected.json only if the outputs "
            "changed on purpose"
        )
    for problem in result["problems"]:
        print(f"PROBLEM {args.workload}: {problem}", file=sys.stderr)
    correct = not result["problems"] and result["failed"] == 0
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        key: result.get(key)
        for key in ("workload", "seed", "digest", "units", "top_builds")
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name][0]}
            for name, value in result["metrics"].items()
        },
    }))
    return 0 if correct else 1


def _child(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run in a fresh process: its detail line merged with its result."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} printed no result")
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    return detail | result | {"returncode": proc.returncode}


def _summary(runs: list[dict], declared: dict, bounds: dict | None = None) -> dict:
    """Median, min, max and every value of each declared metric over ``runs``."""
    summary = {}
    for metric, (unit, better) in declared.items():
        values = [r["metrics"][metric]["value"] for r in runs]
        summary[metric] = {
            "unit": unit, "better": better,
            "median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values), "values": values,
        }
        if bounds:
            summary[metric]["bound"] = bounds[metric]
    return summary


def run_suite(args) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workload or [w["name"] for w in bench["workloads"]]
    report = {"seed": args.seed, "repeat": args.repeat, "seconds": seconds,
              "cpu_count": os.cpu_count(), "workloads": {}}
    ok = True
    for name in names:
        untraced = [_child(name, args.seed, seconds, 0) for _ in range(args.repeat)]
        traced = [_child(name, args.seed, seconds, 1) for _ in range(args.repeat)]
        everything = untraced + traced
        attempted = sum(r["attempted"] for r in everything)
        failed = sum(r["failed"] for r in everything)
        entry = {
            "digest": traced[0]["digest"],
            "digests_agree": len({r["digest"] for r in everything}) == 1,
            "correct": all(r["correct"] and not r["returncode"] for r in everything),
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted,
            "end_to_end": _summary(untraced, END_TO_END, bounds),
            "per_layer": _summary(traced, PER_LAYER),
            "top_builds": traced[0]["top_builds"],
        }
        ok &= entry["correct"] and entry["digests_agree"]
        report["workloads"][name] = entry
        print(f"\n{name}  digest {entry['digest']}  digests agree: "
              f"{entry['digests_agree']}  error_rate {entry['error_rate']:g}")
        for metric, m in (entry["end_to_end"] | entry["per_layer"]).items():
            bound = f"  bound {m['bound']:.0%}" if "bound" in m else ""
            print(f"  {metric:<34} median {m['median']:>12.6g} {m['unit']:<5} "
                  f"min {m['min']:.6g}  max {m['max']:.6g}  n={m['n']}{bound}")
    out = Path(args.out) if args.out else HERE / "results" / f"seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {out}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                    help="workload to run (repeatable; suite default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=None,
                    help="measured seconds per run (suite default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="run one workload once: 0 end-to-end, 1 per-layer")
    ap.add_argument("--repeat", type=int, default=3,
                    help="suite: untraced and traced runs per workload")
    ap.add_argument("--out", help="suite: results JSON path")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_only:  # one timed set-up of fresh_setup
        WORKLOADS[args.workload[0]](args.seed)
        print("ready", flush=True)
        return 0
    if args.trace is None:
        return run_suite(args)
    if not args.workload or len(args.workload) != 1 or args.seconds is None:
        ap.error("--trace needs exactly one --workload and --seconds")
    args.workload = args.workload[0]
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
