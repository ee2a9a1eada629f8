"""Sweep-pipeline performance tracker (build → profile → evaluate wall-clock).

Times the fixed 3-collective LUMI campaign (``allreduce``, ``allgather``,
``bcast``; 9 vector sizes) in two grids — p = 16/64/256/1024 at one rank
per node, plus p = 4096 at ppn = 2 (LUMI has 2976 nodes) — and writes
``BENCH_sweep.json`` at the repo root so the perf trajectory is tracked:

* **cold** — fresh process-level memo caches, no disk cache: the full
  build → lower → route → profile → evaluate pipeline on the compiled
  profile engine.  Timed ``COLD_RUNS`` times, each after
  ``clear_memo_caches()``; ``cold_s`` is the median and
  ``cold_min_s`` / ``cold_max_s`` give the spread;
* **warm** — second run against a populated on-disk profile cache
  (schedule construction, lowering and routing skipped entirely);
* **parallel** — cold run sharded over ``(collective, p)`` worker
  processes.  Wall-clock only helps on multi-core hosts, so on a
  single-core box the measurement is *skipped* (recorded as ``null`` with
  a reason) — process-pool overhead on 1 CPU reads like a regression when
  it is just Amdahl; the JSON always records the core count next to it;
* **warm evaluation** — profiles already memoized in-process, only the
  evaluation layer runs: each profile's whole size grid evaluates in one
  ``evaluate_grid`` pass.  An absolute budget is asserted (measured
  ~0.03 s on one core) — this is what makes campaign-scale reruns
  effectively free;
* **trace overhead** — the estimated cost of the *disabled* telemetry
  hooks (``obs.span`` no-ops and always-on counter increments) on the
  warm compiled evaluation pass: hooks actually crossed × per-call
  microbenchmark cost, asserted under 3% of the untraced wall-clock;
* **peak memory** — ``peak_rss_mb`` is the ``ru_maxrss`` of a fresh
  process running the cold campaign once (asserted at most
  ``MAX_RSS_MB``, which CI also checks), and ``records_digest`` the
  digest of its records.  It is measured first, while this process is
  small: Linux carries a parent's resident peak into a child's
  ``ru_maxrss`` across exec.

The seed pipeline measured ~50 s for the p ≤ 1024 campaign on the
paper-repro reference box and could not reach p = 4096 interactively; the
optimized pipeline's numbers live in the JSON, not in assertions — only
generous regression ceilings are asserted so CI stays portable.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro.analysis.sweep import ProfileCache, clear_memo_caches, sweep_system
from repro.report.artifacts import records_digest
from repro.systems import lumi

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_sweep.json"
CACHE_DIR = Path(__file__).parent / "results" / ".cache" / "bench_perf_sweep"

COLLECTIVES = ("allreduce", "allgather", "bcast")
NODE_COUNTS = (16, 64, 256, 1024)
#: LUMI is 24 x 124 = 2976 nodes: 4096 ranks run two-per-node
P4096, P4096_PPN = 4096, 2
VECTOR_BYTES = tuple(32 * 8**k for k in range(9))

#: generous ceiling for the cold run (measured ~24 s on the bench box —
#: the p=4096 exact butterfly builds dominate; the quadratic-validate-era
#: pipeline could not finish this campaign at all)
COLD_BUDGET_S = 90.0
#: cold repetitions behind the recorded median and spread
COLD_RUNS = 3
#: generous ceiling for the warm evaluation pass (measured ~0.03 s)
WARM_EVAL_BUDGET_S = 0.25
#: disabled telemetry hooks must stay under 3% of the warm-eval wall-clock
TRACE_OVERHEAD_CEILING = 0.03
#: ceiling on the fresh-process cold campaign's peak RSS (measured ~76 MB
#: with int32 tables and route columns, ~100 MB with int64 ones)
MAX_RSS_MB = 95.0


def _run_campaign(cache=None, **kwargs) -> tuple[float, list]:
    """Both grids of the campaign, timed; returns (seconds, records)."""
    preset = cache.preset if cache is not None else lumi()
    t0 = time.perf_counter()
    records = list(
        sweep_system(
            preset, COLLECTIVES, node_counts=NODE_COUNTS,
            vector_bytes=VECTOR_BYTES, cache=cache, **kwargs,
        )
    )
    records += sweep_system(
        preset, COLLECTIVES, node_counts=(P4096,), ppn=P4096_PPN,
        vector_bytes=VECTOR_BYTES, cache=cache, **kwargs,
    )
    return time.perf_counter() - t0, records


def peak_rss_mb() -> tuple[float, str]:
    """``ru_maxrss`` in MB of a fresh process running the cold campaign
    once, and the ``records_digest`` of its records."""
    code = (
        "import resource\n"
        "from benchmarks.bench_perf_sweep import _run_campaign\n"
        "from repro.report.artifacts import records_digest\n"
        "_, records = _run_campaign()\n"
        "rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024\n"
        "print(records_digest(records), rss)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": f"{REPO_ROOT / 'src'}{os.pathsep}{REPO_ROOT}"},
    )
    digest, rss = out.stdout.split()[-2:]
    return round(float(rss), 1), digest


def _warm_eval() -> dict:
    """Evaluation-layer wall-clock with fully warm in-process profiles."""
    cache = ProfileCache(lumi())
    _run_campaign(cache=cache)  # build + profile once
    eval_s, _ = _run_campaign(cache=cache)  # pure evaluation
    return {"compiled_s": round(eval_s, 4)}


def _trace_overhead(untraced_warm_eval_s: float) -> dict:
    """Estimated tracing-*disabled* telemetry cost on the warm eval pass.

    Runs the warm compiled evaluation once inside an in-memory trace
    session to count the span/counter hooks it actually crosses, then
    microbenchmarks the disabled-path cost of each hook kind (a no-op
    ``span()`` with representative kwargs; an always-on counter
    increment).  The product, as a fraction of the untraced wall-clock,
    deliberately *overcounts* (counter totals stand in for call counts)
    so the asserted ceiling is conservative.
    """
    from repro import obs

    cache = ProfileCache(lumi())
    _run_campaign(cache=cache)  # warm the profiles
    obs.begin_session(None)
    try:
        _run_campaign(cache=cache)
    finally:
        trace_doc, stats_doc = obs.end_session()
    spans = sum(1 for e in trace_doc["traceEvents"] if e.get("ph") == "B")
    increments = int(sum(stats_doc["counters"].values()))

    reps = 20_000
    t0 = time.perf_counter()
    for _ in range(reps):
        with obs.span(
            "bench.span", collective="allreduce", algorithm="bine",
            p=1024, ppn=1,
        ):
            pass
    span_s = (time.perf_counter() - t0) / reps
    t0 = time.perf_counter()
    for _ in range(reps):
        obs.inc("bench.overhead_probe")
    inc_s = (time.perf_counter() - t0) / reps
    obs.reset()  # drop the probe counters

    overhead_s = spans * span_s + increments * inc_s
    return {
        "span_sites_crossed": spans,
        "counter_increments": increments,
        "disabled_span_ns": round(span_s * 1e9, 1),
        "counter_inc_ns": round(inc_s * 1e9, 1),
        "overhead_s": round(overhead_s, 6),
        "fraction_of_warm_eval": round(overhead_s / untraced_warm_eval_s, 6),
    }


def compute() -> dict:
    # first, while this process is small (see the module docstring)
    rss_mb, digest = peak_rss_mb()
    shutil.rmtree(CACHE_DIR, ignore_errors=True)

    cold_times = []
    for _ in range(COLD_RUNS):
        clear_memo_caches()
        cold_s, cold_records = _run_campaign()
        cold_times.append(cold_s)
    n_cold = len(cold_records)

    # populate the disk cache (memo caches stay warm: that is the steady
    # state a second process inherits from), then measure the warm run
    _run_campaign(disk_dir=CACHE_DIR)
    warm_s, warm_records = _run_campaign(disk_dir=CACHE_DIR)

    cpu_count = os.cpu_count() or 1
    if cpu_count < 2:
        # a process pool on one core only adds fork/IPC overhead; skip the
        # measurement so the JSON is not misread as a parallel regression
        parallel_s = None
        parallel_note = f"skipped: cpu_count={cpu_count} < 2 (pool overhead only)"
    else:
        clear_memo_caches()
        parallel_s, par_records = _run_campaign(workers=4)
        parallel_note = None
        assert n_cold == len(par_records)

    warm_eval = _warm_eval()
    trace_overhead = _trace_overhead(warm_eval["compiled_s"])

    assert n_cold == len(warm_records)
    assert records_digest(cold_records) == digest
    result = {
        "campaign": {
            "system": "lumi",
            "collectives": list(COLLECTIVES),
            "node_counts": list(NODE_COUNTS) + [P4096],
            "p4096_ppn": P4096_PPN,
            "vector_bytes": len(VECTOR_BYTES),
            "records": n_cold,
        },
        "cold_s": round(statistics.median(cold_times), 3),
        "cold_min_s": round(min(cold_times), 3),
        "cold_max_s": round(max(cold_times), 3),
        "cold_runs": COLD_RUNS,
        "peak_rss_mb": rss_mb,
        "records_digest": digest,
        "warm_disk_cache_s": round(warm_s, 3),
        "parallel_workers4_s": round(parallel_s, 3) if parallel_s is not None else None,
        "warm_eval": warm_eval,
        "trace_overhead": trace_overhead,
        "cpu_count": cpu_count,
        "unix_time": int(time.time()),
    }
    if parallel_note:
        result["parallel_workers4_note"] = parallel_note
    BENCH_JSON.write_text(json.dumps(result, indent=2) + "\n")
    return result


def test_perf_sweep():
    result = compute()
    print(f"\n[bench_perf_sweep] {json.dumps(result, indent=2)}")
    assert result["cold_s"] < COLD_BUDGET_S
    assert result["warm_disk_cache_s"] < result["cold_s"]
    assert result["warm_eval"]["compiled_s"] < WARM_EVAL_BUDGET_S
    assert (
        result["trace_overhead"]["fraction_of_warm_eval"]
        < TRACE_OVERHEAD_CEILING
    )
    assert result["peak_rss_mb"] <= MAX_RSS_MB, result["peak_rss_mb"]


if __name__ == "__main__":
    print(json.dumps(compute(), indent=2))
