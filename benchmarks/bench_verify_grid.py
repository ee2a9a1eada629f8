"""Verification-pipeline performance tracker (reference vs compiled oracle).

Times the same grid-scale ``verify_grid`` call — every algorithm of the
three campaign collectives (``allreduce``, ``allgather``, ``bcast``) at
the LUMI rank counts 16/64/256/1024, two seeds per cell, one element per
rank block — under both execution engines and writes ``BENCH_verify.json``
at the repo root:

* **reference** — the interpreted per-transfer executor, one seed at a
  time (what ``repro schedule --verify`` always ran), rebuilding every
  schedule from scratch like any reference run does;
* **compiled (cold)** — render (or build and compile) each cell's
  columnar plan, then execute all seeds in one batched pass.  Timed
  ``COLD_RUNS`` times, each after ``clear_memo_caches()``;
  ``compiled_cold_s`` is the median and ``compiled_cold_min_s`` /
  ``compiled_cold_max_s`` give the spread.  Plans are not memoized, so
  there is no warm run: every run makes every plan.

The 1024-rank ring cells dominate the reference side — a Θ(p²)-transfer
schedule is exactly the "bulk verification at p=1024 is impractical" case
the compiled subsystem exists for — so the headline number is
``speedup_cold = reference_s / compiled_cold_s``, which must stay ≥ 5×.

``peak_rss_mb`` is the ``ru_maxrss`` of a fresh process verifying the
same three collectives at p=1024 alone, ``n = p``, ring included: the
memory a Table-3 scale check needs.  Expect several minutes of
wall-clock: the reference engine really does interpret ~5M transfers,
and the cold compiled run repeats three times.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro.analysis.sweep import clear_memo_caches
from repro.analysis.verifygrid import verify_grid

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_verify.json"

COLLECTIVES = ("allreduce", "allgather", "bcast")
NODE_COUNTS = (16, 64, 256, 1024)
#: one element per rank block: correctness is a structural property, and a
#: thin vector keeps the comparison on executor overhead, not memcpy volume
ELEMS_PER_RANK = 1
SEEDS = (0, 1)

#: acceptance floor for the cold compiled path over the reference engine
MIN_COLD_SPEEDUP = 5.0
#: cold repetitions behind the recorded median and spread
COLD_RUNS = 3
#: rank count of the grid whose peak memory is recorded, and its ceiling:
#: one plan phase per ring step or a grid-wide plan memo goes past it
RSS_NODES = 1024
MAX_RSS_MB = 200.0


def _run(engine: str) -> tuple[float, list]:
    t0 = time.perf_counter()
    records = verify_grid(
        COLLECTIVES,
        NODE_COUNTS,
        elems_per_rank=ELEMS_PER_RANK,
        seeds=SEEDS,
        engine=engine,
    )
    return time.perf_counter() - t0, records


def peak_rss_mb() -> float:
    """``ru_maxrss`` in MB of a fresh process verifying the compiled grid
    at ``RSS_NODES`` ranks, ``n = p``, ring included; raises if a cell
    fails."""
    code = (
        "import resource\n"
        "from repro.analysis.verifygrid import verify_grid\n"
        f"records = verify_grid({COLLECTIVES!r}, ({RSS_NODES},), "
        f"elems_per_rank={ELEMS_PER_RANK}, seeds={SEEDS!r})\n"
        "failed = [r.algorithm for r in records if r.status == 'failed']\n"
        "assert not failed, failed\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    return round(float(out.stdout.split()[-1]), 1)


def compute() -> dict:
    # first, while this process is small: Linux carries the parent's
    # resident peak into a child's ru_maxrss across exec
    rss_mb = peak_rss_mb()
    clear_memo_caches()
    reference_s, ref_records = _run("reference")

    cold_times = []
    for _ in range(COLD_RUNS):
        clear_memo_caches()  # cold: label and pattern tables start empty
        cold_s, cold_records = _run("compiled")
        cold_times.append(cold_s)
    cold_s = statistics.median(cold_times)

    for records, engine in ((ref_records, "reference"),
                            (cold_records, "compiled")):
        failed = [r for r in records if r.status == "failed"]
        assert not failed, f"{engine}: {[(r.collective, r.algorithm, r.p) for r in failed]}"
    assert [r.to_dict() | {"elapsed_s": 0, "engine": ""} for r in ref_records] == [
        r.to_dict() | {"elapsed_s": 0, "engine": ""} for r in cold_records
    ], "engines disagree on grid statuses"

    ok = sum(1 for r in ref_records if r.status == "ok")
    result = {
        "grid": {
            "collectives": list(COLLECTIVES),
            "node_counts": list(NODE_COUNTS),
            "elems_per_rank": ELEMS_PER_RANK,
            "seeds": list(SEEDS),
            "cells": len(ref_records),
            "cells_ok": ok,
        },
        "reference_s": round(reference_s, 3),
        "compiled_cold_s": round(cold_s, 3),
        "compiled_cold_min_s": round(min(cold_times), 3),
        "compiled_cold_max_s": round(max(cold_times), 3),
        "compiled_cold_runs": COLD_RUNS,
        "speedup_cold": round(reference_s / cold_s, 2),
        "peak_rss_mb": rss_mb,
        "peak_rss_node_counts": [RSS_NODES],
        "cpu_count": os.cpu_count(),
        "unix_time": int(time.time()),
    }
    BENCH_JSON.write_text(json.dumps(result, indent=2) + "\n")
    return result


def test_verify_grid_speedup():
    result = compute()
    print(f"\n[bench_verify_grid] {json.dumps(result, indent=2)}")
    assert result["grid"]["cells_ok"] > 0
    assert result["speedup_cold"] >= MIN_COLD_SPEEDUP, (
        f"compiled cold path only {result['speedup_cold']}x over reference "
        f"(floor {MIN_COLD_SPEEDUP}x)"
    )
    assert result["peak_rss_mb"] <= MAX_RSS_MB, result["peak_rss_mb"]


if __name__ == "__main__":
    print(json.dumps(compute(), indent=2))
