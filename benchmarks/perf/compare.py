"""Compare two suite results of ``run.py``: base (A) against change (B).

    python3 benchmarks/perf/compare.py A.json B.json

Prints one row per workload.  For each end-to-end metric the row shows
each side's median with its quartiles and a verdict, using the bounds of
``BENCHMARK.json``:

* ``unresolved`` — either side's quartile spread exceeds the bound, and not
  every run of B beats every run of A;
* ``worse`` — B's median is worse than A's by more than the bound;
* ``better`` — B's median is better than A's by more than A's own
  quartile spread;
* ``within bound`` — otherwise.

The row also compares the per-layer ``wall_s``, the median unit
wall-clock, which has no bound because it does not repeat within one on
the reference box.  Its verdict is ``better`` or ``worse`` only when every
run of B reads better, or worse, than every run of A, else
``unresolved``, and it never makes the comparison fail.

Speed counts only for correct outputs: a workload whose B runs are not
all correct, disagree on their digest, or fail more often than A's is
``invalid`` and shows no metric verdicts.  Exits 1 when any verdict is
``worse`` or ``invalid``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
#: per-layer metrics compared next to the end-to-end ones, without a bound
UNBOUNDED = ("wall_s",)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: list[float], b: list[float], bound: float | None, better: str) -> str:
    sign = 1 if better == "lower" else -1
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    if bound is None:
        if max(sign * v for v in b) < min(sign * v for v in a):
            return "better"
        if min(sign * v for v in b) > max(sign * v for v in a):
            return "worse"
        return "unresolved"
    if (a_q3 - a_q1) > bound * a_med or (b_q3 - b_q1) > bound * b_med:
        beats = max(sign * v for v in b) < min(sign * v for v in a)
        return "better" if beats else "unresolved"
    change = sign * (b_med - a_med)  # > 0 means B is worse
    if change > bound * a_med:
        return "worse"
    if -change > a_q3 - a_q1:
        return "better"
    return "within bound"


def invalid(a: dict, b: dict) -> str | None:
    """Why B's runs of a workload do not count, or None when they do."""
    if not b["correct"]:
        return "B has wrong outputs"
    if not b["digests_agree"]:
        return "B's runs disagree on the output digest"
    if b["error_rate"] > a["error_rate"]:
        return f"B fails more: error_rate {a['error_rate']:g} -> {b['error_rate']:g}"
    return None


def compare(a: dict, b: dict, bench: dict) -> tuple[list[str], bool]:
    metrics = [("end_to_end", m) for m in bench["end_to_end"]]
    metrics += [("per_layer", m | {"bound": None})
                for m in bench["per_layer"] if m["name"] in UNBOUNDED]
    rows, rejected = [], False
    for workload, wa in a["workloads"].items():
        wb = b["workloads"].get(workload)
        if wb is None:
            rows.append(f"{workload:<14} missing from B")
            continue
        reason = invalid(wa, wb)
        if reason:
            rows.append(f"{workload:<14} invalid: {reason}")
            rejected = True
            continue
        cells = []
        for section, m in metrics:
            va = wa[section][m["name"]]["values"]
            vb = wb[section][m["name"]]["values"]
            v = verdict(va, vb, m["bound"], m["better"])
            rejected |= v == "worse" and m["bound"] is not None
            (aq1, am, aq3), (bq1, bm, bq3) = quartiles(va), quartiles(vb)
            cells.append(
                f"{m['name']} {am:.4g} [{aq1:.4g}, {aq3:.4g}] -> "
                f"{bm:.4g} [{bq1:.4g}, {bq3:.4g}] {m['unit']} {v}"
            )
        rows.append(f"{workload:<14} " + " | ".join(cells))
    return rows, rejected


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, rejected = compare(a, b, bench)
    print("\n".join(rows))
    return 1 if rejected else 0


if __name__ == "__main__":
    sys.exit(main())
