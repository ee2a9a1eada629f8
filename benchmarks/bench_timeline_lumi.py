"""Mid-flight robustness study: LUMI collectives under fault timelines.

Runs ``campaigns/timeline_lumi.toml`` — Bine vs binomial on LUMI while
links fail and heal and background traffic comes and goes *mid-run* —
and renders a per-scenario slowdown table against the pristine control.

Timeline scenarios run on the discrete-event fabric engine; the control
runs on the compiled analytic engine, whose numbers the DES engine
reproduces exactly on a calm fabric (the calibration contract of
``docs/robustness.md``), so every slowdown in the table is attributable
to the timeline, not to engine skew.
"""

from benchmarks._shared import campaign_records, write_result


def _by_scenario(records):
    """Regroup into {(faults, timeline): {(coll, algo, p, n): record}}."""
    scenarios = {}
    for r in records:
        cell = (r.collective, r.algorithm, r.p, r.n_bytes)
        scenarios.setdefault((r.faults, r.timeline), {})[cell] = r
    return scenarios


def compute():
    return _by_scenario(campaign_records("timeline_lumi"))


def test_timeline_lumi(benchmark):
    scenarios = benchmark.pedantic(compute, rounds=1, iterations=1)
    control = scenarios.pop(("none", "none"))
    assert control and scenarios  # the pristine baseline plus >=1 timeline

    lines = []
    perturbed_cells = {}
    for (faults, tl), cells in sorted(scenarios.items()):
        assert cells.keys() == control.keys()  # same grid per scenario
        slow = sorted(
            ((r.time / control[cell].time, cell, r) for cell, r in cells.items()),
            reverse=True,
        )
        genuine = [s for s in slow if s[0] > 1 + 1e-9]
        perturbed_cells[(faults, tl)] = len(genuine)
        worst, (coll, algo, p, nb), _ = slow[0]
        lines.append(f"--- {faults} @ {tl} ---")
        lines.append(
            f"  perturbed {len(genuine)}/{len(cells)} cells, worst "
            f"{worst:5.2f}x ({coll}/{algo} p={p} {nb}B)"
        )
        for factor, (coll, algo, p, nb), _ in slow[:3]:
            lines.append(f"    {factor:5.2f}x  {coll:>10}/{algo:<24} "
                         f"p={p:<4} {nb:>9}B")
    write_result("timeline_lumi", "\n".join(lines))

    # the campaign's timelines are tuned to genuinely exercise the DES
    # reroute / contention paths without ever partitioning the fabric
    assert all(not r.stalled for cells in scenarios.values()
               for r in cells.values())
    for (faults, tl), count in perturbed_cells.items():
        assert count > 0, f"timeline never perturbed: {faults} @ {tl}"
