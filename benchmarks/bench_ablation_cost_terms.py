"""Ablation: which cost-model term drives which paper effect (DESIGN.md §4.3).

* zeroing the per-segment overhead collapses the Bine-vs-Swing gap
  (Sec. 5.2.2's 2× contiguity claim);
* equalising global and local bandwidth collapses Bine-vs-binomial gains
  (the whole premise: oversubscribed global links);
* dropping ports to 1 removes the multiport torus advantage (App. D.4).
"""

from dataclasses import replace

from repro.analysis.sweep import ProfileCache, sweep_system
from repro.model.cost import CostParams
from repro.model.compiled import evaluate_grid, lower_schedule, profile_table
from repro.collectives.torus import (
    torus_bine_allreduce,
    torus_bine_allreduce_multiport,
)
from repro.core.torus_opt import TorusShape
from repro.systems import fugaku, lumi
from repro.topology.base import LinkClass
from repro.topology.mapping import block_mapping
from repro.topology.torus import Torus

from benchmarks._shared import write_result


def compute():
    preset = lumi()
    cache = ProfileCache(preset, placement="scheduler")
    nb = 1024**2
    recs = sweep_system(
        preset, ("allreduce",), node_counts=(256,), vector_bytes=(nb,),
        algorithms=("bine-rsag", "swing", "rabenseifner"), cache=cache,
    )
    base = {r.algorithm: r.time for r in recs}

    # (1) no segment overhead → Swing recovers towards Bine
    params_noseg = replace(preset.params, seg_overhead=0.0)
    noseg = {
        r.algorithm: r.time
        for r in sweep_system(
            preset, ("allreduce",), node_counts=(256,), vector_bytes=(nb,),
            algorithms=("bine-rsag", "swing"), params=params_noseg, cache=cache,
        )
    }

    # (2) global links as fast as local → binomial recovers towards Bine
    beta_flat = dict(preset.params.beta)
    beta_flat[LinkClass.GLOBAL] = beta_flat[LinkClass.LOCAL]
    params_flat = replace(preset.params, beta=beta_flat)
    flat = {
        r.algorithm: r.time
        for r in sweep_system(
            preset, ("allreduce",), node_counts=(256,), vector_bytes=(nb,),
            algorithms=("bine-rsag", "rabenseifner"), params=params_flat, cache=cache,
        )
    }

    # (3) single-port Fugaku → multiport advantage vanishes
    dims = (4, 4, 4)
    shape = TorusShape(dims)
    fug = fugaku(dims)
    topo = Torus(dims)
    mapping = block_mapping(shape.num_ranks)
    single = profile_table(
        lower_schedule(torus_bine_allreduce(shape, shape.num_ranks)), topo, mapping
    )
    multi = profile_table(
        lower_schedule(torus_bine_allreduce_multiport(shape, 6 * shape.num_ranks)),
        topo, mapping,
    )
    n_t = 64 * 1024**2 / 4

    def ratio(params):
        return float(
            evaluate_grid(single, params, n_t).time[0]
            / evaluate_grid(multi, params, n_t).time[0]
        )

    with_ports = ratio(fug.params)
    without_ports = ratio(replace(fug.params, ports=1))
    return base, noseg, flat, with_ports, without_ports


def test_ablation_cost_terms(benchmark):
    base, noseg, flat, with_ports, without_ports = benchmark.pedantic(
        compute, rounds=1, iterations=1
    )
    swing_gap_base = base["swing"] / base["bine-rsag"]
    swing_gap_noseg = noseg["swing"] / noseg["bine-rsag"]
    binom_gap_base = base["rabenseifner"] / base["bine-rsag"]
    binom_gap_flat = flat["rabenseifner"] / flat["bine-rsag"]
    lines = [
        f"swing/bine time ratio: base={swing_gap_base:.2f}, "
        f"no-segment-overhead={swing_gap_noseg:.2f}",
        f"rabenseifner/bine ratio: base={binom_gap_base:.2f}, "
        f"flat-global-bandwidth={binom_gap_flat:.2f}",
        f"multiport speedup: 6 ports={with_ports:.2f}x, 1 port={without_ports:.2f}x",
        "each paper effect disappears when its cost term is ablated",
    ]
    write_result("ablation_cost_terms", "\n".join(lines))

    assert swing_gap_base > swing_gap_noseg    # segments drove the Swing gap
    assert binom_gap_base > binom_gap_flat     # oversubscription drove Bine's win
    assert with_ports > without_ports          # ports drove the multiport win
