#!/usr/bin/env python
"""Fugaku-style torus collectives (paper Sec. 5.4 and Appendix D).

Builds the torus-optimised Bine tree of Fig. 16 on a 4×4 torus, shows how
per-dimension construction cuts crossed links, then times (with the cost
model) the multiported allreduce against bucket and plain binomial on an
8×8×8 sub-torus.
"""

from repro.collectives.registry import build
from repro.collectives.torus import (
    bucket_allreduce,
    torus_bine_allreduce,
    torus_bine_allreduce_multiport,
)
from repro.collectives.verify import run_and_check
from repro.core.bine_tree import bine_tree_distance_halving
from repro.core.torus_opt import TorusShape, torus_bine_tree
from repro.model.compiled import evaluate_grid, lower_schedule, profile_table
from repro.systems import fugaku
from repro.topology.mapping import block_mapping
from repro.topology.torus import Torus


def fig16() -> None:
    print("=== Fig. 16: 4x4 torus, Bine tree vs torus-optimised Bine tree ===")
    torus = Torus((4, 4))
    shape = TorusShape((4, 4))
    flat = bine_tree_distance_halving(16)
    opt = torus_bine_tree(shape)
    print("  root's children, torus-optimised:",
          [f"{c}={torus.coords(c)}" for _, c in opt.children(0)])
    for name, tree in (("1-D bine", flat), ("torus bine", opt)):
        hops = sum(torus.torus_distance(u, v) for _, u, v in tree.all_edges())
        print(f"  {name:>12}: {hops} total links crossed")
    print()


def allreduce_timing() -> None:
    print("=== 8x8x8 sub-torus allreduce (64 MiB), cost-model timing ===")
    dims = (8, 8, 8)
    shape = TorusShape(dims)
    preset = fugaku(dims)
    topo = Torus(dims)
    p = shape.num_ranks
    mapping = block_mapping(p)
    candidates = {
        "bine multiport (6 NICs)": torus_bine_allreduce_multiport(shape, 6 * p),
        "bine torus (1 NIC)": torus_bine_allreduce(shape, p),
        "bucket (multi-ring)": bucket_allreduce(shape, p),
        "binomial (agnostic)": build("allreduce", "recursive-doubling", p, p),
    }
    nb = 64 * 1024**2
    for name, sched in candidates.items():
        prof = profile_table(lower_schedule(sched), topo, mapping)
        t = evaluate_grid(prof, preset.params, nb / 4).time[0]
        print(f"  {name:>24}: {t * 1e3:8.2f} ms")
    print("  (paper Sec. 5.4: Bine up to 5x over SOTA; 40x over plain binomial)")


def correctness_check() -> None:
    print("\n=== executor correctness on a 2x4x2 torus ===")
    shape = TorusShape((2, 4, 2))
    run_and_check(torus_bine_allreduce(shape, 4 * shape.num_ranks))
    run_and_check(bucket_allreduce(shape, 2 * shape.num_ranks))
    print("  torus bine + bucket allreduce verified against NumPy")


if __name__ == "__main__":
    fig16()
    allreduce_timing()
    correctness_check()
