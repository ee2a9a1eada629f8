#!/usr/bin/env python
"""Inspect Bine machinery interactively: negabinary labels, trees, coverage.

Prints the paper's Fig. 3/4/6 structures for a rank count of your choice:

    python examples/algorithm_playground.py [p]
"""

import sys

from repro.core.bine_tree import (
    bine_tree_distance_doubling,
    bine_tree_distance_halving,
    nu_labels,
)
from repro.core.butterfly import bine_butterfly_doubling
from repro.core.coverage import responsibility, segments_of
from repro.core.negabinary import nb_digits, rank_to_nb
from repro.core.tree import log2_exact


def main(p: int) -> None:
    s = log2_exact(p)
    print(f"=== negabinary rank labels, p={p} (paper Fig. 3/4) ===")
    print("rank :", "  ".join(f"{r:>4}" for r in range(p)))
    print("nb   :", "  ".join(nb_digits(rank_to_nb(r, p), s) for r in range(p)))
    print("nu   :", "  ".join(nb_digits(v, s) for v in nu_labels(p)))

    print(f"\n=== distance-halving Bine broadcast tree (root 0) ===")
    tree = bine_tree_distance_halving(p)
    for step in range(tree.num_steps):
        edges = ", ".join(f"{u}->{v}" for u, v in zip(*tree.edges[step]))
        print(f"  step {step}: {edges}")

    print(f"\n=== distance-doubling tree receive steps ===")
    dd = bine_tree_distance_doubling(p)
    print("  ", {r: dd.recv_step(r) for r in range(p)})

    print(f"\n=== reduce-scatter block responsibility (Sec. 3.2.3) ===")
    bf = bine_butterfly_doubling(p)
    for j in range(s + 1):
        blocks = sorted(responsibility(bf, 0, j))
        print(f"  rank 0 before step {j}: blocks {blocks} "
              f"({len(segments_of(blocks))} segments in natural layout)")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 16)
