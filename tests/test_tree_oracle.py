"""Array trees against the per-rank oracle (``tests/tree_oracle.py``).

Every family's reach-order tree must equal the tree the per-rank
builder simulates from the closed-form ``recv_step`` and ``partner``
rules: edges in order, ``recv_step``, ``parent``, ``children`` and
subtree sets, for p = 2…4096 and roots 0, 1, p/2 and p − 1, and the
torus Bine tree on six shapes with two roots.
"""

import pytest

from repro.core.bine_tree import bine_tree_distance_doubling, bine_tree_distance_halving
from repro.core.binomial_tree import (
    binomial_tree_distance_doubling,
    binomial_tree_distance_halving,
)
from repro.core.torus_opt import TorusShape, torus_bine_tree
from repro.core.tree import TreeError, build_tree

from tree_oracle import FAMILIES, oracle_torus_tree, oracle_tree, tree_mismatches

BUILDERS = {
    "bine-dh": bine_tree_distance_halving,
    "bine-dd": bine_tree_distance_doubling,
    "binomial-dd": binomial_tree_distance_doubling,
    "binomial-dh": binomial_tree_distance_halving,
}
TORUS_SHAPES = [(2, 4), (2, 2, 2), (4, 4), (4, 4, 4), (8, 8, 8), (8, 4, 2)]


@pytest.mark.parametrize("p", [1 << k for k in range(1, 13)])
@pytest.mark.parametrize("family", FAMILIES)
def test_family_equals_oracle(family, p):
    for root in sorted({0, 1, p // 2, p - 1}):
        tree = BUILDERS[family](p, root)
        assert tree_mismatches(oracle_tree(family, p, root), tree) == [], (family, p, root)


@pytest.mark.parametrize("dims", TORUS_SHAPES)
def test_torus_tree_equals_oracle(dims):
    shape = TorusShape(dims)
    for root in (0, shape.num_ranks - 1):
        tree = torus_bine_tree(shape, root)
        assert tree_mismatches(oracle_torus_tree(shape, root), tree) == [], (dims, root)


def test_build_tree_rejects_bad_partners():
    with pytest.raises(TreeError, match=r"partner\(0,0\) = 4 out of range"):
        build_tree(4, 0, kind="bad", partner=lambda r, i: r + 4)
    with pytest.raises(TreeError, match=r"rank 1 reached twice \(step 1, from 0\)"):
        build_tree(4, 0, kind="bad", partner=lambda r, i: r * 0 + 1)
    with pytest.raises(ValueError, match="root 4 out of range"):
        build_tree(4, 4, kind="bad", partner=lambda r, i: r ^ (1 << i))
