"""Tests for the per-rank responsibility backends and block permutations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.butterfly import (
    bine_butterfly_doubling,
    bine_butterfly_halving,
    recursive_doubling_butterfly,
    recursive_halving_butterfly,
    swing_butterfly,
)
from repro.core.coverage import responsibility
from repro.core.bine_tree import bine_tree_distance_halving
from repro.core.permutation import (
    apply_permutation,
    bine_block_permutation,
    compose_permutations,
    dfs_postorder_permutation,
    identity_permutation,
    invert_permutation,
    mirror_permutation,
    rotation_permutation,
)
from segment_oracle import resp_backend, sorted_runs

BUILDERS = [
    bine_butterfly_doubling,
    bine_butterfly_halving,
    recursive_doubling_butterfly,
    recursive_halving_butterfly,
    swing_butterfly,
]


class TestFastResp:
    @pytest.mark.parametrize("builder", BUILDERS)
    @pytest.mark.parametrize("p", [4, 16, 64])
    def test_agrees_with_generic(self, builder, p):
        bf = builder(p)
        fast = resp_backend(bf)
        for r in range(p):
            for j in range(bf.num_steps + 1):
                want = np.array(sorted(responsibility(bf, r, j)))
                assert np.array_equal(fast(r, j), want), (bf.kind, r, j)

    def test_large_p_cheap(self):
        # the closed form must not materialise Θ(p²) sets
        bf = bine_butterfly_doubling(4096)
        fast = resp_backend(bf)
        out = fast(123, 11)
        assert out.size == 2

    def test_sorted_runs(self):
        assert sorted_runs(np.array([0, 1, 2, 5, 6, 9])) == [(0, 3), (5, 7), (9, 10)]
        assert sorted_runs(np.array([], dtype=int)) == []
        assert sorted_runs(np.array([4])) == [(4, 5)]

    @given(blocks=st.sets(st.integers(min_value=0, max_value=100)))
    @settings(max_examples=100)
    def test_sorted_runs_cover(self, blocks):
        arr = np.array(sorted(blocks), dtype=int)
        covered = {i for lo, hi in sorted_runs(arr) for i in range(lo, hi)}
        assert covered == blocks


class TestPermutations:
    @pytest.mark.parametrize("p", [2, 4, 8, 16, 64])
    def test_bine_block_permutation_bijective(self, p):
        perm = bine_block_permutation(p)
        assert sorted(perm) == list(range(p))

    def test_fig8_example(self):
        # Fig. 8 (p=8): blocks {1,2,5,6} (ν LSB = 1) land in positions 4-7.
        perm = bine_block_permutation(8)
        assert {perm[b] for b in (1, 2, 5, 6)} == {4, 5, 6, 7}

    def test_invert(self):
        perm = bine_block_permutation(16)
        inv = invert_permutation(perm)
        assert compose_permutations(perm, inv) == identity_permutation(16)

    def test_compose_order(self):
        rot = rotation_permutation(4, 1)
        mir = mirror_permutation(4)
        ab = compose_permutations(rot, mir)
        items = list("abcd")
        assert apply_permutation(ab, items) == apply_permutation(
            mir, apply_permutation(rot, items)
        )

    def test_apply(self):
        perm = [2, 0, 1]
        assert apply_permutation(perm, ["a", "b", "c"]) == ["b", "c", "a"]

    @pytest.mark.parametrize("p", [4, 8, 32])
    def test_dfs_postorder_contiguous_subtrees(self, p):
        tree = bine_tree_distance_halving(p)
        perm = dfs_postorder_permutation(tree)
        for r in range(p):
            pos = sorted(perm[v] for v in tree.subtree(r))
            assert pos == list(range(pos[0], pos[0] + len(pos)))

    def test_root_is_last_in_postorder(self):
        tree = bine_tree_distance_halving(8)
        perm = dfs_postorder_permutation(tree)
        assert perm[tree.root] == 7

    def test_bad_permutation_rejected(self):
        with pytest.raises(ValueError):
            invert_permutation([0, 0, 1])
