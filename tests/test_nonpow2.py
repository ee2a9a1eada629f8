"""Tests for Appendix C: non-power-of-two rank counts."""

import hashlib

import pytest

from repro.collectives.tree_collectives import bcast_from_tree, reduce_from_tree
from repro.collectives.verify import run_and_check
from repro.core.nonpow2 import (
    bine_tree_dh_pruned,
    ceil_log2,
    fold_plan,
)
from repro.core.tree import TreeError

EVEN_PS = [2, 6, 10, 12, 14, 18, 20, 22, 24, 26, 30, 34, 40, 48, 50, 62, 100, 126]

#: sha256 (first 16 hex digits) of ``repr([(root, tree.all_edges(),
#: tree.pruned_edges) for root in (0, 1, p // 2)])``, recorded from the
#: per-rank pruned builder before the trees became arrays
PRUNED_PINS = {
    2: "d9fba3af21830688",
    6: "a01755d36a8f2f18",
    10: "c52a0a2bcd92242b",
    12: "3f513c458786776b",
    14: "ae1192b7bb5c5a34",
    18: "3a3c046918556ee0",
    20: "0ed4042db5d9ffe9",
    22: "089272d57c244915",
    24: "fbc27f72e2847659",
    26: "2c3e429e615c3eaf",
    30: "fb972cf27cff40a1",
    34: "ada0dbb337a3a2d1",
    40: "9b80d3ae82d99346",
    48: "22ddf5ce21977bf3",
    50: "e92de87465248b6d",
    62: "d021c8cf3a816216",
    100: "2fea9f264dc1e12d",
    126: "1fad039be8017bf4",
}


class TestCeilLog2:
    def test_values(self):
        assert [ceil_log2(p) for p in (1, 2, 3, 4, 5, 8, 9, 1023, 1024)] == [
            0, 1, 2, 2, 3, 3, 4, 10, 10]

    def test_invalid(self):
        with pytest.raises(ValueError):
            ceil_log2(0)


class TestPrunedTrees:
    @pytest.mark.parametrize("p", EVEN_PS)
    def test_spanning(self, p):
        tree = bine_tree_dh_pruned(p)
        reached = {v for _, _, v in tree.all_edges()}
        assert reached == set(range(1, p)) if tree.root == 0 else True
        assert len(tree.all_edges()) == p - 1

    @pytest.mark.parametrize("p", EVEN_PS)
    def test_no_extra_volume(self, p):
        # The whole point of pruning (vs folding): exactly p−1 transfers.
        tree = bine_tree_dh_pruned(p)
        sched = bcast_from_tree(tree, 8)
        assert sum(len(s.transfers) for s in sched.steps) == p - 1

    @pytest.mark.parametrize("p", [6, 10, 20, 34, 126])
    def test_bcast_reduce_correct(self, p):
        tree = bine_tree_dh_pruned(p)
        run_and_check(bcast_from_tree(tree, 11))
        run_and_check(reduce_from_tree(tree, 11))

    @pytest.mark.parametrize("p", [6, 10, 20])
    def test_nonzero_roots(self, p):
        for root in (1, p // 2):
            tree = bine_tree_dh_pruned(p, root)
            run_and_check(bcast_from_tree(tree, 9))

    def test_six_node_example(self):
        # Appendix C / Fig. 15: p=6 prunes the duplicate 4↔5 subtree sends.
        tree = bine_tree_dh_pruned(6)
        assert len(tree.pruned_edges) == 2
        pruned_ranks = {v for _, _, v in tree.pruned_edges}
        assert pruned_ranks <= {4, 5}

    def test_power_of_two_prunes_nothing(self):
        for p in (4, 16, 64):
            tree = bine_tree_dh_pruned(p)
            assert tree.pruned_edges == ()

    @pytest.mark.parametrize("p", EVEN_PS)
    def test_pinned(self, p):
        rows = []
        for root in (0, 1, p // 2):
            tree = bine_tree_dh_pruned(p, root)
            rows.append((root, tree.all_edges(), tree.pruned_edges))
        assert hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == PRUNED_PINS[p]

    @pytest.mark.parametrize("p", [3, 5, 7, 9, 15])
    def test_odd_p_rejected(self, p):
        # "this approach cannot be directly applied if p is odd" (App. C)
        with pytest.raises(TreeError):
            bine_tree_dh_pruned(p)


class TestFoldPlan:
    def test_power_of_two_noop(self):
        fp = fold_plan(16)
        assert fp.p_prime == 16 and fp.pre_pairs == () and fp.extra == 0

    @pytest.mark.parametrize("p", [3, 5, 6, 7, 9, 10, 100])
    def test_fold_structure(self, p):
        fp = fold_plan(p)
        assert fp.p_prime & (fp.p_prime - 1) == 0
        assert fp.p_prime <= p < 2 * fp.p_prime
        assert len(fp.pre_pairs) == p - fp.p_prime
        for extra, proxy in fp.pre_pairs:
            assert extra >= fp.p_prime
            assert proxy == extra - fp.p_prime < fp.p_prime

    def test_post_pairs_mirror_pre(self):
        fp = fold_plan(10)
        assert fp.post_pairs == tuple((b, a) for a, b in fp.pre_pairs)

    def test_proxy_of(self):
        fp = fold_plan(10)
        assert fp.proxy_of(9) == 1
        assert fp.proxy_of(3) == 3
