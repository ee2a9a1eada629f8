"""Tests for Bine tree construction (paper Secs. 2.2-2.3, 3.2, Fig. 3/4/6)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bine_tree import (
    bine_tree_distance_doubling,
    bine_tree_distance_halving,
    dd_partner,
    dd_recv_step,
    dh_partner,
    dh_recv_step,
    nu_inverse,
    nu_label,
    nu_labels,
)
from repro.core.blocks import wrap_range_from_set
from repro.core.distance import modulo_distance
from repro.core.negabinary import bit_reverse
from repro.core.tree import TreeError

POWERS = [2, 4, 8, 16, 32, 64, 128]


class TestDistanceHalvingTree:
    def test_fig4_recv_steps(self):
        # Fig. 4: 16-node tree; rank 8 (nb 1000, u=3) receives at step 1.
        assert dh_recv_step(8, 16) == 1

    def test_fig4_partners(self):
        # Fig. 4 box B: at step 2, rank 8 sends to rank 7.
        assert dh_partner(8, 2, 16) == 7
        # Root's first send in a 16-node tree: nb2rank(1111) = -5 mod 16 = 11.
        assert dh_partner(0, 0, 16) == 11

    def test_fig3_eight_node_root_children(self):
        # Fig. 3: order-3 tree root's children by step: 3, then 7, then 1.
        tree = bine_tree_distance_halving(8)
        assert tree.children(0) == ((0, 3), (1, 7), (2, 1))

    def test_root_to_root_distance_shorter_than_binomial(self):
        # Fig. 3 vs Fig. 2 box E: Bine joins order-2 trees at modulo
        # distance 3; binomial at distance 4.
        tree = bine_tree_distance_halving(8)
        first_child = tree.children(0)[0][1]
        assert modulo_distance(0, first_child, 8) == 3

    @pytest.mark.parametrize("p", POWERS)
    def test_spanning_and_unique_reach(self, p):
        tree = bine_tree_distance_halving(p)
        # build_tree validates; also check every non-root has a parent
        assert tree.parent(tree.root) is None
        for r in range(p):
            if r != tree.root:
                assert tree.parent(r) is not None

    @pytest.mark.parametrize("p", POWERS)
    @pytest.mark.parametrize("root", [0, 1, 5])
    def test_rotation_by_root(self, p, root):
        root %= p
        base = bine_tree_distance_halving(p, 0)
        rot = bine_tree_distance_halving(p, root)
        for step in range(base.num_steps):
            expect = {((u + root) % p, (v + root) % p) for u, v in zip(*base.edges[step])}
            assert set(zip(*rot.edges[step])) == expect

    @pytest.mark.parametrize("p", POWERS)
    def test_subtrees_circular_contiguous(self, p):
        # The property gather/scatter rely on (Fig. 7).
        tree = bine_tree_distance_halving(p)
        for r in range(p):
            wrap_range_from_set(tree.subtree(r), p)  # raises otherwise

    @pytest.mark.parametrize("p", [8, 16, 32, 64])
    def test_distance_shrinks_by_step(self, p):
        # Distance-halving: step i edges span ~2^{s-i}/3 — non-increasing
        # (paper footnote 3: off by at most ±1 from exact halving, and the
        # last two steps both span distance 1).
        tree = bine_tree_distance_halving(p)
        prev = None
        for step in range(tree.num_steps):
            dists = {modulo_distance(u, v, p) for u, v in zip(*tree.edges[step])}
            assert len(dists) == 1  # all edges of a step span the same distance
            d = dists.pop()
            if prev is not None:
                assert d <= prev
            prev = d


class TestNuLabels:
    def test_fig6_table(self):
        # Fig. 6: ν for ranks 0..7 = 000 001 011 100 110 111 101 010.
        assert nu_labels(8) == [0b000, 0b001, 0b011, 0b100, 0b110, 0b111, 0b101, 0b010]

    @pytest.mark.parametrize("p", POWERS)
    def test_bijection(self, p):
        inv = nu_inverse(p)  # raises if not bijective
        for r in range(p):
            assert inv[nu_label(r, p)] == r

    @pytest.mark.parametrize("p", POWERS)
    def test_parity_alternation(self, p):
        # Partners differ in one ν bit and always pair even with odd ranks
        # (Sec. 3.2.2: sums of powers of −2 are odd).
        if p < 4:
            return
        for r in range(p):
            for j in range(p.bit_length() - 1):
                q = dd_partner(r, j, p)
                assert (r + q) % 2 == 1


class TestDistanceDoublingTree:
    def test_fig6_rank2(self):
        # Sec. 3.2.2: rank 2 receives at step 1 (ν=011), then sends to 5 at
        # step 2 (011 ⊕ 100 = 111 → rank 5).
        assert dd_recv_step(2, 8) == 1
        assert dd_partner(2, 2, 8) == 5

    @pytest.mark.parametrize("p", POWERS)
    def test_tree_valid(self, p):
        tree = bine_tree_distance_doubling(p)
        assert tree.num_steps == p.bit_length() - 1

    @pytest.mark.parametrize("p", [8, 16, 32, 64])
    def test_subtrees_contiguous_in_pi_space(self, p):
        # App. D.2 / Sec. 4.3.1: subtree π windows are contiguous, enabling
        # the single-segment large broadcast/reduce.
        s = p.bit_length() - 1
        nus = nu_labels(p)
        pi = [bit_reverse(nus[b], s) for b in range(p)]
        tree = bine_tree_distance_doubling(p)
        for r in range(p):
            pos = sorted(pi[v] for v in tree.subtree(r))
            assert pos == list(range(pos[0], pos[0] + len(pos)))

    @pytest.mark.parametrize("p", [8, 16, 32, 64])
    def test_distance_grows_by_step(self, p):
        # Non-decreasing (the first two steps both span distance 1).
        tree = bine_tree_distance_doubling(p)
        prev = None
        for step in range(tree.num_steps):
            dists = {modulo_distance(u, v, p) for u, v in zip(*tree.edges[step])}
            assert len(dists) == 1
            d = dists.pop()
            if prev is not None:
                assert d >= prev
            prev = d


class TestTreeQueries:
    def test_all_edges_count(self):
        tree = bine_tree_distance_halving(16)
        assert len(tree.all_edges()) == 15  # spanning tree

    def test_invalid_rank_raises(self):
        tree = bine_tree_distance_halving(8)
        with pytest.raises(ValueError):
            tree.recv_step(8)
