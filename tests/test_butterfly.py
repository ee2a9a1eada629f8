"""Tests for butterfly matchings (paper Sec. 3.1, Eq. 3-5, Appendix A)."""

import numpy as np
import pytest

from repro.core.butterfly import (
    BUTTERFLY_BUILDERS,
    Butterfly,
    bine_butterfly_doubling,
    bine_butterfly_halving,
    bine_sigma,
    recursive_doubling_butterfly,
    recursive_halving_butterfly,
    swing_butterfly,
)
from repro.core.distance import modulo_distance

POWERS = [2, 4, 8, 16, 32, 64, 128, 256]


class TestSigma:
    def test_values(self):
        # Σ_{k<w} (−2)^k: 0, 1, −1, 3, −5, 11, −21, 43 …
        assert [bine_sigma(w) for w in range(8)] == [0, 1, -1, 3, -5, 11, -21, 43]

    def test_always_integer(self):
        for w in range(40):
            assert (1 - (-2) ** w) % 3 == 0

    def test_magnitude_near_two_thirds(self):
        # |σ(w)| ≈ 2^w / 3 (Sec. 2.4.1)
        for w in range(4, 30):
            assert abs(abs(bine_sigma(w)) / 2**w - 1 / 3) < 0.2 / 2**w * 2**w * 0.5 + 1 / 3 * 0.51


class TestMatchingValidity:
    @pytest.mark.parametrize("name", sorted(BUTTERFLY_BUILDERS))
    @pytest.mark.parametrize("p", POWERS)
    def test_perfect_matching_every_step(self, name, p):
        bf = BUTTERFLY_BUILDERS[name](p)
        bf.validate()
        assert bf.num_steps == p.bit_length() - 1

    @pytest.mark.parametrize("p", POWERS)
    def test_even_odd_pairing(self, p):
        # Sec. 3.1: Bine butterflies always pair even ranks with odd ranks.
        if p < 2:
            return
        for bf in (bine_butterfly_doubling(p), bine_butterfly_halving(p)):
            for j in range(bf.num_steps):
                for r in range(p):
                    assert (r + bf.partner(r, j)) % 2 == 1


class TestPaperExamples:
    def test_fig6_dd_pairs_p8(self):
        bf = bine_butterfly_doubling(8)
        # step 0: (0,1),(2,3),(4,5),(6,7); step 1: (0,7),(1,2),(3,4),(5,6)
        assert bf.matching(0) == [(0, 1), (2, 3), (4, 5), (6, 7)]
        assert sorted(bf.matching(1)) == [(0, 7), (1, 2), (3, 4), (5, 6)]

    def test_eq4_step0_rank2(self):
        # Fig. 6 annotation: at step i=0 rank 2 talks to rank 5 (σ(3)=3).
        bf = bine_butterfly_halving(8)
        assert bf.partner(2, 0) == 5

    def test_halving_is_reversed_doubling(self):
        # Eq. 4 at step i equals Eq. 5 at step s−1−i — the allgather is the
        # exact reverse of the reduce-scatter.
        for p in (4, 8, 16, 64):
            dd = bine_butterfly_doubling(p)
            dh = bine_butterfly_halving(p)
            s = dd.num_steps
            for i in range(s):
                assert np.array_equal(dh.partners[i], dd.partners[s - 1 - i])

    def test_swing_shares_bine_matchings(self):
        # Sec. 4.4: Swing's communication pattern equals Bine's; only the
        # data layout differs.
        for p in (8, 32):
            assert np.array_equal(
                swing_butterfly(p).partners, bine_butterfly_doubling(p).partners
            )


class TestDistances:
    @pytest.mark.parametrize("p", [8, 16, 32, 64, 128, 256])
    def test_bine_distances_two_thirds_of_binomial(self, p):
        # Eq. 2: per step, Bine partners are ~2/3 the modulo distance of
        # recursive-doubling partners.
        dd = bine_butterfly_doubling(p)
        rd = recursive_doubling_butterfly(p)
        for j in range(dd.num_steps):
            d_bine = modulo_distance(0, dd.partner(0, j), p)
            d_binom = modulo_distance(0, rd.partner(0, j), p)
            assert d_bine <= d_binom
            if j >= 2:
                assert abs(d_bine / d_binom - 2 / 3) < 0.15

    def test_doubling_distances_grow(self):
        bf = bine_butterfly_doubling(64)
        dists = [modulo_distance(0, bf.partner(0, j), 64) for j in range(bf.num_steps)]
        assert dists == sorted(dists)


class TestReversed:
    def test_reversed_roundtrip(self):
        bf = recursive_halving_butterfly(16)
        assert np.array_equal(bf.reversed().reversed().partners, bf.partners)

    def test_invalid_partner_rejected(self):
        bad = Butterfly(4, "bad", ((1, 0, 3, 2), (2, 3, 0, 0)))
        with pytest.raises(ValueError):
            bad.validate()

    def test_self_partner_rejected(self):
        bad = Butterfly(2, "bad", ((0, 1),))
        with pytest.raises(ValueError):
            bad.validate()
