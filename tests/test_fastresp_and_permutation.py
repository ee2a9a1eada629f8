"""Tests for the per-rank responsibility backends.

The block permutation π of Fig. 8 is tested with the other labels in
``tests/test_perf_caching.py::TestLabelTables``.
"""

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
