"""Tests for ring, Bruck, alltoall, composed, and hierarchical collectives."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives.alltoall import (
    alltoall_bine,
    alltoall_bruck,
    alltoall_pairwise,
)
from repro.collectives.composed import hierarchical_allreduce_bine
from repro.collectives.registry import build
from repro.collectives.ring import ring_pass
from repro.collectives.verify import run_and_check
from repro.runtime.schedule import overlay_steps


class TestRing:
    @pytest.mark.parametrize("p", [2, 3, 5, 8, 16, 17])
    def test_allreduce_any_p(self, p):
        run_and_check(build("allreduce", "ring", p, 3 * p + 1))

    @pytest.mark.parametrize("p", [2, 4, 7, 16])
    def test_rs_ag(self, p):
        run_and_check(build("reduce_scatter", "ring", p, 2 * p + 1))
        run_and_check(build("allgather", "ring", p, 2 * p + 1))

    def test_step_count_linear(self):
        assert build("allgather", "ring", 10, 20).num_steps == 9
        assert build("allreduce", "ring", 10, 20).num_steps == 18

    def test_marked_segmented(self):
        assert build("allreduce", "ring", 4, 8).meta["segmented"] is True

    def test_p1_rejected(self):
        with pytest.raises(ValueError):
            build("allgather", "ring", 1, 4)


class TestLinear:
    @pytest.mark.parametrize("p", [2, 5, 9])
    @pytest.mark.parametrize("root", [0, 1])
    def test_gather_scatter(self, p, root):
        run_and_check(build("gather", "linear", p, 3 * p, root % p))
        run_and_check(build("scatter", "linear", p, 3 * p, root % p))

    def test_single_step(self):
        assert build("gather", "linear", 9, 18).num_steps == 1


class TestBruckAllgather:
    @pytest.mark.parametrize("p", [2, 3, 5, 8, 12, 16, 31])
    def test_correct_any_p(self, p):
        run_and_check(build("allgather", "bruck", p, 2 * p))

    @pytest.mark.parametrize("p", [2, 5, 8, 13])
    def test_sparbit_correct(self, p):
        run_and_check(build("allgather", "sparbit", p, 2 * p))

    def test_log_rounds(self):
        assert build("allgather", "bruck", 16, 32).num_steps == 4
        assert build("allgather", "bruck", 17, 34).num_steps == 5

    def test_bruck_segments_at_most_two(self):
        sched = build("allgather", "bruck", 16, 32)
        assert max(t.num_segments for _, t in sched.all_transfers()) <= 2

    def test_sparbit_per_block(self):
        sched = build("allgather", "sparbit", 16, 32)
        assert max(t.num_segments for _, t in sched.all_transfers()) > 2


class TestAlltoall:
    @pytest.mark.parametrize("p", [2, 4, 8, 16])
    def test_bine(self, p):
        run_and_check(alltoall_bine(p, 2 * p))

    @pytest.mark.parametrize("p", [2, 3, 5, 8, 12, 16])
    def test_bruck(self, p):
        run_and_check(alltoall_bruck(p, 2 * p))

    @pytest.mark.parametrize("p", [2, 3, 5, 8, 16])
    def test_pairwise(self, p):
        run_and_check(alltoall_pairwise(p, 2 * p))

    def test_bine_sends_half_per_step(self):
        """Sec. 4.4: at each step each rank ships n/2 bytes."""
        p, n = 16, 32
        sched = alltoall_bine(p, n)
        for step in sched.steps:
            if not step.transfers:
                continue
            per_rank = {}
            for t in step.transfers:
                per_rank[t.src] = per_rank.get(t.src, 0) + t.nelems
            assert all(v == n // 2 for v in per_rank.values())

    def test_divisibility_required(self):
        with pytest.raises(ValueError):
            alltoall_bine(8, 17)

    def test_step_counts(self):
        assert sum(1 for s in alltoall_pairwise(8, 16).steps if s.transfers) == 7
        assert sum(1 for s in alltoall_bine(8, 16).steps if s.transfers) == 3

    @given(seed=st.integers(min_value=0, max_value=5000))
    @settings(max_examples=15, deadline=None)
    def test_property_random_payloads(self, seed):
        run_and_check(alltoall_bine(8, 24), seed=seed)


class TestComposed:
    @pytest.mark.parametrize("p", [4, 8, 16, 32])
    @pytest.mark.parametrize("root", [0, 5])
    def test_bcast_large(self, p, root):
        run_and_check(build("bcast", "scatter-allgather", p, 4 * p, root % p))
        run_and_check(build("bcast", "bine-scatter-allgather", p, 4 * p, root % p))

    @pytest.mark.parametrize("p", [4, 8, 16, 32])
    @pytest.mark.parametrize("root", [0, 5])
    def test_reduce_large(self, p, root):
        run_and_check(build("reduce", "rabenseifner", p, 4 * p, root % p))
        run_and_check(build("reduce", "bine-rsag", p, 4 * p, root % p))

    def test_bine_bcast_no_local_copies(self):
        """Sec. 4.5: Bine large bcast never reorders data locally."""
        sched = build("bcast", "bine-scatter-allgather", 16, 64)
        for step in sched.steps:
            assert not step.pre and not step.post

    def test_bine_reduce_contiguous_at_root0(self):
        """Sec. 4.5: contiguous transmission throughout for root 0."""
        sched = build("reduce", "bine-rsag", 16, 64, root=0)
        assert all(t.num_segments == 1 for _, t in sched.all_transfers())


#: sha256 of ``repr(meta) + repr(steps)`` at n = 3 · nodes · gpus, pinned
#: from the builder that merged remapped ``Schedule`` objects step by step
HIERARCHICAL_PINNED = {
    (2,2): "c60d9ab497b731467f51fb98a4f467ceabad399f57e63584e1a46e1d39f6f661",
    (4,4): "670192ba86e5754be0a7c7a2acd62d5c5e80b4f5abc50e31d7e68400929e0a83",
    (8,2): "6306ef69e6f4a41647e8188349e1d36fa46390fa707eef93eba962860038411e",
    (2,8): "4dfe09cd37008de48471a6bb3a4da85be8f60c68f86e9dfe07caa3c0613582c2",
}


class TestHierarchical:
    @pytest.mark.parametrize("nodes,gpus", [(2, 2), (4, 4), (8, 2), (2, 8)])
    def test_correct(self, nodes, gpus):
        run_and_check(hierarchical_allreduce_bine(nodes, gpus, 2 * nodes * gpus))

    @pytest.mark.parametrize("nodes,gpus", list(HIERARCHICAL_PINNED))
    def test_pinned(self, nodes, gpus):
        sched = hierarchical_allreduce_bine(nodes, gpus, 3 * nodes * gpus)
        digest = hashlib.sha256((repr(sched.meta) + repr(sched.steps)).encode())
        assert digest.hexdigest() == HIERARCHICAL_PINNED[nodes, gpus]

    def test_meta(self):
        sched = hierarchical_allreduce_bine(4, 4, 32)
        assert sched.meta["hierarchical"] is True
        assert sched.p == 16

    def test_intra_phases_stay_on_node(self):
        sched = hierarchical_allreduce_bine(4, 4, 32)
        first, last = sched.steps[0], sched.steps[-1]
        for step in (first, last):
            for t in step.transfers:
                assert t.src // 4 == t.dst // 4  # same node


def test_overlay_embeds_parts_in_lockstep():
    # part 0: a 3-rank ring on ranks 10, 11, 12 of slice [100, 106);
    # part 1: a 2-rank ring (one step) on ranks 20, 21 of slice [0, 4)
    parts = [(list(ring_pass(3, 6, 0, None, "ag")), [10, 11, 12], 100),
             (list(ring_pass(2, 4, 0, None, "ag")), [20, 21], 0)]
    first, second = overlay_steps(parts)
    assert first.label == "ring ag step 0"
    ph = first.transfers
    assert ph.src.tolist() == [10, 11, 12, 20, 21]
    assert ph.dst.tolist() == [11, 12, 10, 21, 20]
    _, lo, hi = ph.segments
    assert list(zip(lo.tolist(), hi.tolist())) == [
        (100, 102), (102, 104), (104, 106), (0, 2), (2, 4)]
    # the shorter part has dropped out
    assert second.transfers.src.tolist() == [10, 11, 12]
    assert second.transfers.segments[1].tolist() == [104, 100, 102]
    # parts whose transfer phases differ in tag cannot share a phase
    parts[1] = (list(ring_pass(2, 4, 0, None, "other")), [20, 21], 0)
    with pytest.raises(ValueError, match="step 'ring ag step 0'"):
        list(overlay_steps(parts))
