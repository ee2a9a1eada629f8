"""Cross-backend validation: executor, traffic counter, and cost model must
agree on the facts they share for the same schedule."""

import pytest

from repro.collectives.registry import ALGORITHMS, build
from repro.collectives.verify import init_buffers
from repro.model.traffic import global_traffic_elems
from repro.runtime import execute
from repro.topology.dragonfly import Dragonfly
from repro.topology.mapping import block_mapping
from scalar_oracle import evaluate_time, profile_schedule, traffic_by_class

KEYS = sorted(ALGORITHMS)


@pytest.fixture(scope="module")
def topo():
    return Dragonfly(4, 4, links_per_group_pair=2)


@pytest.mark.parametrize("key", KEYS, ids=lambda k: f"{k[0]}-{k[1]}")
def test_executor_moves_what_schedule_declares(key):
    """Trace element counts equal the schedule's declared communication."""
    sched = build(*key, 8, 32)
    bufs = init_buffers(sched)
    trace = execute(sched, bufs)
    assert trace.elems_moved == sched.total_comm_elems()
    assert trace.transfers_run == sum(len(s.transfers) for s in sched.steps)


@pytest.mark.parametrize("key", KEYS, ids=lambda k: f"{k[0]}-{k[1]}")
def test_profile_global_bytes_match_traffic_counter(key, topo):
    """The profile's global bytes equal the standalone traffic metric."""
    p = 16
    sched = build(*key, p, p)
    mapping = block_mapping(p)
    groups = mapping.groups(topo)
    direct = global_traffic_elems(sched, groups)
    profile = profile_schedule(sched, topo, mapping)
    assert profile.total_global_elems() == direct


@pytest.mark.parametrize("key", KEYS, ids=lambda k: f"{k[0]}-{k[1]}")
def test_profile_class_totals_match_traffic_by_class(key, topo):
    p = 16
    sched = build(*key, p, p)
    mapping = block_mapping(p)
    assert profile_schedule(sched, topo, mapping).total_class_elems() == (
        traffic_by_class(sched, topo, mapping)
    )


@pytest.mark.parametrize(
    "key",
    [("allreduce", "bine-rsag"), ("allreduce", "ring"),
     ("bcast", "bine"), ("alltoall", "bruck")],
    ids=lambda k: f"{k[0]}-{k[1]}",
)
def test_time_monotone_in_size(key, topo):
    """More bytes never make the modelled collective faster."""
    from repro.model.cost import CostParams

    sched = build(*key, 16, 16)
    profile = profile_schedule(sched, topo, block_mapping(16))
    params = CostParams()
    times = [evaluate_time(profile, params, n).time for n in (8, 64, 512, 4096, 32768)]
    assert times == sorted(times)
