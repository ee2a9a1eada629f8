"""``Topology.route_arrays`` ≡ ``Topology.route``, pair by pair.

The compiled route table routes node pairs in batches through
:meth:`~repro.topology.base.Topology.route_arrays`: Dragonfly and
Dragonfly+ in closed-form NumPy, every other topology (and every wrapper:
multi-rank nodes, degraded fabrics) through the base class's loop over
``route()``.  Either way each pair must get the links ``route()`` gives,
in route order, with the same class and width, and two links must share
a code exactly when they share a :attr:`~repro.topology.base.Link.key`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import DegradedTopology, FaultSpec
from repro.runtime.errors import TopologyPartitionedError
from repro.systems import leonardo, lumi
from repro.topology import Dragonfly, DragonflyPlus, LinkClass, MultiRankNodes, Torus


def assert_matches_route(topo, src, dst, codes=None) -> dict:
    """``topo.route_arrays(src, dst)`` against ``topo.route`` per pair.

    ``codes`` (key → code) carries the key/code bijection across calls;
    the updated map is returned.
    """
    codes = {} if codes is None else codes
    out = topo.route_arrays(np.asarray(src), np.asarray(dst))
    assert out.counts.dtype == out.code.dtype == out.cls.dtype == np.int64
    assert out.width.dtype == np.float64
    assert out.counts.shape == (len(src),)
    assert out.code.size == out.cls.size == out.width.size == out.counts.sum()
    ends = np.cumsum(out.counts).tolist()
    keys_of = {}
    for j, (a, b) in enumerate(zip(list(src), list(dst))):
        route = topo.route(int(a), int(b))
        lo, hi = ends[j] - out.counts[j], ends[j]
        assert [LinkClass.ALL[c] for c in out.cls[lo:hi].tolist()] == [
            link.cls for link in route
        ]
        assert out.width[lo:hi].tolist() == [float(link.width) for link in route]
        for link, code in zip(route, out.code[lo:hi].tolist()):
            assert codes.setdefault(link.key, code) == code
            assert keys_of.setdefault(code, link.key) == link.key
    assert len(set(codes.values())) == len(codes)
    return codes


def all_pairs(n: int) -> tuple[list[int], list[int]]:
    return [a for a in range(n) for _ in range(n)], [b for _ in range(n) for b in range(n)]


def random_pairs(n: int, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    return rng.integers(0, n, count), rng.integers(0, n, count)


@pytest.mark.parametrize("topo", [Dragonfly(4, 3), DragonflyPlus(3, 4)], ids=repr)
def test_small_dragonflies_every_ordered_pair(topo):
    src, dst = all_pairs(topo.num_nodes)
    codes = assert_matches_route(topo, src, dst)
    # codes stay the same on a second call, in another pair order
    assert_matches_route(topo, dst[::-1], src[::-1], codes)


@pytest.mark.parametrize("preset", [lumi, leonardo], ids=lambda f: f.__name__)
def test_presets_on_random_pairs(preset):
    topo = preset().build_topology()
    src, dst = random_pairs(topo.num_nodes, 20_000, seed=7)
    codes = assert_matches_route(topo, src, dst)
    # same-node pairs and a group's own pairs are in the draw too
    src2, dst2 = random_pairs(topo.nodes_per_group, 2_000, seed=8)
    assert_matches_route(topo, np.concatenate([src2, src2]),
                         np.concatenate([dst2, src2]), codes)


def test_same_node_pair_has_no_links():
    topo = lumi().build_topology()
    out = topo.route_arrays(np.array([5, 5]), np.array([5, 400]))
    assert out.counts.tolist() == [0, 3]
    assert out.code.size == 3


def test_empty_batch():
    out = Dragonfly(4, 3).route_arrays(np.zeros(0, int), np.zeros(0, int))
    assert out.counts.size == out.code.size == 0


@pytest.mark.parametrize("pair", [(12, 0), (0, 12), (-1, 0), (3, -2), (99, 100)])
@pytest.mark.parametrize("topo", [Dragonfly(4, 3), Torus((3, 4))], ids=repr)
def test_out_of_range_node_raises_like_route(topo, pair):
    with pytest.raises(ValueError) as scalar:
        topo.route(*pair)
    src, dst = np.array([1, pair[0], 2]), np.array([0, pair[1], 99])
    with pytest.raises(ValueError) as batch:
        topo.route_arrays(src, dst)
    assert str(batch.value) == str(scalar.value)


def test_degraded_topology_default_loop():
    inner = Dragonfly(6, 4, links_per_group_pair=2)
    topo = DegradedTopology(
        inner, FaultSpec.parse("links=3,nics=2,global=0.5,seed=13")
    )
    assert type(topo).route_arrays is not Dragonfly.route_arrays
    src, dst = all_pairs(topo.num_nodes)
    assert_matches_route(topo, src, dst)
    detoured = sum(
        len(topo.route(a, b)) > len(inner.route(a, b)) for a, b in zip(src, dst)
    )
    assert detoured  # the failed links reroute some pairs


def test_degraded_topology_partition_raises_like_route():
    topo = DegradedTopology(Dragonfly(4, 3), FaultSpec.parse("nodes=1,seed=5"))
    (down,) = topo.failed_nodes
    alive = (down + 1) % topo.num_nodes
    with pytest.raises(TopologyPartitionedError) as scalar:
        topo.route(alive, down)
    with pytest.raises(TopologyPartitionedError) as batch:
        topo.route_arrays(np.array([alive]), np.array([down]))
    assert str(batch.value) == str(scalar.value)


@pytest.mark.parametrize(
    "topo",
    [MultiRankNodes(Dragonfly(3, 2), 2), Torus((3, 4))],
    ids=repr,
)
def test_default_loop_on_other_topologies(topo):
    src, dst = all_pairs(topo.num_nodes)
    assert_matches_route(topo, src, dst)
