"""Dragonfly and Dragonfly+ topologies (LUMI Sec. 5.1, Leonardo Sec. 5.2).

Groups are internally fully connected (modelled non-blocking at the group
level, keyed per node pair); distinct groups connect through a limited
number of direct global links.  Minimal routing uses exactly one global hop.
``links_per_group_pair`` scales the global capacity: Dragonfly+ (Leonardo)
has more parallel global links between group pairs than a minimal Dragonfly,
which the cost model sees as more distinct shared resources.

:meth:`Dragonfly.route_arrays` routes many pairs in closed form: link
codes fall in four disjoint ranges (intra-group pair, exit, global
bundle, entry), so a code names exactly one :meth:`Dragonfly.route` key.
"""

from __future__ import annotations

import numpy as np

from repro.topology.base import Link, LinkClass, RouteArrays, Topology

_LOCAL = LinkClass.ALL.index(LinkClass.LOCAL)
_GLOBAL = LinkClass.ALL.index(LinkClass.GLOBAL)

__all__ = ["Dragonfly", "DragonflyPlus"]


class Dragonfly(Topology):
    """a groups × g nodes, single-hop minimal global routing."""

    def __init__(self, num_groups: int, nodes_per_group: int, links_per_group_pair: int = 1):
        if num_groups <= 0 or nodes_per_group <= 0:
            raise ValueError("group dimensions must be positive")
        if links_per_group_pair <= 0:
            raise ValueError("links_per_group_pair must be positive")
        self.num_groups_ = num_groups
        self.nodes_per_group = nodes_per_group
        self.links_per_group_pair = links_per_group_pair

    @property
    def num_nodes(self) -> int:
        return self.num_groups_ * self.nodes_per_group

    def group_of(self, node: int) -> int:
        self._check_node(node)
        return node // self.nodes_per_group

    def route(self, src: int, dst: int) -> list[Link]:
        self._check_node(src)
        self._check_node(dst)
        if src == dst:
            return []
        gs, gd = self.group_of(src), self.group_of(dst)
        if gs == gd:
            a, b = min(src, dst), max(src, dst)
            return [Link(("intra", gs, a, b), LinkClass.LOCAL)]
        lo, hi = min(gs, gd), max(gs, gd)
        return [
            Link(("exit", gs, src % self.nodes_per_group), LinkClass.LOCAL),
            Link(("glob", lo, hi), LinkClass.GLOBAL, width=self.links_per_group_pair),
            Link(("entry", gd, dst % self.nodes_per_group), LinkClass.LOCAL),
        ]

    def route_arrays(self, src, dst) -> RouteArrays:
        """:meth:`route` for every pair ``src[j] → dst[j]``, in NumPy.

        A same-group route is one ``intra`` link coded ``a·N + b``
        (``a < b``, ``N`` nodes); a cross-group route is ``exit`` /
        ``glob`` / ``entry``, coded past ``N²`` by source node, group pair
        and destination node.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        n, g = self.num_nodes, self.num_groups_
        bad = (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
        if bad.any():
            j = int(np.argmax(bad))
            self._check_node(int(src[j]))
            self._check_node(int(dst[j]))
        gs, gd = src // self.nodes_per_group, dst // self.nodes_per_group
        same = gs == gd
        counts = np.where(src == dst, 0, np.where(same, 1, 3))
        code = np.stack([
            np.where(same, np.minimum(src, dst) * n + np.maximum(src, dst),
                     n * n + src),
            n * n + n + np.minimum(gs, gd) * g + np.maximum(gs, gd),
            n * n + n + g * g + dst,
        ], axis=1)
        # slot k of a route is its k-th link; keep each pair's first counts
        keep = np.arange(3) < counts[:, None]
        slot = np.nonzero(keep)[1]
        return RouteArrays(
            counts=counts,
            code=code[keep],
            cls=np.array([_LOCAL, _GLOBAL, _LOCAL], np.int64)[slot],
            width=np.array([1.0, self.links_per_group_pair, 1.0])[slot],
        )

    def __repr__(self) -> str:
        return f"Dragonfly({self.num_groups_}x{self.nodes_per_group})"


class DragonflyPlus(Dragonfly):
    """Dragonfly+ — groups are leaf/spine pods with richer global wiring.

    Behaviourally identical for group-crossing accounting; the extra global
    parallelism is expressed through a higher ``links_per_group_pair``.
    """

    def __init__(self, num_groups: int, nodes_per_group: int, links_per_group_pair: int = 4):
        super().__init__(num_groups, nodes_per_group, links_per_group_pair)

    def __repr__(self) -> str:
        return f"DragonflyPlus({self.num_groups_}x{self.nodes_per_group})"
