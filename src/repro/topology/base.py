"""Topology abstraction: nodes, groups, minimal routes, link classes.

The paper's central metric is *bytes crossing global links* — links between
fully connected groups (Dragonfly/Dragonfly+ groups, fat-tree subtrees) or,
on a torus, any link at all.  A topology therefore exposes:

* ``group_of(node)`` — the locality unit whose boundary defines "global";
* ``route(src, dst)`` — the minimal path as a list of :class:`Link`s, each
  with a class (``local`` / ``global`` / ``torus`` / ``intra``) that the
  cost model prices separately;
* ``route_arrays(src, dst)`` — the same routes for many node pairs at once,
  flattened into :class:`RouteArrays` (integer link codes instead of
  :class:`Link` objects) for the compiled profiler's route table.

Injection (node → first switch) is *not* part of routes; the cost model
accounts for it from per-node send totals.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = ["Link", "Topology", "LinkClass", "RouteArrays"]


class LinkClass:
    """Link class names (plain strings so they hash/compare cheaply)."""

    LOCAL = "local"       # intra-group network
    GLOBAL = "global"     # inter-group / oversubscribed level
    TORUS = "torus"       # torus mesh link (all oversubscribed, Sec. 5.4.3)
    INTRA = "intra"       # intra-node (e.g. GPU clique)

    #: every class; :attr:`RouteArrays.cls` holds indices into this tuple
    ALL = (LOCAL, GLOBAL, TORUS, INTRA)


_CLASS_IDS = {cls: i for i, cls in enumerate(LinkClass.ALL)}


@dataclass(frozen=True)
class Link:
    """A shared network resource.  ``key`` must be unique per resource.

    ``width`` models adaptive routing over parallel physical links: a
    Dragonfly group pair with 16 global links is one :class:`Link` of width
    16 — the cost model divides its load by the width, as adaptive routing
    spreads flows across the bundle (paper Sec. 5.1.1 notes minimal-path
    accounting is a lower bound for exactly this reason).  Width-derated
    fault scenarios (:mod:`repro.faults`) scale widths by factors in
    ``(0, 1]``, so widths are not necessarily integral.
    """

    key: tuple
    cls: str
    width: float = 1


class RouteArrays(NamedTuple):
    """The routes of many node pairs, flattened in pair order.

    Pair ``j``'s links are the next ``counts[j]`` entries of the flat
    columns, in route order.  Two links share a ``code`` exactly when
    their :attr:`Link.key` values are equal, across every call on the same
    topology instance.
    """

    counts: np.ndarray  # (pairs,) int64 links per route
    code: np.ndarray    # (links,) int64 link codes
    cls: np.ndarray     # (links,) int64 indices into LinkClass.ALL
    width: np.ndarray   # (links,) float64 link widths


class Topology(ABC):
    """Abstract network: node count, groups, minimal routing."""

    @property
    @abstractmethod
    def num_nodes(self) -> int: ...

    @abstractmethod
    def group_of(self, node: int) -> int:
        """Locality group of ``node`` (global traffic = inter-group bytes)."""

    @abstractmethod
    def route(self, src: int, dst: int) -> list[Link]:
        """Minimal path between distinct nodes as shared-link list."""

    def route_arrays(self, src, dst) -> RouteArrays:
        """:meth:`route` for every pair ``src[j] → dst[j]``, as flat arrays.

        This default calls :meth:`route` per pair and interns each
        :attr:`Link.key` to a code on the instance, so wrapped and degraded
        topologies route exactly as their scalar :meth:`route` does.
        Subclasses with closed-form routes override it with array
        arithmetic (:class:`~repro.topology.dragonfly.Dragonfly`).
        """
        codes = self.__dict__.setdefault("_link_codes", {})
        routes = [
            self.route(a, b)
            for a, b in zip(np.asarray(src).tolist(), np.asarray(dst).tolist())
        ]
        flat = [link for route in routes for link in route]
        return RouteArrays(
            counts=np.array([len(route) for route in routes], np.int64),
            code=np.array(
                [codes.setdefault(x.key, len(codes)) for x in flat], np.int64
            ),
            cls=np.array([_CLASS_IDS[x.cls] for x in flat], np.int64),
            width=np.array([x.width for x in flat], np.float64),
        )

    # -- shared helpers -----------------------------------------------------

    @property
    def num_groups(self) -> int:
        # Cached on the instance: profiling asks for this once per schedule,
        # and the set comprehension is O(num_nodes) on every access.
        cached = getattr(self, "_num_groups_cache", None)
        if cached is None:
            cached = len({self.group_of(v) for v in range(self.num_nodes)})
            self._num_groups_cache = cached
        return cached

    def crosses_groups(self, src: int, dst: int) -> bool:
        return self.group_of(src) != self.group_of(dst)

    def hops(self, src: int, dst: int) -> tuple[int, int]:
        """``(local_hops, global_hops)`` on the minimal route."""
        local = global_ = 0
        for link in self.route(src, dst):
            if link.cls in (LinkClass.GLOBAL,):
                global_ += 1
            else:
                local += 1
        return local, global_

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} out of range for {self.num_nodes} nodes")
