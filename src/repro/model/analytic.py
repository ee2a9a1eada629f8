"""Analytic alltoall profiles: cost aggregates without a transfer table.

Pairwise-alltoall, Bruck-alltoall and Bine-alltoall move ``Θ(p²)`` or
``Θ(p² log p)`` transfers; profiling every one is needlessly slow when
only the *cost profile* is needed for a sweep at ``p`` in the hundreds or
thousands.  These builders produce
:class:`~repro.model.simulator.StepProfile` aggregates directly from the
algorithms' regular structure:

* **pairwise alltoall**: step ``k`` is the offset-``k`` matching with one
  block — profile a spread sample of offsets and replicate to neighbours
  (step costs vary smoothly in ``k``; sampling error only affects the
  latency/load of the skipped offsets);
* **Bruck / Bine alltoall**: ``log p`` steps of ``p/2`` blocks per rank;
  transfers (hence routing/groups) are exact, segment counts use the
  phase-0 structural value ``p / 2^{k+2}`` runs (later phases interleave
  slots similarly; exact builders are used for small ``p`` and agree within
  the tie threshold in tests).

Each builder hands its steps as rank arrays to the one step kernel,
:meth:`~repro.model.compiled.CompiledRouteTable.profile_step_arrays`.
:func:`analytic_builder` is the single rule for which cells use them:
every alltoall cell, at any ``p`` (the sweep, the DES records and the
tests' oracle all ask it); correctness tests always run the exact
schedule builders.  The rings need no analytic path: their transfer
tables repeat one step row ``p − 1`` times (``step_reps``), so the exact
table profiles one step per pass at any ``p``.
"""

from __future__ import annotations

import numpy as np

from repro.core.butterfly import bine_butterfly_doubling
from repro.model.compiled import CompiledRouteTable
from repro.model.simulator import ScheduleProfile, StepProfile
from repro.topology.base import Topology
from repro.topology.mapping import RankMap

__all__ = [
    "ANALYTIC_PROFILES",
    "analytic_builder",
    "pairwise_alltoall_profile",
    "bruck_alltoall_profile",
    "bine_alltoall_profile",
]

#: offsets of the pairwise-alltoall step space profiled explicitly
PAIRWISE_SAMPLES = 32


def _ctx(p: int, topo: Topology, rank_map: RankMap,
         routes: CompiledRouteTable | None):
    """``(routes, node array, group array)`` shared by one builder's steps."""
    if rank_map.num_ranks != p:
        raise ValueError("mapping size mismatch")
    if routes is None:
        routes = CompiledRouteTable(topo)
    elif routes.topo is not topo:
        raise ValueError("routes table was built for a different topology")
    return (
        routes,
        np.asarray(rank_map.nodes, dtype=np.intp),
        np.asarray(rank_map.groups(topo), dtype=np.intp),
    )


def _step(ctx, dst: np.ndarray | None, nelems: int = 0,
          copy: int = 0) -> StepProfile:
    """One step in which every rank ``r`` sends ``nelems`` elements to
    ``dst[r]`` as one segment (no transfers when ``dst`` is ``None``) and
    copies ``copy`` elements locally (none when 0)."""
    routes, nodes, groups = ctx
    ranks = np.arange(nodes.size, dtype=np.intp)
    src = ranks if dst is not None else ranks[:0]
    lrank = ranks if copy else ranks[:0]
    return routes.profile_step_arrays(
        src,
        src if dst is None else dst,
        np.full(src.size, nelems, dtype=np.int64),
        np.ones(src.size, dtype=np.int64),
        np.zeros(src.size, dtype=bool),
        lrank,
        np.full(lrank.size, copy, dtype=np.int64),
        np.zeros(lrank.size, dtype=bool),
        nodes,
        groups,
    )


def pairwise_alltoall_profile(
    p: int, topo: Topology, rank_map: RankMap,
    routes: CompiledRouteTable | None = None,
) -> ScheduleProfile:
    """Pairwise alltoall: sample the offset space, replicate to neighbours."""
    ctx = _ctx(p, topo, rank_map, routes)
    ranks = np.arange(p, dtype=np.intp)
    n = PAIRWISE_SAMPLES
    offsets = sorted({max(1, round(1 + k * (p - 2) / max(1, n - 1))) for k in range(n)})
    sampled: dict[int, StepProfile] = {
        k: _step(ctx, (ranks + k) % p, 1) for k in offsets
    }
    keys = sorted(sampled)
    steps = []
    for k in range(1, p):
        nearest = min(keys, key=lambda x: abs(x - k))
        steps.append(sampled[nearest])
    meta = {"collective": "alltoall", "algorithm": "pairwise", "p": p, "n": p,
            "analytic": True}
    return ScheduleProfile(p=p, n_build=p, meta=meta, steps=tuple(steps))


def bruck_alltoall_profile(
    p: int, topo: Topology, rank_map: RankMap,
    routes: CompiledRouteTable | None = None,
) -> ScheduleProfile:
    """Bruck alltoall: packed sends (the rotation trick) + per-step pack copy.

    Real Bruck implementations rotate/pack blocks so each phase transmits
    contiguously; we charge one buffer-wide local copy per phase for it.
    """
    ctx = _ctx(p, topo, rank_map, routes)
    ranks = np.arange(p, dtype=np.intp)
    s = max(1, (p - 1).bit_length())
    steps = []
    for k in range(s):
        # blocks whose offset has bit k set travel 2**k ranks this phase
        nelems = int(((ranks >> k) & 1).sum())
        steps.append(_step(ctx, (ranks + (1 << k)) % p, nelems, copy=p))
    # final local unpack (inverse rotation)
    steps.append(_step(ctx, None, copy=p))
    meta = {"collective": "alltoall", "algorithm": "bruck", "p": p, "n": p,
            "analytic": True}
    return ScheduleProfile(p=p, n_build=p, meta=meta, steps=tuple(steps))


def bine_alltoall_profile(
    p: int, topo: Topology, rank_map: RankMap,
    routes: CompiledRouteTable | None = None,
) -> ScheduleProfile:
    """Bine alltoall with the paper's packing scheme (Sec. 4.4).

    "Each rank moves the data it wants to keep to the left of its buffer and
    the data it needs to send to the right, similar to the rotations in
    Bruck's algorithm" — contiguous wire transfers (1 segment) at Bine's
    short distances, one buffer-wide local copy per step, plus the final
    reorder permutation.  (The executor's exact builder instead tracks
    scattered slots — same bytes and routes, fragmented wire — so the
    correctness oracle and the cost profile describe the same algorithm with
    the two data-handling choices the paper discusses.)
    """
    ctx = _ctx(p, topo, rank_map, routes)
    steps = [
        _step(ctx, np.asarray(row, dtype=np.intp), p // 2, copy=p)
        for row in bine_butterfly_doubling(p).partners
    ]
    steps.append(_step(ctx, None, copy=p))
    meta = {"collective": "alltoall", "algorithm": "bine", "p": p, "n": p,
            "analytic": True}
    return ScheduleProfile(p=p, n_build=p, meta=meta, steps=tuple(steps))


#: (collective, algorithm) → analytic builder(p, topo, rank_map, routes=None)
ANALYTIC_PROFILES = {
    ("alltoall", "pairwise"): pairwise_alltoall_profile,
    ("alltoall", "bruck"): bruck_alltoall_profile,
    ("alltoall", "bine"): bine_alltoall_profile,
}


def analytic_builder(spec):
    """The :data:`ANALYTIC_PROFILES` builder that profiles ``spec``, or
    ``None`` when its cells profile the exact transfer table.

    The lookup happens per call, so rebinding a dict value takes effect
    everywhere.
    """
    return ANALYTIC_PROFILES.get((spec.collective, spec.name))
