"""Torus-optimised collectives for the Fugaku evaluation (Sec. 5.4, App. D).

Implemented algorithms:

* **torus-bine** — Bine trees/butterflies built per dimension
  (:mod:`repro.core.torus_opt`); broadcast/reduce use the torus tree,
  reduce-scatter/allgather/allreduce the interleaved butterfly;
* **torus-bine-multiport** — ``2·D`` rotated/mirrored sub-collectives on
  vector slices driving every NIC (App. D.4);
* **bucket** — the multi-dimensional ring of Jain & Sabharwal [32]:
  per-dimension ring reduce-scatter phases then the mirror allgather
  phases; bandwidth-optimal, linear step count;
* **trinaryx** — a Trinaryx-like pipelined multi-chain broadcast/reduce
  (Fujitsu MPI's torus-optimised algorithm [3, 25, 31]): three snake
  chains over rotated dimension orders, each carrying a third of the
  vector, pipelined (modelled with the ``pipelined`` cost flag);
* plain **binomial** trees (topology-agnostic, the paper's 40×-slower
  baseline) come straight from the generic registry.

All but trinaryx (whose three chains carry different tags within one
step, which one array phase cannot hold) are ``(meta, buffers, steps)``
streams of step arrays: the public builders write them out, and the
catalog (:func:`torus_algorithms`) binds them to one sub-torus as
``steps`` hooks, from whose element and segment counts sweeps lower their
tables without building or making a segment (the port butterflies have
no closed form: their counts are the run counts of their merged sets).
Multiport and bucket run their sub-collectives in lockstep: each port's
flow or each line's ring (:func:`~repro.collectives.ring.ring_pass`) is
one part of :func:`~repro.runtime.schedule.overlay_steps`, embedded on
its ranks and vector slice.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Iterator

import numpy as np

from repro.collectives.butterfly_collectives import (
    allgather_flow,
    allreduce_recursive_flow,
    allreduce_rsag_flow,
    flow_steps,
    flow_stream,
    reduce_scatter_flow,
)
from repro.collectives.common import Strategy, VEC, build_stream
from repro.collectives.registry import AlgorithmSpec, spec_for
from repro.collectives.ring import ring_pass
from repro.collectives.tree_collectives import tree_stream
from repro.core.binomial_tree import binomial_tree_distance_doubling
from repro.core.butterfly import Butterfly, bine_sigma
from repro.core.multiport import multiport_plans
from repro.core.torus_opt import (
    TorusShape,
    _torus_butterfly,
    torus_bine_butterfly,
    torus_bine_tree,
)
from repro.runtime.memo import Memo
from repro.runtime.schedule import (
    ArrayStep,
    Schedule,
    Step,
    Transfer,
    overlay_steps,
)

__all__ = [
    "torus_bine_bcast",
    "torus_bine_reduce",
    "torus_bine_allreduce",
    "torus_bine_allreduce_small",
    "torus_bine_reduce_scatter",
    "torus_bine_allgather",
    "torus_bine_allreduce_multiport",
    "bucket_allreduce",
    "bucket_reduce_scatter",
    "bucket_allgather",
    "trinaryx_bcast",
    "trinaryx_reduce",
    "torus_algorithms",
]


# ---------------------------------------------------------------------------
# Torus Bine
# ---------------------------------------------------------------------------

def torus_bine_bcast(shape: TorusShape, n: int, root: int = 0) -> Schedule:
    """Broadcast along the torus-optimised Bine tree (Fig. 16 right)."""
    return build_stream(tree_stream(torus_bine_tree(shape, root), n, "bcast"))


def torus_bine_reduce(shape: TorusShape, n: int, root: int = 0, op: str = "sum") -> Schedule:
    """Reduce along the reversed torus Bine tree."""
    return build_stream(tree_stream(torus_bine_tree(shape, root), n, "reduce", op))


def torus_bine_reduce_scatter(shape: TorusShape, n: int, op: str = "sum") -> Schedule:
    """Reduce-scatter on the per-dimension Bine butterfly (natural layout)."""
    return build_stream(flow_stream(reduce_scatter_flow(
        torus_bine_butterfly(shape), n, op, Strategy.NATURAL
    )))


def torus_bine_allgather(shape: TorusShape, n: int) -> Schedule:
    """Allgather reversing the torus Bine reduce-scatter."""
    return build_stream(flow_stream(allgather_flow(
        torus_bine_butterfly(shape), n, Strategy.NATURAL
    )))


def _allreduce_stream(shape: TorusShape, n: int, op: str, small: bool = False):
    bf = torus_bine_butterfly(shape)
    if small:
        return flow_stream(allreduce_recursive_flow(bf, n, op), algorithm="torus-bine-small")
    return flow_stream(allreduce_rsag_flow(bf, n, op, Strategy.NATURAL), algorithm="torus-bine")


def torus_bine_allreduce(shape: TorusShape, n: int, op: str = "sum") -> Schedule:
    """Allreduce as a reduce-scatter then an allgather, both on the
    per-dimension Bine butterfly (natural layout): the bandwidth-optimal
    form.  :func:`torus_bine_allreduce_small` is the full-vector variant."""
    return build_stream(_allreduce_stream(shape, n, op))


def torus_bine_allreduce_small(shape: TorusShape, n: int, op: str = "sum") -> Schedule:
    """Small-vector torus allreduce: full-vector exchange per step."""
    return build_stream(_allreduce_stream(shape, n, op, small=True))


def _multiport_stream(shape: TorusShape, n: int, op: str):
    """``(meta, buffers, steps)`` of :func:`torus_bine_allreduce_multiport`."""
    plans = multiport_plans(shape)
    nports = len(plans)
    if n % nports:
        raise ValueError(f"multiport allreduce requires {nports} | n")
    slice_n = n // nports
    p = shape.num_ranks
    meta = {"collective": "allreduce", "algorithm": "torus-bine-multiport",
            "p": p, "n": n, "op": op, "ports_used": nports}
    ranks = np.arange(p)
    parts = [
        (list(flow_steps(allreduce_rsag_flow(
            _butterfly_for_plan(shape, plan), slice_n, op, Strategy.NATURAL
        ))), ranks, plan.port * slice_n)
        for plan in plans
    ]
    return meta, {VEC}, (
        st._replace(label=f"multiport step {i}")
        for i, st in enumerate(overlay_steps(parts))
    )


def torus_bine_allreduce_multiport(
    shape: TorusShape, n: int, op: str = "sum"
) -> Schedule:
    """App. D.4: ``2·D`` parallel Bine allreduces on vector slices.

    Each sub-collective runs the per-dimension butterfly with its plan's
    rotated dimension order (mirrored for the second half), on its own
    ``n / 2D`` slice, so all NICs inject concurrently
    (``meta["ports_used"] = 2·D``).
    """
    return build_stream(_multiport_stream(shape, n, op))


def _butterfly_for_plan(shape: TorusShape, plan) -> Butterfly:
    """Torus Bine butterfly following a port plan's dimension order/mirror."""
    sign = -1 if plan.mirror else 1

    def partner_1d(coord: np.ndarray, i: int, d: int) -> np.ndarray:
        sigma = sign * bine_sigma(i + 1)
        return (coord + np.where(coord % 2, -sigma, sigma)) % d

    return _torus_butterfly(shape, f"bine-torus-port{plan.port}", partner_1d, plan.order)


# ---------------------------------------------------------------------------
# Bucket (multi-dimensional ring) [32]
# ---------------------------------------------------------------------------

def _lines(shape: TorusShape, dim: int) -> list[list[int]]:
    """All torus lines along ``dim`` (ranks varying only that coordinate),
    in order of their other coordinates."""
    ranks = np.arange(shape.num_ranks).reshape(shape.dims)
    return np.moveaxis(ranks, dim, -1).reshape(-1, shape.dims[dim]).tolist()


def _nested_bounds(shape: TorusShape, rank: int, n: int, upto_dim: int) -> tuple[int, int]:
    """Element range owned by ``rank`` after RS phases over dims < upto_dim."""
    lo, hi = 0, n
    coords = shape.coords(rank)
    for dim in range(upto_dim):
        d = shape.dims[dim]
        size = (hi - lo) // d
        lo = lo + coords[dim] * size
        hi = lo + size
    return lo, hi


def _bucket_phases(shape: TorusShape, n: int, dims, shift: int, op: str | None,
                   tag: str) -> Iterator[ArrayStep]:
    """One ring pass per torus line along each of ``dims`` in turn, the
    lines of a dimension overlaid on their nested slices."""
    for dim in dims:
        d = shape.dims[dim]
        if d == 1:
            continue
        parts = []
        for line in _lines(shape, dim):
            lo, hi = _nested_bounds(shape, line[0], n, dim)
            parts.append((list(ring_pass(d, hi - lo, shift, op, tag)), line, lo))
        yield from (st._replace(label="") for st in overlay_steps(parts))


def _bucket_stream(shape: TorusShape, n: int, collective: str, op: str, **extra):
    """``(meta, buffers, steps)`` of the bucket algorithm: ring
    reduce-scatter phases over the dimensions in order, then ring
    allgather phases in reverse, as ``collective`` needs."""
    p = shape.num_ranks
    if n % p:
        raise ValueError("bucket requires p | n")
    dims = range(shape.num_dims)
    phases = []
    if collective != "allgather":
        phases.append(_bucket_phases(shape, n, dims, 1, op, "rs"))
    if collective != "reduce_scatter":
        phases.append(_bucket_phases(shape, n, reversed(dims), 0, None, "ag"))
    ops = {} if collective == "allgather" else {"op": op}
    meta = {"collective": collective, "algorithm": "bucket",
            "p": p, "n": n, **ops, "segmented": True, **extra}
    return meta, {VEC}, chain.from_iterable(phases)


def bucket_reduce_scatter(shape: TorusShape, n: int, op: str = "sum") -> Schedule:
    """Per-dimension ring reduce-scatter phases (bucket algorithm [32])."""
    return build_stream(_bucket_stream(shape, n, "reduce_scatter", op))


def bucket_allgather(shape: TorusShape, n: int) -> Schedule:
    """Per-dimension ring allgather phases (reverse dimension order)."""
    return build_stream(_bucket_stream(shape, n, "allgather", "sum"))


def bucket_allreduce(shape: TorusShape, n: int, op: str = "sum") -> Schedule:
    """Bucket allreduce: RS phases forward, AG phases backward."""
    return build_stream(_bucket_stream(shape, n, "allreduce", op, ports_used=2))


# ---------------------------------------------------------------------------
# Trinaryx-like pipelined chains (Fujitsu MPI bcast/reduce baseline)
# ---------------------------------------------------------------------------

def _snake_order(shape: TorusShape, rotation: int) -> list[int]:
    """A Hamiltonian snake over the torus with rotated dimension priority."""
    ndims = shape.num_dims
    dims = [(k + rotation) % ndims for k in range(ndims)]
    order: list[int] = []

    def rec(coords: list[int | None], depth: int, forward: bool):
        dim = dims[depth]
        extent = shape.dims[dim]
        rng = range(extent) if forward else range(extent - 1, -1, -1)
        for i, c in enumerate(rng):
            coords[dim] = c
            if depth == ndims - 1:
                order.append(shape.rank(tuple(coords)))
            else:
                rec(coords, depth + 1, forward=(i % 2 == 0) == forward)
        coords[dim] = None

    rec([None] * ndims, 0, True)
    return order


def trinaryx_bcast(shape: TorusShape, n: int, root: int = 0) -> Schedule:
    """Trinaryx-like broadcast: 3 pipelined snake chains on vector thirds.

    Each chain forwards its slice hop by hop in a different dimension-rotated
    snake order, keeping every hop on a single torus link; the ``pipelined``
    meta flag makes the cost model overlap the chain (segment pipelining),
    and ``ports_used=3`` reflects the three concurrent injection directions.
    """
    p = shape.num_ranks
    chains = min(3, shape.num_dims * 2, p - 1) or 1
    if n % chains:
        chains = 1
    slice_n = n // chains
    sched = Schedule(
        p, meta={"collective": "bcast", "algorithm": "trinaryx", "p": p,
                 "n": n, "root": root, "pipelined": True, "ports_used": chains},
    )
    orders = []
    for c in range(chains):
        snake = _snake_order(shape, c % shape.num_dims)
        pos = snake.index(root)
        orders.append(snake[pos:] + snake[:pos])
    depth = p - 1
    for i in range(depth):
        transfers = []
        for c, snake in enumerate(orders):
            lo, hi = c * slice_n, (c + 1) * slice_n
            transfers.append(
                Transfer(
                    src=snake[i], dst=snake[i + 1], src_buf=VEC, dst_buf=VEC,
                    src_segments=((lo, hi),), dst_segments=((lo, hi),),
                    tag=f"trinaryx[{c}]",
                )
            )
        sched.add(Step(transfers=tuple(transfers), label=f"chain hop {i}"))
    return sched.finalize()


def trinaryx_reduce(shape: TorusShape, n: int, root: int = 0, op: str = "sum") -> Schedule:
    """Trinaryx-like reduce: the chains run backwards with reduction."""
    bcast = trinaryx_bcast(shape, n, root)
    sched = Schedule(
        bcast.p, meta={**bcast.meta, "collective": "reduce", "op": op},
    )
    for step in reversed(bcast.steps):
        transfers = tuple(
            Transfer(
                src=t.dst, dst=t.src, src_buf=VEC, dst_buf=VEC,
                src_segments=t.src_segments, dst_segments=t.dst_segments,
                op=op, tag=t.tag,
            )
            for t in step.transfers
        )
        sched.add(Step(transfers=transfers, label=step.label))
    return sched.finalize()


# ---------------------------------------------------------------------------
# Torus algorithm catalog (Fig. 11b / App. D campaigns)
# ---------------------------------------------------------------------------


def _bound(
    shape: TorusShape,
    collective: str,
    name: str,
    family: str,
    make: Callable,
    description: str,
    blocks: int = 1,
) -> AlgorithmSpec:
    """An :class:`AlgorithmSpec` whose ``steps`` hook (trinaryx: whose
    ``builder``) is ``make(n, root, op)`` on ``shape``, its table lowered
    from the steps at ``n = blocks · p``."""
    p = shape.num_ranks

    def on_shape(q: int, n: int, root: int = 0, op: str = "sum"):
        if q != p:
            raise ValueError(
                f"{collective}/{name} is bound to a {p}-rank torus, not p={q}"
            )
        return make(n, root, op)

    if family == "trinaryx":  # its chains cannot share one array phase
        return AlgorithmSpec(collective, name, family, on_shape, description=description)
    return AlgorithmSpec(collective, name, family, steps=on_shape, table_blocks=blocks,
                         description=description)


#: shape -> its catalog, kept for the life of the process
_CATALOGS = Memo("torus.torus_algorithms")


def torus_algorithms(shape: TorusShape) -> dict[tuple[str, str], AlgorithmSpec]:
    """The torus catalog bound to one sub-torus, keyed ``(collective, name)``.

    Torus builders take a :class:`TorusShape` instead of a bare rank
    count, so the entries stay out of the generic registry: their names
    reuse registry names under other families (``rabenseifner`` is
    ``sota`` here), and they apply only on ``shape``.  Campaign manifests
    (``torus_dims`` grids) and the Fugaku benches sweep them through
    :func:`repro.analysis.sweep.sweep_system`.  Every entry but trinaryx
    has a ``steps`` hook, so its sweep table is lowered from the steps
    the Fig. 11b records were always profiled at, the canonical size:
    ``n = 2·D·p`` for ``bine-multiport`` (one slice per port,
    ``table_blocks = 2·D``) and ``n = p`` for every other entry;
    trinaryx builds and lowers.  The
    catalog is memoized per shape, so a shape's specs (and their memoized
    tables) are shared.

    Example::

        >>> specs = torus_algorithms(TorusShape((2, 2)))
        >>> specs["allreduce", "rabenseifner"].family
        'sota'
    """
    return _CATALOGS.get_or(shape, lambda: _catalog(shape))


def _catalog(shape: TorusShape) -> dict[tuple[str, str], AlgorithmSpec]:
    p = shape.num_ranks

    def generic(collective: str, name: str):
        spec = spec_for(collective, name)
        return lambda n, root, op: spec.steps(p, n, root, op)

    # (collective, name, family, make(n, root, op), description[, blocks])
    rows = (
        ("allreduce", "bine-multiport", "bine",
         lambda n, root, op: _multiport_stream(shape, n, op),
         "2*D rotated sub-collectives driving every NIC (App. D.4)",
         2 * shape.num_dims),
        ("allreduce", "bine-torus", "bine",
         lambda n, root, op: _allreduce_stream(shape, n, op),
         "per-dimension Bine butterfly allreduce"),
        ("allreduce", "bine-torus-small", "bine",
         lambda n, root, op: _allreduce_stream(shape, n, op, small=True),
         "latency-optimal torus Bine allreduce (small vectors)"),
        ("allreduce", "bucket", "bucket",
         lambda n, root, op: _bucket_stream(shape, n, "allreduce", op, ports_used=2),
         "multi-dimensional ring (Jain & Sabharwal), bandwidth-optimal"),
        ("allreduce", "binomial", "binomial",
         generic("allreduce", "recursive-doubling"),
         "topology-agnostic recursive doubling baseline"),
        ("allreduce", "rabenseifner", "sota",
         generic("allreduce", "rabenseifner"),
         "topology-agnostic Rabenseifner baseline"),
        ("bcast", "bine-torus", "bine",
         lambda n, root, op: tree_stream(torus_bine_tree(shape, root), n, "bcast"),
         "torus-optimised Bine tree broadcast (Fig. 16)"),
        ("bcast", "trinaryx", "trinaryx",
         lambda n, root, op: trinaryx_bcast(shape, n, root),
         "Trinaryx-like pipelined multi-chain broadcast (Fujitsu MPI)"),
        ("bcast", "binomial", "binomial",
         lambda n, root, op: tree_stream(
             binomial_tree_distance_doubling(p, root), n, "bcast"),
         "topology-agnostic binomial tree baseline"),
        ("reduce", "bine-torus", "bine",
         lambda n, root, op: tree_stream(torus_bine_tree(shape, root), n, "reduce", op),
         "reversed torus Bine tree reduce"),
        ("reduce", "trinaryx", "trinaryx",
         lambda n, root, op: trinaryx_reduce(shape, n, root, op),
         "Trinaryx-like pipelined multi-chain reduce"),
        ("reduce", "binomial", "binomial",
         generic("reduce", "binomial-dd"),
         "topology-agnostic binomial tree baseline"),
    )
    specs = [_bound(shape, *row) for row in rows]
    return {(spec.collective, spec.name): spec for spec in specs}
