"""Torus-optimised Bine trees and butterflies (paper Sec. 5.4.1, Appendix D).

On a torus the 1-D modulo distance misjudges real hop counts, so the paper
treats ranks as coordinates and applies the Bine construction *per
dimension*: global steps interleave the dimensions round-robin (last
dimension first, matching Fig. 16, where rank (0,0) of a 4×4 torus talks to
(0,3), then (3,0), then (0,1), then (1,0)).  Every partner differs from the
sender in exactly one coordinate, so each message crosses links of a single
torus dimension.

The same interleaving applied to per-dimension Bine *butterflies* yields the
torus-optimised reduce-scatter/allgather/allreduce.  Data handling for the
resulting non-contiguous subtrees (App. D.2) uses the DFS-postorder
permutation from :mod:`repro.core.permutation`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.bine_tree import dh_partner, dh_recv_step
from repro.core.butterfly import Butterfly, bine_sigma
from repro.core.tree import Tree, build_tree, log2_exact

__all__ = [
    "TorusShape",
    "dimension_schedule",
    "torus_bine_tree",
    "torus_bine_butterfly",
    "torus_recdoub_butterfly",
]


@dataclass(frozen=True)
class TorusShape:
    """A D-dimensional torus with power-of-two extents per dimension."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.dims:
            raise ValueError("torus needs at least one dimension")
        for d in self.dims:
            log2_exact(d)

    @property
    def num_ranks(self) -> int:
        out = 1
        for d in self.dims:
            out *= d
        return out

    @property
    def num_dims(self) -> int:
        return len(self.dims)

    def coords(self, rank: int) -> tuple[int, ...]:
        """Row-major coordinates of ``rank`` (last dimension fastest)."""
        if not 0 <= rank < self.num_ranks:
            raise ValueError(f"rank {rank} out of range")
        out = []
        for d in reversed(self.dims):
            out.append(rank % d)
            rank //= d
        return tuple(reversed(out))

    def rank(self, coords: tuple[int, ...]) -> int:
        """Inverse of :meth:`coords`."""
        if len(coords) != self.num_dims:
            raise ValueError("coordinate arity mismatch")
        r = 0
        for c, d in zip(coords, self.dims):
            if not 0 <= c < d:
                raise ValueError(f"coordinate {c} out of range for extent {d}")
            r = r * d + c
        return r


def dimension_schedule(shape: TorusShape) -> list[tuple[int, int]]:
    """Global step order as ``(dimension, per-dimension step)`` pairs.

    Round-robin over dimensions, last dimension first within a round;
    dimensions with fewer per-dimension steps simply drop out of later
    rounds (the paper's rectangular-torus note in App. D.4).
    """
    per_dim = [log2_exact(d) for d in shape.dims]
    order: list[tuple[int, int]] = []
    rnd = 0
    while True:
        any_active = False
        for dim in reversed(range(shape.num_dims)):
            if rnd < per_dim[dim]:
                order.append((dim, rnd))
                any_active = True
        if not any_active:
            break
        rnd += 1
    return order


def torus_bine_tree(shape: TorusShape, root: int = 0) -> Tree:
    """Distance-halving Bine broadcast tree optimised for ``shape``.

    Built with the generic tree machinery: the relative receive step of a
    coordinate vector is the latest global step among its per-dimension
    arrival steps, and at global step ``(dim, i)`` every holder forwards to
    the rank whose ``dim`` coordinate is its 1-D Bine partner.
    """
    order = dimension_schedule(shape)
    p = shape.num_ranks

    # Global step index of (dim, dim_step).
    gstep = {di: g for g, di in enumerate(order)}

    def recv_step(rel: int) -> int:
        if rel == 0:
            return -1
        coords = shape.coords(rel)
        latest = -1
        for dim, c in enumerate(coords):
            if c == 0:
                continue
            i = dh_recv_step(c, shape.dims[dim])
            latest = max(latest, gstep[(dim, i)])
        return latest

    def partner(rel: int, g: int) -> int:
        dim, i = order[g]
        coords = list(shape.coords(rel))
        coords[dim] = dh_partner(coords[dim], i, shape.dims[dim])
        return shape.rank(tuple(coords))

    return build_tree(
        p,
        root,
        kind=f"bine-torus-{'x'.join(map(str, shape.dims))}",
        recv_step=recv_step,
        partner=partner,
        num_steps=len(order),
    )


def _torus_butterfly(shape: TorusShape, kind: str, partner_1d, order=None) -> Butterfly:
    """Interleave per-dimension butterflies into one matching sequence, in
    ``order`` (``(dim, step)`` pairs; default :func:`dimension_schedule`)."""
    order = dimension_schedule(shape) if order is None else order
    p = shape.num_ranks
    partners = []
    for dim, i in order:
        row = []
        for r in range(p):
            coords = list(shape.coords(r))
            coords[dim] = partner_1d(coords[dim], i, shape.dims[dim])
            row.append(shape.rank(tuple(coords)))
        partners.append(tuple(row))
    bf = Butterfly(p, kind, tuple(partners))
    bf.validate()
    return bf


def torus_bine_butterfly(shape: TorusShape, *, doubling: bool = True) -> Butterfly:
    """Torus-optimised Bine butterfly.

    ``doubling=True`` orders every dimension's steps distance-doubling
    (reduce-scatter direction, Eq. 5); ``False`` gives the distance-halving
    direction (allgather, Eq. 4).  Within a dimension of extent ``d`` the 1-D
    Bine sign rule applies to that *coordinate*'s parity.
    """

    def dd(coord: int, i: int, d: int) -> int:
        sigma = bine_sigma(i + 1)
        return (coord + sigma) % d if coord % 2 == 0 else (coord - sigma) % d

    def dh(coord: int, i: int, d: int) -> int:
        s = log2_exact(d)
        sigma = bine_sigma(s - i)
        return (coord + sigma) % d if coord % 2 == 0 else (coord - sigma) % d

    name = "x".join(map(str, shape.dims))
    if doubling:
        return _torus_butterfly(shape, f"bine-torus-dd-{name}", dd)
    bf = _torus_butterfly(shape, f"bine-torus-dh-{name}", dh)
    # Distance-halving runs late-dimension steps first but in *reversed*
    # per-dimension order; reverse the global order so large exchanges pair
    # with short distances last, mirroring the 1-D convention.
    return bf


def torus_recdoub_butterfly(shape: TorusShape) -> Butterfly:
    """Baseline: per-dimension recursive doubling, same interleaving."""

    def rd(coord: int, i: int, d: int) -> int:
        return coord ^ (1 << i)

    name = "x".join(map(str, shape.dims))
    return _torus_butterfly(shape, f"recdoub-torus-{name}", rd)
