"""Torus-optimised Bine trees and butterflies (paper Sec. 5.4.1, Appendix D).

On a torus the 1-D modulo distance misjudges real hop counts, so the paper
treats ranks as coordinates and applies the Bine construction *per
dimension*: global steps interleave the dimensions round-robin (last
dimension first, matching Fig. 16, where rank (0,0) of a 4×4 torus talks to
(0,3), then (3,0), then (0,1), then (1,0)).  Every partner differs from the
sender in exactly one coordinate, so each message crosses links of a single
torus dimension.

The same interleaving applied to per-dimension Bine *butterflies* yields the
torus-optimised reduce-scatter/allgather/allreduce.  The collectives layer
sends the resulting non-contiguous block sets (App. D.2) as their maximal
contiguous runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bine_tree import dh_partner
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


def _digit_map(shape: TorusShape, ranks: np.ndarray, dim: int, f) -> np.ndarray:
    """``ranks`` with their ``dim`` coordinate replaced by ``f(coordinate)``
    (coordinates row-major, as :meth:`TorusShape.coords`)."""
    coords = list(np.unravel_index(ranks, shape.dims))
    coords[dim] = f(coords[dim])
    return np.ravel_multi_index(coords, shape.dims)


def torus_bine_tree(shape: TorusShape, root: int = 0) -> Tree:
    """Distance-halving Bine broadcast tree optimised for ``shape``.

    At global step ``(dim, i)`` every holder forwards to the rank whose
    ``dim`` coordinate is its 1-D Bine partner.
    """
    order = dimension_schedule(shape)

    def partner(ranks: np.ndarray, g: int) -> np.ndarray:
        dim, i = order[g]
        return _digit_map(shape, ranks, dim, lambda c: dh_partner(c, i, shape.dims[dim]))

    return build_tree(
        shape.num_ranks,
        root,
        kind=f"bine-torus-{'x'.join(map(str, shape.dims))}",
        partner=partner,
    )


def _torus_butterfly(shape: TorusShape, kind: str, partner_1d, order=None) -> Butterfly:
    """Interleave per-dimension butterflies into one matching sequence, in
    ``order`` (``(dim, step)`` pairs; default :func:`dimension_schedule`).
    ``partner_1d(coords, i, d)`` maps a coordinate array of a dimension of
    extent ``d`` to its partners at that dimension's step ``i``."""
    order = dimension_schedule(shape) if order is None else order
    ranks = np.arange(shape.num_ranks)
    partners = [
        _digit_map(shape, ranks, dim, lambda c: partner_1d(c, i, shape.dims[dim]))
        for dim, i in order
    ]
    bf = Butterfly(shape.num_ranks, kind, partners)
    bf.validate()
    return bf


def torus_bine_butterfly(shape: TorusShape) -> Butterfly:
    """Torus-optimised Bine butterfly.

    Every dimension's steps run distance-doubling (reduce-scatter
    direction, Eq. 5).  Within a dimension of extent ``d`` the 1-D Bine
    sign rule applies to that *coordinate*'s parity.
    """

    def dd(coord: np.ndarray, i: int, d: int) -> np.ndarray:
        sigma = bine_sigma(i + 1)
        return (coord + np.where(coord % 2, -sigma, sigma)) % d

    name = "x".join(map(str, shape.dims))
    return _torus_butterfly(shape, f"bine-torus-dd-{name}", dd)


def torus_recdoub_butterfly(shape: TorusShape) -> Butterfly:
    """Baseline: per-dimension recursive doubling, same interleaving."""

    def rd(coord: np.ndarray, i: int, d: int) -> np.ndarray:
        return coord ^ (1 << i)

    name = "x".join(map(str, shape.dims))
    return _torus_butterfly(shape, f"recdoub-torus-{name}", rd)
