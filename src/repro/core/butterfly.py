"""Butterfly (all-to-all exchange) patterns: Bine, standard, and Swing.

A butterfly over ``p = 2**s`` ranks is a sequence of ``s`` perfect matchings:
at every step each rank exchanges data with exactly one partner.  The paper
builds two Bine butterflies (Sec. 3.1, Eq. 4 and Appendix A, Eq. 5):

* **distance-halving** (Eq. 4) — partner offset ``σ_i = (1 − (−2)^{s−i}) / 3``
  added for even ranks, subtracted for odd ranks.  Distances shrink roughly
  by half each step; used where late steps carry the most data (allgather).

* **distance-doubling** (Eq. 5) — offset ``Σ_{k=0..j} (−2)^k`` with the same
  even/odd sign rule.  Distances grow; used where early steps carry the most
  data (reduce-scatter).  This is also exactly the *Swing* matching
  (De Sensi et al., NSDI'24): Swing and Bine share partners and differ only
  in how blocks are laid out in memory, which the collectives layer models.

Standard **recursive-doubling** (partner ``r ⊕ 2^j``) and **recursive-
halving** (partner ``r ⊕ 2^{s−1−j}``) hypercube butterflies are the binomial
baselines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.tree import log2_exact

__all__ = [
    "Butterfly",
    "bine_butterfly_halving",
    "bine_butterfly_doubling",
    "swing_butterfly",
    "recursive_doubling_butterfly",
    "recursive_halving_butterfly",
    "bine_sigma",
    "BUTTERFLY_BUILDERS",
]


def bine_sigma(width: int) -> int:
    """``Σ_{k=0}^{width−1} (−2)^k = (1 − (−2)^width) / 3`` — always an integer.

    This is the negabinary all-ones value on ``width`` digits; its magnitude
    ``≈ 2^width / 3`` is the Bine communication distance (Sec. 2.4.1).
    """
    if width < 0:
        raise ValueError("width must be non-negative")
    num = 1 - (-2) ** width
    assert num % 3 == 0
    return num // 3


@dataclass(frozen=True, eq=False)
class Butterfly:
    """An explicit butterfly: ``partners[j, r]`` is r's partner at step j."""

    p: int
    kind: str
    #: (s, p) read-only intp array of partner rows (any nested sequence is
    #: converted on construction)
    partners: np.ndarray

    def __post_init__(self):
        rows = np.array(self.partners, dtype=np.intp).reshape(-1, self.p)
        rows.flags.writeable = False
        object.__setattr__(self, "partners", rows)

    @property
    def num_steps(self) -> int:
        return len(self.partners)

    def partner(self, rank: int, step: int) -> int:
        """Partner of ``rank`` at ``step``."""
        if not 0 <= rank < self.p:
            raise ValueError(f"rank {rank} out of range for p={self.p}")
        return int(self.partners[step, rank])

    def matching(self, step: int) -> list[tuple[int, int]]:
        """The matching at ``step`` as ``(low, high)`` pairs, each pair once."""
        return [(r, q) for r, q in enumerate(self.partners[step].tolist()) if r < q]

    def validate(self) -> None:
        """Check every step is a perfect matching (an involution, no fixpoint)."""
        ranks = np.arange(self.p)
        for j, q in enumerate(self.partners):
            bad = np.nonzero((q < 0) | (q >= self.p))[0]
            if bad.size:
                r = int(bad[0])
                raise ValueError(f"{self.kind}: partner({r},{j})={q[r]} invalid")
            bad = np.nonzero(q == ranks)[0]
            if bad.size:
                raise ValueError(
                    f"{self.kind}: rank {bad[0]} paired with itself at step {j}"
                )
            bad = np.nonzero(q[q] != ranks)[0]
            if bad.size:
                r = int(bad[0])
                raise ValueError(
                    f"{self.kind}: step {j} not an involution at ranks {r}/{q[r]}"
                )

    def reversed(self) -> "Butterfly":
        """Same matchings in the opposite step order."""
        return Butterfly(self.p, self.kind + "-rev", self.partners[::-1])


def _from_rule(p: int, kind: str, rule) -> Butterfly:
    """Butterfly from a partner rule evaluated over the whole rank array."""
    s = log2_exact(p)
    ranks = np.arange(p)
    bf = Butterfly(p, kind, [rule(ranks, j) % p for j in range(s)])
    bf.validate()
    return bf


def bine_butterfly_halving(p: int) -> Butterfly:
    """Distance-halving Bine butterfly (Eq. 4)."""
    s = log2_exact(p)

    def rule(r: np.ndarray, i: int) -> np.ndarray:
        sigma = bine_sigma(s - i)
        return np.where(r % 2 == 0, r + sigma, r - sigma)

    return _from_rule(p, "bine-halving", rule)


def bine_butterfly_doubling(p: int) -> Butterfly:
    """Distance-doubling Bine butterfly (Eq. 5) — also the Swing matching."""

    def rule(r: np.ndarray, j: int) -> np.ndarray:
        sigma = bine_sigma(j + 1)
        return np.where(r % 2 == 0, r + sigma, r - sigma)

    return _from_rule(p, "bine-doubling", rule)


def swing_butterfly(p: int) -> Butterfly:
    """Swing matching — identical pairs to the distance-doubling Bine butterfly."""
    bf = bine_butterfly_doubling(p)
    return Butterfly(bf.p, "swing", bf.partners)


def recursive_doubling_butterfly(p: int) -> Butterfly:
    """Standard hypercube butterfly with distances 1, 2, 4, …"""
    return _from_rule(p, "recdoub", lambda r, j: r ^ (1 << j))


def recursive_halving_butterfly(p: int) -> Butterfly:
    """Standard hypercube butterfly with distances p/2, p/4, …"""
    s = log2_exact(p)
    return _from_rule(p, "rechalv", lambda r, j: r ^ (1 << (s - 1 - j)))


BUTTERFLY_BUILDERS = {
    "bine-halving": bine_butterfly_halving,
    "bine-doubling": bine_butterfly_doubling,
    "swing": swing_butterfly,
    "recdoub": recursive_doubling_butterfly,
    "rechalv": recursive_halving_butterfly,
}
