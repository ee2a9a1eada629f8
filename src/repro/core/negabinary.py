"""Negabinary (base −2) arithmetic underlying Bine trees (paper Sec. 2.3.1).

Bine trees assign each rank a *negabinary* representation: an integer is
written as a sum of powers of −2 instead of 2.  Unlike plain binary, a fixed
number ``s`` of negabinary digits covers a window of *both* positive and
negative integers::

    s digits cover [min_negabinary(s), max_positive(s)]  with width 2**s

For a collective over ``p = 2**s`` ranks the paper maps rank ``r`` to the
negabinary encoding of ``r`` itself when ``r <= max_positive(s)`` and of
``r − p`` (a negative number) otherwise, which tiles the ``p`` ranks onto the
representable window exactly once.

Bit patterns are stored as ordinary non-negative Python ints: bit ``j`` of the
pattern is the coefficient of ``(−2)**j``.  E.g. the pattern ``0b110``
represents ``1·4 + 1·(−2) + 0·1 = 2``.
"""

from __future__ import annotations

from repro.runtime.memo import label_table

__all__ = [
    "to_negabinary",
    "from_negabinary",
    "max_positive",
    "min_negabinary",
    "nb_width",
    "rank_to_nb",
    "rank_to_nb_table",
    "nb_to_rank",
    "ones_mask",
    "trailing_equal_bits",
    "bit_reverse",
    "nb_digits",
]


def to_negabinary(value: int) -> int:
    """Return the negabinary bit pattern of ``value`` (any Python int).

    The pattern is the unique finite digit string ``b_k … b_1 b_0`` with
    ``value = Σ b_j (−2)**j`` and ``b_j ∈ {0, 1}``, packed into a
    non-negative int (bit ``j`` ↔ digit ``b_j``).
    """
    bits = 0
    pos = 0
    n = value
    while n != 0:
        if n & 1:  # odd → digit 1 (holds for negatives: Python & is two's-complement)
            bits |= 1 << pos
            n -= 1
        # n is now even and exactly divisible by −2
        n //= -2
        pos += 1
    return bits


def from_negabinary(bits: int) -> int:
    """Evaluate a negabinary bit pattern back to the integer it encodes."""
    if bits < 0:
        raise ValueError("negabinary bit patterns are stored as non-negative ints")
    value = 0
    weight = 1  # (−2)**j
    while bits:
        if bits & 1:
            value += weight
        weight *= -2
        bits >>= 1
    return value


def max_positive(s: int) -> int:
    """Largest integer representable in ``s`` negabinary digits (Sec. 2.3.1).

    Obtained with ones in all even positions: ``0101…01₋₂``.
    E.g. ``max_positive(6) = 16 + 4 + 1 = 21`` and ``max_positive(3) = 5``.
    """
    if s < 0:
        raise ValueError("digit count must be non-negative")
    return sum(4**k for k in range((s + 1) // 2))


def min_negabinary(s: int) -> int:
    """Smallest (most negative) integer representable in ``s`` digits.

    Obtained with ones in all odd positions: ``1010…10₋₂``.
    """
    if s < 0:
        raise ValueError("digit count must be non-negative")
    return -sum(2 * 4**k for k in range(s // 2))


def nb_width(value: int) -> int:
    """Number of negabinary digits needed to represent ``value``."""
    return to_negabinary(value).bit_length()


@label_table("negabinary.rank_to_nb_table")
def rank_to_nb_table(p: int) -> tuple[int, ...]:
    """Memoized ``rank2nb`` table for all ranks ``0 … p−1``.

    Labels are pure functions of ``p``, and schedule builders query them per
    transfer; computing the whole window once per ``p`` turns the per-call
    digit recursion into a table lookup for every later caller.
    """
    s = _log2_exact(p)
    m = max_positive(s)
    table = []
    for rank in range(p):
        bits = to_negabinary(rank if rank <= m else rank - p)
        assert bits < (1 << s), (rank, p, bits)
        table.append(bits)
    return tuple(table)


def rank_to_nb(rank: int, p: int) -> int:
    """``rank2nb(r, p)`` from the paper: negabinary pattern assigned to a rank.

    Ranks in ``[0, max_positive(s)]`` use their own encoding; larger ranks use
    the encoding of ``rank − p`` (a negative value), so that the ``p`` ranks
    exactly fill the ``s``-digit window.  Requires ``p`` to be a power of two.
    """
    table = rank_to_nb_table(p)
    if not 0 <= rank < p:
        raise ValueError(f"rank {rank} out of range for p={p}")
    return table[rank]


def nb_to_rank(bits: int, p: int) -> int:
    """``nb2rank`` from the paper: map a negabinary pattern to a rank mod p."""
    return from_negabinary(bits) % p


def ones_mask(width: int) -> int:
    """Bit pattern ``11…1`` with ``width`` ones (the XOR mask of Eq. 1)."""
    if width < 0:
        raise ValueError("mask width must be non-negative")
    return (1 << width) - 1


def trailing_equal_bits(bits: int, s: int) -> int:
    """Count of identical consecutive least-significant digits (paper's ``u``).

    Counting starts at digit 0 of an ``s``-digit pattern and runs while digits
    equal digit 0.  E.g. for ``s = 4``: ``1000 → 3`` and ``1011 → 2``.
    """
    if s <= 0:
        raise ValueError("digit count must be positive")
    first = bits & 1
    u = 1
    for j in range(1, s):
        if (bits >> j) & 1 == first:
            u += 1
        else:
            break
    return u


def bit_reverse(bits: int, s: int) -> int:
    """Reverse the low ``s`` bits of ``bits`` (the Sec. 4.3.1 ``reverse``)."""
    out = 0
    for j in range(s):
        if (bits >> j) & 1:
            out |= 1 << (s - 1 - j)
    return out


def nb_digits(bits: int, s: int) -> str:
    """Render a pattern as an ``s``-character digit string (for diagnostics)."""
    return format(bits, f"0{s}b")


def _log2_exact(p: int) -> int:
    """Return log2(p) for a power of two, else raise."""
    if p <= 0 or p & (p - 1):
        raise ValueError(f"p={p} is not a positive power of two")
    return p.bit_length() - 1
