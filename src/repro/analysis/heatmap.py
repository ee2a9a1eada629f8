"""Text heatmaps in the style of paper Figs. 9a / 10a.

Each cell of (vector size × node count) shows either the winning
algorithm's letter, or — when Bine wins — the speedup ratio over the best
non-Bine algorithm.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.analysis.sweep import SweepRecord

__all__ = [
    "FAMILY_LETTERS",
    "family_letter",
    "families_without_letter",
    "render_heatmap",
    "human_bytes",
]

FAMILY_LETTERS = {
    "binomial": "N",
    "ring": "R",
    "bruck": "B",
    "swing": "S",
    "linear": "L",
    "sota": "D",  # 'default'-ish library algorithms (Rabenseifner, sparbit, …)
    "bucket": "K",
    "trinaryx": "T",
}


def family_letter(family: str) -> str:
    """The heatmap letter for a non-Bine family; loud failure for unknowns.

    A registry family without a letter used to render as a silently
    invented first-letter fallback; now it names the offender so adding
    an algorithm family forces a :data:`FAMILY_LETTERS` entry.

    Example::

        >>> family_letter("ring")
        'R'
        >>> family_letter("carrier-pigeon")
        Traceback (most recent call last):
        ...
        ValueError: no heatmap letter for algorithm family 'carrier-pigeon'; add it to repro.analysis.heatmap.FAMILY_LETTERS
    """
    try:
        return FAMILY_LETTERS[family]
    except KeyError:
        raise ValueError(
            f"no heatmap letter for algorithm family {family!r}; "
            "add it to repro.analysis.heatmap.FAMILY_LETTERS"
        ) from None


def families_without_letter() -> list[str]:
    """Families known to the registries but missing a heatmap letter.

    Covers both the generic algorithm registry and the torus catalog;
    ``bine`` is exempt (Bine cells render the speedup ratio, not a
    letter).  Asserted empty in tier-1 so a new family cannot silently
    break heatmap rendering.
    """
    from repro.collectives.registry import families
    from repro.collectives.torus import torus_algorithms
    from repro.core.torus_opt import TorusShape

    # the torus catalog's families do not depend on the shape
    torus = torus_algorithms(TorusShape((2,))).values()
    known = set(families()) | {s.family for s in torus}
    return sorted(known - set(FAMILY_LETTERS) - {"bine"})


def human_bytes(nb: int) -> str:
    for unit, size in (("GiB", 1024**3), ("MiB", 1024**2), ("KiB", 1024)):
        if nb >= size:
            val = nb / size
            return f"{val:.0f} {unit}" if val == int(val) else f"{val:.1f} {unit}"
    return f"{nb} B"


def render_heatmap(
    cells: Mapping[tuple[int, int], tuple[SweepRecord, float | None]],
    node_counts: Sequence[int],
    vector_bytes: Sequence[int],
    title: str = "",
) -> str:
    """Render the Fig. 9a-style grid as text."""
    width = 8
    lines = []
    if title:
        lines.append(title)
    lines.append(" " * 10 + "".join(f"{p:>{width}}" for p in node_counts))
    for nb in vector_bytes:
        row = [f"{human_bytes(nb):>10}"]
        for p in node_counts:
            entry = cells.get((p, nb))
            if entry is None:
                row.append(" " * width)
                continue
            best, ratio = entry
            if best.family == "bine":
                row.append(f"{ratio:>{width}.2f}" if ratio else f"{'BINE':>{width}}")
            else:
                row.append(f"{family_letter(best.family):>{width}}")
        lines.append("".join(row))
    lines.append(
        "letters = best non-Bine family ("
        + ", ".join(f"{v}={k}" for k, v in FAMILY_LETTERS.items())
        + "); numbers = Bine speedup over next best"
    )
    return "\n".join(lines)
