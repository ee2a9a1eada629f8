"""Decision-table construction: compile sweep records into a tuning artifact.

This is the repo's answer to "which algorithm wins for ``(collective,
system, p, ppn, n_bytes)``" made queryable: the Fig. 9a/10a heatmap
winner per grid cell, frozen into a versioned JSON artifact that a
serving layer (:mod:`repro.tune.serve`) can answer from at production
rates — the decision-table idiom of *Fast Tuning of Intra-Cluster
Collective Communications* applied to this reproduction's sweep records.

The artifact contract:

* **One sub-table per** ``(system, scenario, collective, ppn)``; each
  maps the sorted ``(p, n_bytes)`` grid of its source records to the
  winning algorithm, its family, and the winner's *margin* over the
  runner-up algorithm (``runner_up_time / winner_time``; ``null`` when
  the cell has a single applicable algorithm).  The scenario label is
  the record's static ``faults`` label, with ``@<timeline>`` appended
  for records produced under a fault timeline — DES runs under
  different timelines never share a sub-table.
* **Stalled records never pick winners.**  A DES record whose run
  stalled (partitioned fabric, ``stalled=True``) carries no meaningful
  completion time, so it is excluded before the winner computation; the
  provenance ``records_digest`` still covers the full unfiltered input.
* **Winners are the heatmap's winners.**  Cells are computed through
  :func:`repro.analysis.summarize.best_algorithm_cells` — the exact
  function behind the Fig. 9a figures — so a table and the figure
  rendered from the same records can never disagree.
* **Deterministic bytes.**  Building from the same record *set* always
  produces the same JSON bytes, whatever the record order, worker count
  or profile engine that produced them (ties break on the algorithm
  name, grids are sorted, JSON keys are sorted).
* **Two digests.** ``records_digest`` ties the table to its source sweep
  (:func:`repro.report.artifacts.records_digest`, order-independent);
  ``digest`` is an integrity hash over the artifact's own payload.  A
  loaded table whose payload fails its integrity digest raises
  :class:`~repro.runtime.errors.TuneArtifactError` (CLI exit code 7) —
  a tampered or bit-rotted tuning file must never serve answers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro import obs
from repro.analysis.summarize import best_algorithm_cells
from repro.analysis.sweep import SweepRecord
from repro.report.artifacts import records_digest
from repro.runtime.errors import TuneArtifactError

__all__ = [
    "SCHEMA",
    "SCHEMA_VERSION",
    "SubTable",
    "DecisionTable",
    "build_decision_table",
]

#: schema identifier stamped into (and required of) every artifact
SCHEMA = "repro/decision-table"

#: bump when the artifact layout changes incompatibly
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SubTable:
    """The decision grid for one ``(system, scenario, collective, ppn)``.

    ``faults`` holds the scenario label: the static fault label, plus
    ``@<timeline>`` when the source records ran under a fault timeline.

    ``winner``/``family``/``margin`` are row-major matrices indexed
    ``[p_index][n_index]`` over the sorted ``p_grid`` × ``n_grid`` axes;
    a grid cell with no source records (sparse campaigns) holds ``None``
    in all three.
    """

    system: str
    faults: str
    collective: str
    ppn: int
    p_grid: tuple[int, ...]
    n_grid: tuple[int, ...]
    winner: tuple[tuple[str | None, ...], ...]
    family: tuple[tuple[str | None, ...], ...]
    margin: tuple[tuple[float | None, ...], ...]

    @property
    def key(self) -> tuple[str, str, str, int]:
        return (self.system, self.faults, self.collective, self.ppn)

    @property
    def cells(self) -> int:
        """Populated (non-``None``) cells of the grid."""
        return sum(w is not None for row in self.winner for w in row)

    def to_dict(self) -> dict:
        return {
            "system": self.system,
            "faults": self.faults,
            "collective": self.collective,
            "ppn": self.ppn,
            "p_grid": list(self.p_grid),
            "n_grid": list(self.n_grid),
            "winner": [list(row) for row in self.winner],
            "family": [list(row) for row in self.family],
            "margin": [list(row) for row in self.margin],
        }

    @classmethod
    def from_dict(cls, d: Mapping, where: str) -> "SubTable":
        try:
            sub = cls(
                system=str(d["system"]),
                faults=str(d["faults"]),
                collective=str(d["collective"]),
                ppn=int(d["ppn"]),
                p_grid=tuple(int(p) for p in d["p_grid"]),
                n_grid=tuple(int(n) for n in d["n_grid"]),
                winner=tuple(tuple(row) for row in d["winner"]),
                family=tuple(tuple(row) for row in d["family"]),
                margin=tuple(tuple(row) for row in d["margin"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TuneArtifactError(f"{where}: malformed sub-table ({exc})") from None
        shape_ok = all(
            len(m) == len(sub.p_grid)
            and all(len(row) == len(sub.n_grid) for row in m)
            for m in (sub.winner, sub.family, sub.margin)
        )
        if not shape_ok:
            raise TuneArtifactError(
                f"{where}: sub-table {sub.key} matrices do not match the "
                f"{len(sub.p_grid)}x{len(sub.n_grid)} grid"
            )
        if list(sub.p_grid) != sorted(set(sub.p_grid)) or list(
            sub.n_grid
        ) != sorted(set(sub.n_grid)):
            raise TuneArtifactError(
                f"{where}: sub-table {sub.key} grids must be sorted and unique"
            )
        return sub


def _payload_digest(payload: dict) -> str:
    """Integrity hash over the canonical JSON of everything but ``digest``."""
    body = {k: v for k, v in payload.items() if k != "digest"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class DecisionTable:
    """A versioned, digest-sealed set of :class:`SubTable` grids."""

    name: str
    source: str
    records_digest: str
    record_count: int
    tables: tuple[SubTable, ...]

    @property
    def cells(self) -> int:
        return sum(t.cells for t in self.tables)

    def to_dict(self) -> dict:
        payload = {
            "schema": SCHEMA,
            "version": SCHEMA_VERSION,
            "name": self.name,
            "source": self.source,
            "records_digest": self.records_digest,
            "record_count": self.record_count,
            "tables": [t.to_dict() for t in self.tables],
        }
        payload["digest"] = _payload_digest(payload)
        return payload

    def to_json(self) -> str:
        """Canonical artifact bytes (sorted keys — byte-deterministic)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: Mapping, label: str = "decision table") -> "DecisionTable":
        """Validate a parsed artifact; :class:`TuneArtifactError` if unsound.

        Checks, in order: schema identifier, schema version, integrity
        digest (the payload must hash to its embedded ``digest``), then
        per-sub-table shape.  Example::

            >>> t = build_decision_table([], name="empty", source="-")
            >>> DecisionTable.from_dict(t.to_dict()).record_count
            0
        """
        if not isinstance(data, Mapping) or data.get("schema") != SCHEMA:
            raise TuneArtifactError(
                f"{label}: not a decision-table artifact "
                f"(missing schema = {SCHEMA!r})"
            )
        version = data.get("version")
        if version != SCHEMA_VERSION:
            raise TuneArtifactError(
                f"{label}: unsupported schema version {version!r} "
                f"(this build reads version {SCHEMA_VERSION})"
            )
        embedded = data.get("digest")
        actual = _payload_digest(dict(data))
        if embedded != actual:
            raise TuneArtifactError(
                f"{label}: integrity digest mismatch (artifact says "
                f"{embedded!r}, payload hashes to {actual!r}) — the table "
                "was edited or corrupted and must not serve answers"
            )
        try:
            tables = tuple(
                SubTable.from_dict(t, label) for t in data["tables"]
            )
            table = cls(
                name=str(data["name"]),
                source=str(data["source"]),
                records_digest=str(data["records_digest"]),
                record_count=int(data["record_count"]),
                tables=tables,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TuneArtifactError(f"{label}: malformed artifact ({exc})") from None
        return table

    def verify_against_records(self, records: Sequence[SweepRecord]) -> None:
        """Raise :class:`TuneArtifactError` unless ``records`` built this table.

        The order-independent provenance digest must match — the gate for
        "is this tuning file still the one my campaign produced?".
        """
        actual = records_digest(records)
        if actual != self.records_digest:
            raise TuneArtifactError(
                f"decision table {self.name!r} was built from records with "
                f"digest {self.records_digest}, but the given records hash "
                f"to {actual} — rebuild the table from the current sweep"
            )


def build_decision_table(
    records: Sequence[SweepRecord], *, name: str = "", source: str = ""
) -> DecisionTable:
    """Compile sweep records into a :class:`DecisionTable`.

    Records are grouped per ``(system, scenario, collective, ppn)``,
    where the scenario is the static fault label plus ``@<timeline>``
    when the record ran under a fault timeline; each group's sorted
    ``(p, n_bytes)`` grid is resolved through
    :func:`~repro.analysis.summarize.best_algorithm_cells` — the heatmap
    winner function — so the table can never disagree with the Fig. 9a
    figures rendered from the same records.  The margin is the winner's
    lead over the best *other* algorithm in the cell.  Stalled records
    (DES runs cut off by a partitioning timeline) are dropped before
    winners are computed but still count toward ``records_digest`` /
    ``record_count`` provenance.

    Example::

        >>> recs = [
        ...     SweepRecord("lumi", "bcast", "bine", "bine", 16, 32, 1.0, 8.0),
        ...     SweepRecord("lumi", "bcast", "ring", "ring", 16, 32, 2.0, 8.0),
        ... ]
        >>> table = build_decision_table(recs, name="t", source="-")
        >>> table.tables[0].winner
        (('bine',),)
        >>> table.tables[0].margin
        ((2.0,),)
    """
    with obs.span("tune.build", records=len(records), table=name):
        return _build_decision_table(records, name, source)


def _build_decision_table(
    records: Sequence[SweepRecord], name: str, source: str
) -> DecisionTable:
    groups: dict[tuple[str, str, str, int], list[SweepRecord]] = {}
    for r in records:
        if r.stalled:
            continue  # a stalled run has no completion time to rank
        scenario = r.faults if r.timeline == "none" else f"{r.faults}@{r.timeline}"
        groups.setdefault((r.system, scenario, r.collective, r.ppn), []).append(r)
    tables = []
    for key in sorted(groups):
        system, faults, collective, ppn = key
        own = groups[key]
        # the heatmap winner function, on exactly this sub-table's slice
        cells = best_algorithm_cells(own, collective)
        by_cell: dict[tuple[int, int], list[SweepRecord]] = {}
        for r in own:
            by_cell.setdefault((r.p, r.n_bytes), []).append(r)
        p_grid = tuple(sorted({r.p for r in own}))
        n_grid = tuple(sorted({r.n_bytes for r in own}))
        winner_m, family_m, margin_m = [], [], []
        for p in p_grid:
            winner_row: list[str | None] = []
            family_row: list[str | None] = []
            margin_row: list[float | None] = []
            for nb in n_grid:
                entry = cells.get((p, nb))
                if entry is None:
                    winner_row.append(None)
                    family_row.append(None)
                    margin_row.append(None)
                    continue
                best, _bine_ratio = entry
                others = [
                    r for r in by_cell[(p, nb)]
                    if r.algorithm != best.algorithm
                ]
                margin = (
                    min(r.time for r in others) / best.time if others else None
                )
                winner_row.append(best.algorithm)
                family_row.append(best.family)
                margin_row.append(margin)
            winner_m.append(tuple(winner_row))
            family_m.append(tuple(family_row))
            margin_m.append(tuple(margin_row))
        tables.append(
            SubTable(
                system=system,
                faults=faults,
                collective=collective,
                ppn=ppn,
                p_grid=p_grid,
                n_grid=n_grid,
                winner=tuple(winner_m),
                family=tuple(family_m),
                margin=tuple(margin_m),
            )
        )
    return DecisionTable(
        name=name,
        source=source,
        records_digest=records_digest(records),
        record_count=len(records),
        tables=tuple(tables),
    )
