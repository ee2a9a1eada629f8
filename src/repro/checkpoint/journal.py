"""Write-ahead record journal: crash-safe campaign progress on disk.

A *journal* is an append-only JSONL file that a campaign streams
completed cells into as they finish, so a run killed at cell 950 of 1056
— OOM-killed pool, batch-scheduler SIGTERM, Ctrl-C — can resume from
cell 951 instead of from zero.  The format is deliberately boring:

* **line 1** is a sealed header carrying the schema version, the
  manifest digest (:func:`manifest_digest`) and the scenario labels —
  resume refuses a journal written by a different campaign instead of
  silently mixing records;
* every following line is one entry — a ``plan`` (the cell list of one
  ``(scenario, grid)``), a ``cell`` (that cell's finished
  :class:`~repro.analysis.sweep.SweepRecord` rows), or a ``resume``
  marker appended each time a run reopens the file;
* every line (header included) is prefixed with the CRC-32 of its JSON
  payload and fsynced on batch, so a torn tail write — the page the
  kernel never flushed before the SIGKILL — is *detected and truncated*
  on the next open instead of poisoning the file.  Corruption anywhere
  but the tail (entries after a bad CRC) is a hard
  :class:`~repro.runtime.errors.JournalError`: that file was not torn,
  it was damaged.

Records round-trip exactly: ``json.dumps`` emits shortest-round-trip
floats and :meth:`SweepRecord.from_dict` rebuilds the frozen dataclass,
so a resumed campaign's records — and everything derived from them:
summaries, tune-table digests, baselines — are byte-identical to an
uninterrupted run's (asserted in ``tests/test_checkpoint.py``).
Identity is provable because placements are pre-sampled in serial
first-touch order (PR 1): cell results never depend on which cells ran
before them.

Example::

    >>> import tempfile, pathlib
    >>> path = pathlib.Path(tempfile.mkdtemp()) / "demo.journal"
    >>> with JournalWriter(path, {"kind": "header", "schema": JOURNAL_SCHEMA,
    ...                           "version": JOURNAL_VERSION}) as w:
    ...     w.append({"kind": "cell", "collective": "bcast", "p": 16})
    ...     w.flush()
    >>> doc = read_journal(path)
    >>> doc.entries[0]["collective"]
    'bcast'
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro import obs
from repro.runtime.errors import InterruptedRunError, JournalError

__all__ = [
    "JOURNAL_SCHEMA",
    "JOURNAL_VERSION",
    "JournalWriter",
    "JournalDoc",
    "read_journal",
    "manifest_digest",
    "journal_path",
    "CampaignJournal",
    "GridJournal",
    "summarize_journal",
]

#: schema identifier stamped into (and required of) every journal header
JOURNAL_SCHEMA = "repro/journal"
#: bump when the entry format changes incompatibly
JOURNAL_VERSION = 1

#: hex CRC-32 digits + one separating space before the JSON payload
_CRC_WIDTH = 8


def _encode_line(entry: dict) -> bytes:
    payload = json.dumps(entry, sort_keys=True).encode()
    return b"%08x " % zlib.crc32(payload) + payload + b"\n"


def _decode_line(line: bytes) -> dict | None:
    """Entry for one complete journal line; ``None`` when torn/corrupt."""
    if not line.endswith(b"\n") or len(line) < _CRC_WIDTH + 2:
        return None
    crc_text, sep, payload = (
        line[:_CRC_WIDTH], line[_CRC_WIDTH:_CRC_WIDTH + 1],
        line[_CRC_WIDTH + 1:-1],
    )
    if sep != b" ":
        return None
    try:
        expected = int(crc_text, 16)
    except ValueError:
        return None
    if zlib.crc32(payload) != expected:
        return None
    try:
        entry = json.loads(payload)
    except json.JSONDecodeError:
        return None
    return entry if isinstance(entry, dict) else None


def manifest_digest(manifest) -> str:
    """Stable digest of a campaign manifest (the journal identity seal).

    A pure function of :func:`~repro.cli.manifest.manifest_to_dict`, so
    any change to the campaign a journal was recorded for — grids,
    placement, seed, scenarios — changes the digest and makes resume
    refuse the stale journal.

    Example::

        >>> from repro.cli.manifest import manifest_from_dict
        >>> m = manifest_from_dict({
        ...     "campaign": {"name": "t", "system": "lumi"},
        ...     "grid": [{"collectives": ["bcast"], "node_counts": [16]}],
        ... })
        >>> len(manifest_digest(m))
        16
    """
    from repro.cli.manifest import manifest_to_dict

    canon = json.dumps(manifest_to_dict(manifest), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def journal_path(directory: str | os.PathLike, campaign_name: str) -> Path:
    """The journal file a campaign uses under ``--journal DIR``."""
    slug = re.sub(r"[^A-Za-z0-9._-]+", "_", campaign_name)
    return Path(directory) / f"{slug}.journal"


class JournalWriter:
    """Append-only journal file handle with batched fsync.

    ``append`` buffers encoded lines; ``flush`` writes the batch, flushes
    and fsyncs — one durability point per completed cell, not per line.
    Opening with a ``header`` creates the file (parents included) and
    seals the header as line 1; ``header=None`` appends to an existing
    file (the resume path — validate it with :func:`read_journal` first).
    """

    def __init__(self, path: str | os.PathLike, header: dict | None):
        self.path = Path(path)
        self._buffer: list[bytes] = []
        if header is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "xb")
            self._buffer.append(_encode_line(header))
            self.flush()
        else:
            self._fh = open(self.path, "ab")

    def append(self, entry: dict) -> None:
        """Buffer one entry (written and fsynced by the next ``flush``)."""
        self._buffer.append(_encode_line(entry))
        obs.inc("checkpoint.journal.append")

    def flush(self) -> None:
        """Write the buffered batch, flush, fsync — the durability point."""
        if not self._buffer:
            return
        with obs.span("checkpoint.journal.flush", entries=len(self._buffer)):
            self._fh.write(b"".join(self._buffer))
            self._buffer.clear()
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if not self._fh.closed:
            self.flush()
            self._fh.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class JournalDoc:
    """A decoded journal: sealed header, entries, and tail state."""

    path: Path
    header: dict
    entries: list[dict]
    #: True when a torn tail write was dropped (and, under ``repair``,
    #: physically truncated away)
    truncated: bool = False


def read_journal(path: str | os.PathLike, repair: bool = False) -> JournalDoc:
    """Decode a journal file, dropping (optionally truncating) a torn tail.

    A bad line at the very end of the file is the signature of a crash
    mid-``flush``: it is dropped, and with ``repair=True`` the file is
    truncated back to the last sound line so subsequent appends extend a
    clean prefix.  A bad line *followed by sound entries* means the file
    was damaged, not torn — that is a :class:`JournalError`, as is a
    missing or foreign header.
    """
    path = Path(path)
    blob = path.read_bytes()
    offset = 0
    good_end = 0
    decoded: list[dict] = []
    bad_at: int | None = None
    while offset < len(blob):
        newline = blob.find(b"\n", offset)
        line = blob[offset:] if newline < 0 else blob[offset:newline + 1]
        entry = _decode_line(line)
        if entry is None:
            if bad_at is None:
                bad_at = offset
        elif bad_at is not None:
            raise JournalError(
                f"{path}: corrupt entry at byte {bad_at} is followed by "
                "further entries — the file is damaged, not torn; refusing "
                "to resume from it"
            )
        else:
            decoded.append(entry)
            good_end = offset + len(line)
        if newline < 0:
            break
        offset = newline + 1
    if not decoded:
        raise JournalError(f"{path}: no sound journal header")
    header, entries = decoded[0], decoded[1:]
    if header.get("kind") != "header" or header.get("schema") != JOURNAL_SCHEMA:
        raise JournalError(
            f"{path}: not a record journal (missing {JOURNAL_SCHEMA!r} header)"
        )
    if header.get("version") != JOURNAL_VERSION:
        raise JournalError(
            f"{path}: journal version {header.get('version')!r} is not "
            f"{JOURNAL_VERSION} — written by an incompatible repro"
        )
    truncated = bad_at is not None
    if truncated and repair:
        with open(path, "r+b") as fh:
            fh.truncate(good_end)
    return JournalDoc(path=path, header=header, entries=entries,
                      truncated=truncated)


# -- campaign orchestration ---------------------------------------------------


def _cell_key(scenario: str, timeline: str, grid: int, collective: str,
              p: int) -> tuple:
    return (scenario, timeline, int(grid), collective, int(p))


class CampaignJournal:
    """One campaign's journal: header seal, done-cell index, append path.

    Created by :func:`~repro.cli.campaign.run_campaign` when journaling
    is requested.  ``resume=False`` refuses an existing file (a fresh
    run must never silently clobber a dead run's progress); with
    ``resume=True`` an existing journal is repaired (torn tail
    truncated), validated against the campaign's manifest digest and
    scenario labels, and its completed cells are indexed so the sweep
    layer can skip them.  The evaluation engine is not sealed: it follows
    from each scenario (see :class:`~repro.analysis.sweep.ProfileCache`),
    and a header that still carries the retired ``engine`` field resumes
    like any other.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        manifest,
        *,
        scenarios,
        resume: bool = False,
    ):
        self.path = journal_path(directory, manifest.name)
        labels = [[s.label, s.timeline_label] for s in scenarios]
        header = {
            "kind": "header",
            "schema": JOURNAL_SCHEMA,
            "version": JOURNAL_VERSION,
            "campaign": manifest.name,
            "system": manifest.system,
            "manifest_digest": manifest_digest(manifest),
            "scenarios": labels,
        }
        self._done: dict[tuple, list[dict]] = {}
        self._planned: dict[tuple, list[tuple[str, int]]] = {}
        self.resume_count = 0
        if self.path.exists():
            if not resume:
                raise JournalError(
                    f"{self.path}: journal already exists — resume the dead "
                    "run with --resume, or remove the file to start over"
                )
            doc = read_journal(self.path, repair=True)
            self._check_header(doc.header, header)
            for entry in doc.entries:
                kind = entry.get("kind")
                if kind == "cell":
                    key = _cell_key(entry["scenario"], entry["timeline"],
                                    entry["grid"], entry["collective"],
                                    entry["p"])
                    self._done[key] = entry["records"]
                elif kind == "plan":
                    pkey = (entry["scenario"], entry["timeline"],
                            int(entry["grid"]))
                    self._planned[pkey] = [
                        (c, int(p)) for c, p in entry["cells"]
                    ]
                elif kind == "resume":
                    self.resume_count += 1
            self.resume_count += 1
            self._writer = JournalWriter(self.path, header=None)
            self._writer.append({"kind": "resume"})
            self._writer.flush()
            obs.inc("checkpoint.resume.opened")
        else:
            self._writer = JournalWriter(self.path, header=header)

    def _check_header(self, on_disk: dict, expected: dict) -> None:
        for key in ("manifest_digest", "scenarios", "campaign"):
            if on_disk.get(key) != expected[key]:
                raise JournalError(
                    f"{self.path}: journal {key} {on_disk.get(key)!r} does "
                    f"not match this run ({expected[key]!r}) — it records a "
                    "different campaign; refusing to resume"
                )

    @property
    def cells_done(self) -> int:
        return len(self._done)

    @property
    def cells_planned(self) -> int:
        return sum(len(cells) for cells in self._planned.values())

    def grid_scope(self, scenario: str, timeline: str,
                   grid: int) -> "GridJournal":
        """The journal view one ``(scenario, grid)`` sweep reads/writes."""
        return GridJournal(self, scenario, timeline, grid)

    def interrupted_error(self, signal_name: str) -> InterruptedRunError:
        remaining = max(0, self.cells_planned - self.cells_done)
        return InterruptedRunError(signal_name, self.cells_done, remaining)

    def close(self) -> None:
        self._writer.close()


class GridJournal:
    """:class:`CampaignJournal` bound to one ``(scenario, grid)`` scope.

    This is the ``cell_sink`` duck type :func:`~repro.analysis.sweep.
    sweep_system` streams into: ``plan`` seals the cell list, ``lookup``
    serves already-journaled cells on resume, ``store`` appends and
    fsyncs a finished cell (and gives the chaos harness its cell
    boundary — see :mod:`repro.checkpoint.chaos`).
    """

    def __init__(self, journal: CampaignJournal, scenario: str,
                 timeline: str, grid: int):
        self._journal = journal
        self._scenario = scenario
        self._timeline = timeline
        self._grid = int(grid)

    def plan(self, cells) -> None:
        """Seal this scope's cell list (idempotent; mismatch is an error)."""
        cells = [(c, int(p)) for c, p in cells]
        pkey = (self._scenario, self._timeline, self._grid)
        known = self._journal._planned.get(pkey)
        if known is not None:
            if known != cells:
                raise JournalError(
                    f"{self._journal.path}: journaled plan for scenario "
                    f"{self._scenario!r} grid {self._grid} disagrees with "
                    "this run (the code or registry changed since the "
                    "journal was written); refusing to resume"
                )
            return
        self._journal._planned[pkey] = cells
        self._journal._writer.append({
            "kind": "plan",
            "scenario": self._scenario,
            "timeline": self._timeline,
            "grid": self._grid,
            "cells": [list(c) for c in cells],
        })
        self._journal._writer.flush()

    def lookup(self, collective: str, p: int):
        """Journaled records for one cell, or ``None`` when not yet done."""
        # lazy import: repro.analysis.sweep imports repro.checkpoint.drain,
        # so the record type cannot be a module-level import here
        from repro.analysis.sweep import SweepRecord

        key = _cell_key(self._scenario, self._timeline, self._grid,
                        collective, p)
        raw = self._journal._done.get(key)
        if raw is None:
            return None
        obs.inc("checkpoint.resume.skipped")
        return [SweepRecord.from_dict(d) for d in raw]

    def store(self, collective: str, p: int, records) -> None:
        """Append one finished cell, fsync, and cross a chaos boundary."""
        from repro.checkpoint import chaos

        key = _cell_key(self._scenario, self._timeline, self._grid,
                        collective, p)
        raw = [r.to_dict() for r in records]
        self._journal._done[key] = raw
        self._journal._writer.append({
            "kind": "cell",
            "scenario": self._scenario,
            "timeline": self._timeline,
            "grid": self._grid,
            "collective": collective,
            "p": int(p),
            "records": raw,
        })
        self._journal._writer.flush()
        chaos.cell_boundary()

    def interrupted_error(self, signal_name: str) -> InterruptedRunError:
        return self._journal.interrupted_error(signal_name)


def summarize_journal(doc: JournalDoc) -> dict:
    """Operator view of a journal: progress per scenario, resume count.

    The data behind ``repro stats DEAD_RUN.journal`` — how much of a
    killed campaign survives, and what a ``--resume`` would recompute.
    """
    scenarios: dict[str, dict] = {}

    def bucket(scenario: str, timeline: str) -> dict:
        label = scenario if timeline == "none" else f"{scenario}@{timeline}"
        return scenarios.setdefault(
            label, {"planned": 0, "done": 0, "records": 0}
        )

    resumes = 0
    for entry in doc.entries:
        kind = entry.get("kind")
        if kind == "plan":
            b = bucket(entry["scenario"], entry["timeline"])
            b["planned"] += len(entry["cells"])
        elif kind == "cell":
            b = bucket(entry["scenario"], entry["timeline"])
            b["done"] += 1
            b["records"] += len(entry["records"])
        elif kind == "resume":
            resumes += 1
    for b in scenarios.values():
        b["remaining"] = max(0, b["planned"] - b["done"])
    return {
        "journal": doc.path.name,
        "campaign": doc.header.get("campaign"),
        "system": doc.header.get("system"),
        "manifest_digest": doc.header.get("manifest_digest"),
        "resumes": resumes,
        "truncated_tail": doc.truncated,
        "cells_done": sum(b["done"] for b in scenarios.values()),
        "cells_planned": sum(b["planned"] for b in scenarios.values()),
        "scenarios": scenarios,
    }
