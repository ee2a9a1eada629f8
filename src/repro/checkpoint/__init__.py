"""Crash-safe campaign execution: journal, resume, drain, chaos.

The preemption-tolerance layer for campaign-scale sweeps.  A journaled
run (``repro campaign M --journal DIR``) streams every completed cell
into a CRC'd, fsynced write-ahead journal; a killed run resumes
(``--resume``) byte-identical to an uninterrupted one; SIGINT/SIGTERM
drain gracefully instead of vaporizing progress; and a seeded chaos
harness proves all of it by killing the process on purpose.

* :mod:`repro.checkpoint.journal` — the on-disk format and the
  campaign/grid journal objects the sweep layer streams into
* :mod:`repro.checkpoint.drain` — first-signal-drains,
  second-signal-aborts handling
* :mod:`repro.checkpoint.chaos` — ``REPRO_CHAOS`` fault injection at
  cell boundaries

The names below load from their submodule on first use: a sweep that
imports only :mod:`~repro.checkpoint.drain` loads neither the journal nor
the chaos harness.
"""

from repro import lazy_exports

__getattr__ = lazy_exports(__name__, {
    "chaos": ("CHAOS_ENV", "chaos_boundary"),
    "drain": ("drain_requested", "drain_scope"),
    "journal": ("JOURNAL_SCHEMA", "JOURNAL_VERSION", "CampaignJournal", "GridJournal",
                "JournalDoc", "JournalWriter", "journal_path", "manifest_digest",
                "read_journal", "summarize_journal"),
})

__all__ = [
    "CHAOS_ENV",
    "chaos_boundary",
    "drain_requested",
    "drain_scope",
    "JOURNAL_SCHEMA",
    "JOURNAL_VERSION",
    "CampaignJournal",
    "GridJournal",
    "JournalDoc",
    "JournalWriter",
    "journal_path",
    "manifest_digest",
    "read_journal",
    "summarize_journal",
]
