"""Campaign orchestration: run a manifest against the sweep pipeline.

This is the layer both entry points share: ``repro campaign`` drives it
from the CLI and ``benchmarks/_shared.py`` drives it from the bench
suite, so the Table 3/4/5 reproductions are *defined* by the manifests in
``campaigns/`` rather than duplicated in scripts.  All registry grids of
a campaign run against one :class:`~repro.analysis.sweep.ProfileCache`
(same placement draws, shared route table), and each ``torus_dims`` grid
against its sub-torus's own, which makes the records identical to calling
:func:`~repro.analysis.sweep.sweep_system` directly with the same
arguments.

Example::

    >>> from repro.cli.manifest import manifest_from_dict
    >>> m = manifest_from_dict({
    ...     "campaign": {"name": "tiny", "system": "lumi"},
    ...     "grid": [{"collectives": ["bcast"], "node_counts": [16],
    ...               "vector_bytes": [1024], "algorithms": ["bine"]}],
    ... })
    >>> result = run_campaign(m)
    >>> [(r.algorithm, r.p) for r in result.records]
    [('bine', 16)]
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro import obs
from repro.analysis.summarize import DuelSummary, family_duel
from repro.analysis.sweep import (
    ProfileCache,
    SweepRecord,
    shard_fallback_scope,
    sweep_system,
)
from repro.checkpoint import CampaignJournal, drain_scope
from repro.cli.manifest import CampaignManifest
from repro.faults import FaultSpec
from repro.runtime.errors import FaultSpecError
from repro.systems import system_for

__all__ = ["CampaignResult", "run_campaign", "duel_summaries"]


def duel_summaries(
    records, collectives, family: str, baseline_for
) -> tuple[list[DuelSummary], list[str]]:
    """Family duels per collective, plus the ones with no comparable cells.

    The single summary loop behind both ``repro sweep --format summary``
    and a manifest's ``[summary]`` section: ``baseline_for(collective)``
    names the opposing family (constant for the CLI, per-collective
    overrides for manifests).

    Example::

        >>> duel_summaries([], ("bcast",), "bine", lambda c: "binomial")
        ([], ['bcast'])
    """
    duels: list[DuelSummary] = []
    skipped: list[str] = []
    for coll in collectives:
        try:
            duels.append(family_duel(records, coll, family, baseline_for(coll)))
        except ValueError:
            skipped.append(coll)  # no cell has both families
    return duels, skipped


@dataclass
class CampaignResult:
    """Everything a campaign produced: records plus optional duel rows."""

    manifest: CampaignManifest
    records: list[SweepRecord]
    summaries: list[DuelSummary] = field(default_factory=list)
    #: collectives the summary skipped for lack of comparable cells
    skipped: list[str] = field(default_factory=list)


def run_campaign(
    manifest: CampaignManifest,
    *,
    workers: int | None = None,
    disk_dir: str | os.PathLike | None = None,
    cache: ProfileCache | None = None,
    faults: tuple[FaultSpec, ...] | None = None,
    journal: str | os.PathLike | None = None,
    resume: bool = False,
) -> CampaignResult:
    """Run every grid of ``manifest`` and, if requested, summarise.

    ``workers`` and ``disk_dir`` are execution knobs, not campaign
    identity: any combination yields record-for-record identical output
    (parallel shards pre-sample placements in serial order; warm disk
    caches replay the cold run's profiles).  An explicit ``cache``
    overrides the manifest's placement context of the registry grids —
    the bench suite uses this to share one cache across benches.

    ``faults`` overrides the manifest's ``[[faults]]`` scenario list (the
    ``--faults`` CLI flag).  Every grid runs once per scenario against a
    scenario-local :class:`ProfileCache` (same placement draws in each:
    the mapping sampler is independent of the fabric condition), and the
    records carry the scenario label.  An explicit ``cache`` only
    combines with the single pristine scenario — fault campaigns need one
    cache per degraded topology.

    Each scenario's cache picks its own evaluation engine: a scenario
    with a fault timeline runs on the discrete-event engine, every other
    one on the compiled analytic evaluator (see :class:`ProfileCache`).

    ``journal=DIR`` makes the run crash-safe: every completed cell is
    streamed into a write-ahead record journal under ``DIR`` (see
    :mod:`repro.checkpoint`), SIGINT/SIGTERM drain gracefully
    (:class:`~repro.runtime.errors.InterruptedRunError`, CLI exit
    code 9) instead of losing progress, and ``resume=True`` skips the
    journaled cells of a dead run — the resumed ``CampaignResult`` is
    byte-identical to an uninterrupted one.  Without ``journal`` the
    ``resume`` flag is ignored and behavior is unchanged.

    Example::

        >>> from repro.cli.manifest import load_manifest
        >>> result = run_campaign(load_manifest("campaigns/table3_lumi.toml"),
        ...                       workers=8)  # doctest: +SKIP
        >>> len(result.summaries)  # doctest: +SKIP
        8
    """
    preset = system_for(manifest.system)
    scenarios = tuple(faults) if faults is not None else manifest.faults
    if not scenarios:
        scenarios = (FaultSpec(),)
    degraded = [s for s in scenarios if not s.is_null]
    if degraded and any(g.torus_dims is not None for g in manifest.grids):
        raise FaultSpecError(
            "fault scenarios do not apply to torus_dims grids "
            "(a torus has no global links to fail)"
        )
    if cache is not None and (len(scenarios) > 1 or degraded):
        raise ValueError(
            "an explicit cache only combines with the single pristine "
            "scenario; fault campaigns build one cache per scenario"
        )
    run_journal: CampaignJournal | None = None
    if journal is not None:
        run_journal = CampaignJournal(
            journal, manifest, scenarios=scenarios, resume=resume,
        )
    records: list[SweepRecord] = []
    signal_ctx = drain_scope() if run_journal is not None else nullcontext()
    try:
        with shard_fallback_scope(), signal_ctx, obs.span(
            "campaign.run",
            campaign=manifest.name,
            system=manifest.system,
            scenarios=len(scenarios),
            grids=len(manifest.grids),
        ):
            for scenario in scenarios:
                scenario_cache = cache or ProfileCache(
                    preset,
                    placement=manifest.placement,
                    seed=manifest.seed,
                    busy_fraction=manifest.busy_fraction,
                    disk_dir=disk_dir,
                    faults=scenario,
                )
                for g, grid in enumerate(manifest.grids):
                    grid_journal = (
                        run_journal.grid_scope(
                            scenario.label, scenario.timeline_label, g
                        )
                        if run_journal is not None else None
                    )
                    with obs.span(
                        "campaign.grid",
                        grid=g,
                        scenario=scenario.label,
                        collectives=",".join(grid.collectives),
                    ):
                        # torus grids build their own cache on the sub-torus
                        torus = grid.torus_dims is not None
                        records.extend(
                            sweep_system(
                                preset,
                                grid.collectives,
                                node_counts=grid.node_counts,
                                vector_bytes=grid.vector_bytes,
                                algorithms=grid.algorithms,
                                max_p=grid.max_p,
                                ppn=grid.ppn,
                                cache=None if torus else scenario_cache,
                                workers=workers,
                                disk_dir=disk_dir,
                                cell_sink=grid_journal,
                                torus_dims=grid.torus_dims,
                            )
                        )
    finally:
        # the journal must be durable even when InterruptedRunError (or
        # anything else) is propagating — resume depends on it
        if run_journal is not None:
            run_journal.close()
    result = CampaignResult(manifest, records)
    if manifest.summary is not None:
        result.summaries, result.skipped = duel_summaries(
            records,
            manifest.collectives(),
            manifest.summary.family,
            manifest.summary.baseline_for,
        )
    return result
