"""Parameter sweeps over (node count × vector size × algorithm).

This is the reproduction's replacement for the paper's PICO benchmarking
framework [51, 53]: every registered algorithm is compiled once per
``(collective, algorithm, p)`` at the canonical build size, profiled once
against the system's topology, then evaluated analytically at every vector
size of the grid.  Records carry family tags so the summary layer can build
the paper's "Bine vs binomial" and "Bine vs best state-of-the-art" views.

Rank placement matters: the paper runs "without requesting any specific node
placement", i.e. on whatever fragmented allocation the scheduler returns,
then relies on hostname-sorted block rank order (Sec. 2.2).  Sweeps
therefore default to a scheduler-like sampled allocation
(``placement="scheduler"``); ``placement="block"`` gives the idealised
group-aligned mapping (useful to expose the pure-structure upper bound).

Campaign performance rests on four shared caches, all transparent to the
numbers produced:

* schedule builders run with validation off (:func:`schedule_validation`)
  — sweeps render known-good schedules in bulk;
* ν-label / π permutation tables are memoized per ``p`` in the core layer;
* one CSR :class:`~repro.model.compiled.CompiledRouteTable` per
  :class:`ProfileCache` shares node-pair routes across every algorithm and
  mapping of a campaign;
* an optional on-disk profile cache (``disk_dir=``) persists
  :class:`~repro.model.simulator.ScheduleProfile` objects across processes,
  keyed by ``(system, placement, seed, busy_fraction, faults, collective,
  algorithm, p, ppn)``; entries carry a magic/length header, and
  truncated, stale or unreadable entries are recomputed (with a
  :class:`RuntimeWarning`), never trusted; delete the directory (or bump
  ``_CACHE_VERSION``) to invalidate wholesale.

Every sweep runs through one cell loop (:func:`_run_cells`).
:func:`sweep_system` plans its grid as ``(collective, p)`` cells,
pre-sampling scheduler placements in the exact first-touch order of a
serial walk of the grid.  A ``torus_dims`` grid is the same loop over the
torus catalog on a block-mapped sub-torus.  A cell runs inline, or — with
``workers=N`` — on a :class:`~concurrent.futures.ProcessPoolExecutor`
that ships the pre-sampled placements to the workers.  Shard execution is
resilient: crashed or timed-out shards are re-queued once onto a fresh
pool, and if that round fails too the survivors run inline in the parent
(with a :class:`RuntimeWarning`) — a flaky worker degrades throughput,
never records.  Because placements are fixed before any cell runs, cell
results are order-independent and the records are identical whichever
way the cells ran.

``sweep_system(..., faults=FaultSpec(...))`` evaluates the grid on a
:class:`~repro.faults.DegradedTopology`; the spec's label lands in every
record (and the disk-cache namespace), so per-scenario results never
collide with pristine ones.

A spec with a :class:`~repro.faults.FaultTimeline` runs on the
discrete-event engine (:mod:`repro.des`), which replays the timeline's
mid-run failures/heals while executing the cell's transfer table; its
records carry the timeline label plus a ``stalled`` flag.  Every other
spec runs on the compiled analytic evaluator.  With an empty timeline
the DES engine reproduces the compiled engine bit for bit (the
calibration contract), so the engine is derived from the spec rather
than chosen.

``cell_sink=...`` wires the cell loop into the campaign
record journal (:mod:`repro.checkpoint`): the loop plans its cells with
the sink, serves already-journaled cells from it on resume, stores every
finished cell, and polls the graceful drain between cells — so a resumed
run's records are byte-identical to an uninterrupted one, serial or
sharded.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import pickle
import re
import tempfile
import warnings
from concurrent.futures import BrokenExecutor
from contextlib import contextmanager
from concurrent.futures import TimeoutError as _FuturesTimeout
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.collectives.registry import ALGORITHMS, AlgorithmSpec
from repro.model.compiled import (
    CompiledRouteTable,
    evaluate_grid,
    profile_table,
    transfer_table_for,
)
from repro.model.cost import CostParams
from repro.model.simulator import ScheduleProfile
from repro.faults import DegradedTopology, FaultSpec
from repro import obs
from repro.checkpoint.drain import drain_requested, pool_worker_init
from repro.runtime.env import env_flag
from repro.runtime.errors import (
    CacheCorruptionError,
    DESEngineError,
    WorkerShardError,
)
from repro.runtime.memo import (
    clear_memo_caches,
    memo_cache_registry,
    memo_cache_sizes,
)
from repro.systems.presets import SystemPreset
from repro.topology.allocation import AllocationSampler, SystemShape
from repro.topology.mapping import RankMap, allocation_mapping, block_mapping
from repro.topology.torus import Torus

__all__ = [
    "SweepRecord",
    "RECORD_FIELDS",
    "sweep_system",
    "ProfileCache",
    "clear_memo_caches",
    "memo_cache_registry",
    "memo_cache_sizes",
    "shard_fallback_scope",
]


#: bump to invalidate every on-disk profile cache entry
_CACHE_VERSION = 2

#: on-disk entry header: magic + format version; followed by an 8-byte
#: little-endian payload length, then the pickled profile.  Lets warm runs
#: tell a truncated or foreign file from a real entry before unpickling.
_CACHE_MAGIC = b"RPCACHE2"
_CACHE_LEN_BYTES = 8

#: sentinel distinguishing "not on disk" from a cached ``None`` (skipped combo)
_MISS = object()

#: corrupt disk-cache files already warned about this process (satellite of
#: the recovery path: recompute every time, warn once per file)
_CORRUPT_WARNED: set[str] = set()


#: column order shared by every machine-readable export (JSON, CSV, Markdown)
RECORD_FIELDS = (
    "system",
    "collective",
    "algorithm",
    "family",
    "p",
    "n_bytes",
    "time",
    "global_bytes",
    "faults",
    "ppn",
    "timeline",
    "stalled",
)

#: record fields that are optional on input (old record files predate them)
_OPTIONAL_RECORD_DEFAULTS = {
    "faults": "none",
    "ppn": 1,
    "timeline": "none",
    "stalled": False,
}


@dataclass(frozen=True)
class SweepRecord:
    """One evaluated ``(system, collective, algorithm, p, n_bytes)`` cell.

    ``faults`` is the :attr:`repro.faults.FaultSpec.label` of the fabric
    condition the cell was evaluated under (``"none"`` = pristine); it is
    part of the cell identity, so degraded and pristine results of the
    same grid never collide in summaries, heatmaps or baselines.

    ``ppn`` is the ranks-per-node count the cell was mapped with.  Like
    ``faults`` it is part of the cell identity: the same ``(p, n_bytes)``
    grid swept at ppn=1 and ppn=2 lands on different node sets and must
    never collide in summaries, diffs, or decision tables
    (:mod:`repro.tune` keys its sub-tables on it).

    ``timeline`` is the :attr:`repro.faults.FaultTimeline.label` the cell
    was simulated under (``"none"`` except on the DES engine) — part of
    the cell identity for the same reason ``faults`` is.  ``stalled``
    flags cells where at least one flow lost every route mid-run; it is a
    *measurement*, not identity, and stalled times are lower bounds (the
    run completed without the stalled flows' data movement).

    Example::

        >>> r = SweepRecord("lumi", "bcast", "bine", "bine", 16, 32, 1e-6, 64.0)
        >>> r.key
        ('bcast', 16, 32, 1, 'none', 'none')
        >>> SweepRecord.from_dict(r.to_dict()) == r
        True
    """

    system: str
    collective: str
    algorithm: str
    family: str
    p: int
    n_bytes: int
    time: float
    global_bytes: float
    faults: str = "none"
    ppn: int = 1
    timeline: str = "none"
    stalled: bool = False

    @property
    def key(self) -> tuple:
        """Cell identity — records sharing a key compete in summaries."""
        return (
            self.collective, self.p, self.n_bytes, self.ppn,
            self.faults, self.timeline,
        )

    def to_dict(self) -> dict:
        """Plain-dict view in :data:`RECORD_FIELDS` order, for export."""
        return {f: getattr(self, f) for f in RECORD_FIELDS}

    @classmethod
    def from_dict(cls, d: dict) -> "SweepRecord":
        """Rebuild a record from :meth:`to_dict` output (JSON round-trips).

        ``faults`` defaults to ``"none"`` and ``ppn`` to ``1`` so record
        files written before those axes existed keep loading unchanged.
        """
        values = {
            f: d[f] for f in RECORD_FIELDS if f not in _OPTIONAL_RECORD_DEFAULTS
        }
        for f, default in _OPTIONAL_RECORD_DEFAULTS.items():
            values[f] = d.get(f, default)
        if isinstance(values["stalled"], str):
            # CSV round-trips booleans as text
            values["stalled"] = values["stalled"].strip().lower() in ("true", "1")
        return cls(**values)


class ProfileCache:
    """Memoises schedule profiles per (collective, algorithm, p, ppn).

    ``placement="scheduler"`` lays each rank count over a sampled,
    hostname-sorted scheduler allocation (the paper's operating conditions);
    ``"block"`` uses the idealised node ``r // ppn`` mapping.

    All profiles share one CSR
    :class:`~repro.model.compiled.CompiledRouteTable` (node-pair routes
    depend only on the topology), and schedule builders run with
    validation switched off — the sweep rebuilds schedules the test suite
    already validates.

    ``disk_dir`` enables a persistent second-level cache: profiles are
    pickled under ``disk_dir`` keyed by ``(system, placement, seed,
    busy_fraction, faults, collective, algorithm, p, ppn)`` so campaigns
    survive across processes (and parallel workers share work).
    Scheduler-placement mappings are still sampled in the same order on
    warm runs, keeping warm results identical to cold ones.

    ``faults`` applies a :class:`~repro.faults.FaultSpec` by wrapping the
    preset topology in a :class:`~repro.faults.DegradedTopology`; the
    spec's label namespaces the disk cache and tags every record.  When
    the preset's topology factory already returns a degraded topology
    (the parallel-shard path), its spec governs and ``faults`` must be
    omitted.

    The evaluation backend follows from the fault spec: ``"des"``
    (discrete-event simulation, :mod:`repro.des`) when it carries a
    :class:`~repro.faults.FaultTimeline`, ``"compiled"`` (analytic)
    otherwise.  Both engines render each cell once into a memoized
    :class:`~repro.model.compiled.TransferTable` and profile it through
    the CSR route table (bit-identical to the scalar oracle in
    ``tests/scalar_oracle.py``, asserted in
    ``tests/test_compiled_profile.py``), and share one disk namespace
    because profiles are static-fabric artifacts.  ``profile_engine``
    overrides the derived choice — ``"des"`` on a calm fabric is the
    calibration hook; ``"compiled"`` with a timeline raises
    :class:`~repro.runtime.errors.DESEngineError`.
    """

    def __init__(
        self,
        preset: SystemPreset,
        placement: str = "scheduler",
        seed: int = 7,
        busy_fraction: float = 0.55,
        disk_dir: str | os.PathLike | None = None,
        mappings: dict[tuple[int, int], RankMap] | None = None,
        profile_engine: str | None = None,
        faults: FaultSpec | None = None,
    ):
        self.preset = preset
        topo = preset.build_topology()
        if isinstance(topo, DegradedTopology):
            # the preset factory already carries the degradation (parallel
            # shards rebuild presets around a pickled degraded topology)
            if faults is not None and faults != topo.spec:
                raise ValueError(
                    "preset topology is already degraded; pass faults=None"
                )
            self.faults = topo.spec
        else:
            self.faults = faults if faults is not None else FaultSpec()
            if not self.faults.is_null:
                topo = DegradedTopology(topo, self.faults)
        self.topo = topo
        self.placement = placement
        self.seed = seed
        self.busy_fraction = busy_fraction
        timed = not self.faults.timeline.is_null
        self.engine = profile_engine or ("des" if timed else "compiled")
        if self.engine not in ("compiled", "des"):
            raise ValueError(
                f"unknown profile engine {self.engine!r}; "
                "have ('compiled', 'des')"
            )
        if timed and self.engine != "des":
            raise DESEngineError(
                f"fault timeline {self.faults.timeline.label!r} runs only "
                f"on the 'des' engine; the {self.engine!r} engine scores a "
                "static fabric and cannot replay mid-run events"
            )
        self.routes = CompiledRouteTable(self.topo)
        self._cache: dict[tuple, ScheduleProfile | None] = {}
        self._mappings: dict[tuple[int, int], RankMap] = dict(mappings or {})
        self._sampler = None
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        if placement == "scheduler":
            shape = _shape_of(self.topo, preset.name)
            self._sampler = AllocationSampler(
                shape, seed=seed, busy_fraction=busy_fraction
            )
        elif placement != "block":
            raise ValueError(f"unknown placement {placement!r}")

    def mapping_for(self, p: int, ppn: int = 1) -> RankMap:
        """The rank→node mapping used for every ``p``-rank profile.

        Scheduler placements are order-dependent RNG draws, so the first
        call for a given ``(p, ppn)`` fixes the mapping for the cache's
        lifetime (and parallel sweeps pre-sample here, in serial order).
        Raises :class:`ValueError` when ``ppn`` does not divide ``p``.

        Example::

            >>> from repro.systems import lumi
            >>> cache = ProfileCache(lumi(), placement="block")
            >>> cache.mapping_for(4).nodes
            (0, 1, 2, 3)
        """
        key = (p, ppn)
        if key not in self._mappings:
            if ppn < 1 or p % ppn:
                raise ValueError(
                    f"p={p} ranks cannot be placed at ppn={ppn}: ppn must "
                    "divide p"
                )
            num_nodes = p // ppn
            if self._sampler is None:
                self._mappings[key] = block_mapping(p, ppn=ppn)
            else:
                alloc = self._sampler.sample(num_nodes)
                # hostname order == sorted node ids on these systems (Sec. 2.2)
                self._mappings[key] = allocation_mapping(sorted(alloc.nodes), ppn=ppn)
        return self._mappings[key]

    def applicable(self, spec: AlgorithmSpec, p: int, ppn: int = 1) -> bool:
        """Cheap pre-checks that gate both building and mapping sampling.

        Example::

            >>> from repro.collectives.registry import spec_for
            >>> from repro.systems import lumi
            >>> cache = ProfileCache(lumi(), placement="block")
            >>> cache.applicable(spec_for("allgather", "sparbit"), 1024)
            False
        """
        if p // ppn > self.topo.num_nodes:
            return False
        if spec.max_p is not None and p > spec.max_p:
            return False
        return True

    def get(self, spec: AlgorithmSpec, p: int, ppn: int = 1) -> ScheduleProfile | None:
        """Profile for one ``(algorithm, p, ppn)``; ``None`` if inapplicable.

        Example::

            >>> from repro.collectives.registry import spec_for
            >>> from repro.systems import lumi
            >>> cache = ProfileCache(lumi(), placement="block")
            >>> cache.get(spec_for("bcast", "bine"), 16).p
            16
        """
        key = (spec.collective, spec.name, p, ppn)
        if key not in self._cache:
            obs.inc("cache.profile.miss")
            if not self.applicable(spec, p, ppn):
                self._cache[key] = None
                return None
            # Sample the mapping before consulting the disk cache so the
            # scheduler-allocation RNG advances in the same order on cold
            # and warm runs (mappings are order-dependent draws).
            mapping = self.mapping_for(p, ppn)
            with obs.span(
                "cache.profile.fill",
                collective=spec.collective,
                algorithm=spec.name,
                p=p,
                ppn=ppn,
            ):
                profile = self._disk_load(key, mapping)
                if profile is _MISS:
                    profile = self._build(spec, p, ppn, mapping)
                    obs.inc("profile.built")
                    self._disk_store(key, profile, mapping)
                else:
                    obs.inc("profile.disk_warm")
            self._cache[key] = profile
        else:
            obs.inc("cache.profile.hit")
        return self._cache[key]

    def _build(
        self, spec: AlgorithmSpec, p: int, ppn: int, mapping: RankMap
    ) -> ScheduleProfile | None:
        # schedules lower once per (collective, algorithm, p) — the table
        # is shared across systems, placements and seeds
        table = transfer_table_for(spec, p)
        if table is None:
            return None  # constraint (pow2/divisibility) not met
        with obs.span(
            "profile.table",
            collective=spec.collective,
            algorithm=spec.name,
            p=p,
        ):
            return profile_table(table, self.topo, mapping, routes=self.routes)

    # -- on-disk persistence ------------------------------------------------

    @property
    def faults_label(self) -> str:
        """The fault-scenario tag stamped on records (``"none"`` = pristine)."""
        return self.faults.label

    def _disk_path(self, key: tuple, mapping: RankMap) -> Path | None:
        if self.disk_dir is None:
            return None
        collective, name, p, ppn = key
        campaign = _slug(
            f"{self.preset.name}-{self.placement}"
            f"-seed{self.seed}-busy{self.busy_fraction}"
            f"-faults.{self.faults_label}-v{_CACHE_VERSION}"
        )
        # Scheduler placements are order-dependent RNG draws: a different
        # sweep grid first-touches rank counts in a different order and gets
        # different mappings for the same (seed, p).  Digesting the actual
        # mapping into the filename keeps warm results identical to what the
        # same call would produce cold, whatever campaign filled the cache.
        digest = hashlib.sha1(repr(mapping.nodes).encode()).hexdigest()[:12]
        return (
            self.disk_dir
            / campaign
            / _slug(f"{collective}--{name}--p{p}-ppn{ppn}-m{digest}.pkl")
        )

    def _disk_load(self, key: tuple, mapping: RankMap):
        path = self._disk_path(key, mapping)
        if path is None:
            return _MISS
        if not path.exists():
            obs.inc("cache.disk.miss")
            return _MISS
        try:
            with obs.span("cache.disk.get", entry=path.name):
                profile = _read_cache_entry(path)
            obs.inc("cache.disk.hit")
            return profile
        except CacheCorruptionError as exc:
            obs.inc("cache.disk.corrupt")
            # a half-written, truncated or stale entry must degrade to a
            # recompute (the store below overwrites it), never to a crash;
            # warn once per corrupt file per process — a long campaign can
            # re-read the same bad entry thousands of times
            token = str(path)
            if token not in _CORRUPT_WARNED:
                _CORRUPT_WARNED.add(token)
                warnings.warn(
                    f"profile cache: {exc}; recomputing", RuntimeWarning
                )
            return _MISS

    def _disk_store(
        self, key: tuple, profile: ScheduleProfile | None, mapping: RankMap
    ) -> None:
        path = self._disk_path(key, mapping)
        if path is None:
            return
        obs.inc("cache.disk.put")
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(profile, protocol=pickle.HIGHEST_PROTOCOL)
        # atomic publish: parallel workers may race on the same entry; the
        # fsync before the rename keeps a crash from publishing a file whose
        # tail never reached disk
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(_CACHE_MAGIC)
                fh.write(len(payload).to_bytes(_CACHE_LEN_BYTES, "little"))
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


def _read_cache_entry(path: Path):
    """Decode one disk-cache entry; :class:`CacheCorruptionError` if unsound."""
    blob = path.read_bytes()
    header = len(_CACHE_MAGIC) + _CACHE_LEN_BYTES
    if len(blob) < header or not blob.startswith(_CACHE_MAGIC):
        raise CacheCorruptionError(
            f"{path}: missing or stale cache header (expected {_CACHE_MAGIC!r})"
        )
    length = int.from_bytes(blob[len(_CACHE_MAGIC):header], "little")
    if len(blob) - header != length:
        raise CacheCorruptionError(
            f"{path}: truncated entry ({len(blob) - header} of {length} "
            "payload bytes)"
        )
    try:
        return pickle.loads(blob[header:])
    except Exception as exc:
        raise CacheCorruptionError(f"{path}: unreadable payload ({exc})") from exc


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", text)


def _shape_of(topo, name: str) -> SystemShape:
    """Derive the allocation-sampling shape from a grouped topology."""
    num_groups = topo.num_groups
    nodes_per_group = topo.num_nodes // num_groups
    return SystemShape(name, num_groups, nodes_per_group)


def _selected_specs(
    collectives: Sequence[str],
    algorithms: Iterable[str] | None,
    torus_dims: tuple[int, ...] | None = None,
) -> list[AlgorithmSpec]:
    """Catalog entries of the sweep, in the serial iteration order.

    The catalog is the registry, or with ``torus_dims`` the torus catalog
    bound to that sub-torus.
    """
    catalog = ALGORITHMS
    if torus_dims is not None:
        # imported on use: registry sweeps never load the torus builders
        from repro.collectives.torus import torus_algorithms
        from repro.core.torus_opt import TorusShape

        catalog = torus_algorithms(TorusShape(torus_dims))
    names = None if algorithms is None else set(algorithms)
    return [
        spec
        for (coll, name), spec in sorted(catalog.items())
        if coll in collectives and (names is None or name in names)
    ]


def _profile_records(
    profile: ScheduleProfile,
    system: str,
    spec: AlgorithmSpec,
    p: int,
    vector_bytes: Sequence[int],
    params: CostParams,
    faults: str = "none",
    ppn: int = 1,
) -> list[SweepRecord]:
    """Records for one profile across the size grid, in one evaluation pass.

    :func:`~repro.model.compiled.evaluate_grid` scores every size at once.
    (The ``des`` engine goes through :func:`repro.des.records.des_records`
    instead.)
    """
    with obs.span(
        "evaluate.grid",
        collective=spec.collective,
        algorithm=spec.name,
        p=p,
        sizes=len(vector_bytes),
    ):
        grid = evaluate_grid(
            profile, params, [nb / params.itemsize for nb in vector_bytes]
        )
        records = [
            SweepRecord(
                system=system,
                collective=spec.collective,
                algorithm=spec.name,
                family=spec.family,
                p=p,
                n_bytes=nb,
                time=float(time),
                global_bytes=float(gbytes),
                faults=faults,
                ppn=ppn,
            )
            for nb, time, gbytes in zip(
                vector_bytes, grid.time, grid.global_bytes
            )
        ]
    obs.inc("evaluate.records", len(records))
    return records


def _evaluate_cell(
    system: str,
    cache: ProfileCache,
    specs: Sequence[AlgorithmSpec],
    p: int,
    vector_bytes: Sequence[int],
    params: CostParams,
    ppn: int,
) -> list[SweepRecord]:
    """The cell body: profile once, evaluate at every vector size.

    ``specs`` are the cell's algorithms (one collective), in registry
    order; inapplicable ones profile to ``None`` and yield no records.
    """
    records: list[SweepRecord] = []
    for spec in specs:
        profile = cache.get(spec, p, ppn)
        if profile is None:
            continue
        if cache.engine == "des":
            from repro.des.records import des_records

            records += des_records(
                cache, system, spec, p, vector_bytes, params, ppn, profile
            )
        else:
            records += _profile_records(
                profile, system, spec, p, vector_bytes, params,
                faults=cache.faults_label, ppn=ppn,
            )
    return records


def _grid_cells(
    cache: ProfileCache,
    specs: Sequence[AlgorithmSpec],
    node_counts: Sequence[int],
    max_p: dict[str, int] | None,
    ppn: int,
) -> list[tuple[str, int]]:
    """The grid's ``(collective, p)`` cells, pre-sampling every mapping.

    Walks the grid in serial ``spec × p`` order so scheduler allocations
    are drawn in one fixed first-touch order — the property that makes
    cell results order-independent, and therefore parallel execution and
    journal resume record-identical to running the cells inline.
    """
    cells: list[tuple[str, int]] = []
    for spec in specs:
        for p in node_counts:
            if max_p and p > max_p.get(spec.collective, p):
                continue
            if not cache.applicable(spec, p, ppn):
                continue
            cache.mapping_for(p, ppn)
            if (spec.collective, p) not in cells:
                cells.append((spec.collective, p))
    return cells


def _reassemble(
    per_cell: Iterable[list[SweepRecord]],
    specs: Sequence[AlgorithmSpec],
    node_counts: Sequence[int],
) -> list[SweepRecord]:
    """Flatten per-cell records back into serial ``spec × p`` order."""
    grouped: dict[tuple[str, str, int], list[SweepRecord]] = {}
    for recs in per_cell:
        for rec in recs:
            grouped.setdefault(
                (rec.collective, rec.algorithm, rec.p), []
            ).append(rec)
    records: list[SweepRecord] = []
    for spec in specs:
        for p in node_counts:
            records.extend(grouped.get((spec.collective, spec.name, p), ()))
    return records


def _check_drain(cell_sink) -> None:
    """Raise the sink's interrupt error when a graceful drain is pending."""
    sig = drain_requested()
    if sig is not None and cell_sink is not None:
        raise cell_sink.interrupted_error(sig)


def _run_cells(
    cells: Sequence[tuple[str, int]],
    run_cell,
    cell_sink=None,
    workers: int | None = None,
    shard_args=None,
) -> list[list[SweepRecord]]:
    """The one cell loop behind every sweep; records per cell, in order.

    ``run_cell(i)`` evaluates cell ``i`` inline.  With ``workers`` > 1 the
    cells first go to a process pool (``shard_args(i)`` is cell ``i``'s
    :func:`_sweep_shard` argument tuple); cells the pool could not finish
    run inline afterwards.  ``cell_sink`` (a
    :class:`~repro.checkpoint.journal.GridJournal`) sees the plan, serves
    already-journaled cells, stores every finished cell, and a pending
    graceful drain stops the loop at the next cell boundary with
    :class:`~repro.runtime.errors.InterruptedRunError`.
    """
    results: dict[int, list[SweepRecord]] = {}

    def finish(i: int, recs: list[SweepRecord]) -> None:
        if cell_sink is not None:
            cell_sink.store(*cells[i], recs)
        results[i] = recs

    if cell_sink is not None:
        cell_sink.plan(cells)
        for i, cell in enumerate(cells):
            recs = cell_sink.lookup(*cell)
            if recs is not None:
                results[i] = recs
    pending = [i for i in range(len(cells)) if i not in results]
    if workers is not None and workers > 1:
        pending = _run_pool(
            cells, pending, shard_args, workers, finish, cell_sink
        )
    for i in pending:
        _check_drain(cell_sink)
        finish(i, run_cell(i))
    return [results[i] for i in range(len(cells))]


def sweep_system(
    preset: SystemPreset,
    collectives: Sequence[str],
    *,
    node_counts: Sequence[int] | None = None,
    vector_bytes: Sequence[int] | None = None,
    algorithms: Iterable[str] | None = None,
    params: CostParams | None = None,
    max_p: dict[str, int] | None = None,
    ppn: int = 1,
    cache: ProfileCache | None = None,
    placement: str = "scheduler",
    workers: int | None = None,
    disk_dir: str | os.PathLike | None = None,
    faults: FaultSpec | None = None,
    cell_sink=None,
    torus_dims: Sequence[int] | None = None,
) -> list[SweepRecord]:
    """Evaluate every applicable algorithm across the grid.

    ``max_p`` optionally caps the rank count per collective (campaign
    manifests use it to keep a collective's grid smaller than the rest).

    ``workers=N`` (N > 1) shards the grid over ``(collective, p)`` pairs
    onto a process pool; results are identical to the serial sweep, in the
    same order.  ``disk_dir`` enables the persistent profile cache (ignored
    when an explicit ``cache`` is passed — configure it there instead).

    ``faults`` evaluates the grid on a degraded fabric (see
    :class:`~repro.faults.FaultSpec`); the scenario label lands in every
    record, and a fault timeline runs the grid on the DES engine.  Like
    ``disk_dir`` it is ignored when an explicit ``cache`` is passed.

    ``cell_sink`` (a :class:`~repro.checkpoint.journal.GridJournal`)
    streams each finished ``(collective, p)`` cell into a write-ahead
    journal and serves already-journaled cells on resume; records are
    identical to an unjournaled sweep in either execution mode.  With a
    sink active the sweep also honors graceful drain: a pending
    SIGINT/SIGTERM raises
    :class:`~repro.runtime.errors.InterruptedRunError` at the next cell
    boundary instead of starting new work.

    ``torus_dims`` sweeps the torus catalog
    (:func:`repro.collectives.torus.torus_algorithms`) on one sub-torus
    of the preset (Fig. 11b, App. D): the grid is a block-mapped
    ``Torus(torus_dims)`` at ppn 1, its one node count is the torus's
    rank count, and records are tagged ``system="<preset>:<AxBxC>"``, so
    sub-tori of one rank count (the paper's 4x4x4 and 8x8) stay distinct.
    The sweep builds its own cache on that torus, and a torus has no
    global links to fail, so ``cache``, a non-null ``faults`` and a
    ``ppn`` other than 1 raise :class:`ValueError`.

    Example (one-cell grid)::

        >>> from repro.systems import lumi
        >>> recs = sweep_system(lumi(), ("bcast",), node_counts=(16,),
        ...                     vector_bytes=(1024,), algorithms=("bine",))
        >>> [(r.algorithm, r.p, r.n_bytes) for r in recs]
        [('bine', 16, 1024)]
        >>> from repro.systems import fugaku
        >>> recs = sweep_system(fugaku(), ("bcast",), torus_dims=(2, 2),
        ...                     vector_bytes=(1024,), algorithms=("bine-torus",))
        >>> [(r.system, r.algorithm, r.p) for r in recs]
        [('fugaku:2x2', 'bine-torus', 4)]
    """
    if torus_dims is not None:
        torus_dims = tuple(torus_dims)
        degraded = faults is not None and not faults.is_null
        if cache is not None or ppn != 1 or degraded:
            raise ValueError(
                "torus_dims sweeps run on their own block-mapped torus "
                "cache at ppn=1 and a pristine fabric; pass neither cache, "
                "ppn nor faults"
            )
        preset = dataclasses.replace(
            preset,
            name=f"{preset.name}:{'x'.join(str(d) for d in torus_dims)}",
            topology=lambda: Torus(torus_dims),
        )
        node_counts = (math.prod(torus_dims),)
        placement = "block"
    node_counts = tuple(node_counts if node_counts is not None else preset.node_counts)
    vector_bytes = tuple(
        vector_bytes if vector_bytes is not None else preset.vector_bytes
    )
    params = params or preset.params
    cache = cache or ProfileCache(
        preset, placement=placement, disk_dir=disk_dir, faults=faults,
    )
    specs = _selected_specs(collectives, algorithms, torus_dims)
    with obs.span(
        "sweep.system",
        system=preset.name,
        collectives=",".join(collectives),
        engine=cache.engine,
        faults=cache.faults_label,
        workers=workers or 1,
    ) as sweep_span:
        cells = _grid_cells(cache, specs, node_counts, max_p, ppn)
        cell_specs = [
            [s for s in specs if s.collective == coll] for coll, _ in cells
        ]

        def run_cell(i: int) -> list[SweepRecord]:
            return _evaluate_cell(
                preset.name, cache, cell_specs[i], cells[i][1],
                vector_bytes, params, ppn,
            )

        def shard_args(i: int) -> tuple:
            coll, p = cells[i]
            return (
                cache.topo, preset.name, params, cache.placement, cache.seed,
                cache.busy_fraction, dict(cache._mappings),
                str(cache.disk_dir) if cache.disk_dir is not None else None,
                cache.engine, coll, p, vector_bytes,
                tuple(s.name for s in cell_specs[i]), ppn, torus_dims,
            )

        records = _reassemble(
            _run_cells(cells, run_cell, cell_sink, workers, shard_args),
            specs, node_counts,
        )
        sweep_span.set(records=len(records))
    return records


# -- parallel campaigns ------------------------------------------------------

#: wall-clock budget per shard result; a worker that exceeds it is treated
#: as hung and its cell re-queued
_SHARD_TIMEOUT_S = 300.0

#: extra pool rounds after the first before falling back to inline cells
_SHARD_RETRIES = 1

#: pool/worker failures that justify a retry round; anything else (a real
#: repro bug inside a shard) propagates unchanged
_RETRIABLE = (BrokenExecutor, TimeoutError, _FuturesTimeout, OSError)


#: active :func:`shard_fallback_scope` tokens (innermost last); inside a
#: scope the serial-fallback warning fires once instead of once per sweep
_FALLBACK_SCOPES: list[dict] = []


@contextmanager
def shard_fallback_scope():
    """Deduplicate serial-fallback warnings across the sweeps of one run.

    A campaign runs one :func:`sweep_system` per (scenario, grid); when a
    crashing pool makes *every* sweep fall back to serial, repeating the
    same :class:`RuntimeWarning` dozens of times buries the signal.
    :func:`~repro.cli.campaign.run_campaign` wraps its grid loop in this
    scope so the warning fires once per campaign — the full tally stays
    available as the ``shard.fallback_serial`` counter.  Direct
    ``sweep_system`` calls (no scope) warn every time, as before.
    """
    token = {"warned": False}
    _FALLBACK_SCOPES.append(token)
    try:
        yield token
    finally:
        _FALLBACK_SCOPES.remove(token)


def _sweep_shard(
    topo,
    system_name: str,
    params: CostParams,
    placement: str,
    seed: int,
    busy_fraction: float,
    mappings: dict[tuple[int, int], RankMap],
    disk_dir: str | None,
    profile_engine: str,
    collective: str,
    p: int,
    vector_bytes: tuple[int, ...],
    algorithm_names: tuple[str, ...],
    ppn: int,
    torus_dims: tuple[int, ...] | None,
) -> list[SweepRecord]:
    """Worker: evaluate one ``(collective, p)`` cell of the grid.

    Mappings are pre-sampled in the parent (placement draws are
    order-dependent), so the worker never touches the allocation RNG.  A
    degraded ``topo`` arrives pickled with its fault sets intact, so the
    worker reproduces the parent's routes exactly.  ``torus_dims``
    rebuilds the parent's torus catalog.
    """
    if os.environ.get("REPRO_TEST_CRASH_SHARD"):
        # test chaos hook: die the way a seg-faulting worker would, so the
        # resilience path (retry → serial fallback) is exercised end to end
        os._exit(17)
    preset = SystemPreset(
        name=system_name,
        topology=lambda: topo,
        params=params,
        node_counts=(p,),
        vector_bytes=vector_bytes,
    )
    cache = ProfileCache(
        preset,
        placement=placement,
        seed=seed,
        busy_fraction=busy_fraction,
        disk_dir=disk_dir,
        mappings=mappings,
        profile_engine=profile_engine,
    )
    specs = _selected_specs((collective,), algorithm_names, torus_dims)
    with obs.shard_scope():
        with obs.span("shard.run", collective=collective, p=p):
            return _evaluate_cell(
                system_name, cache, specs, p, vector_bytes, params, ppn
            )


def _run_shard_round(
    shard_args: dict[int, tuple],
    workers: int,
    on_result,
) -> tuple[list[int], list[int]]:
    """One process-pool round; ``(failed, abandoned)`` cell indices.

    Only pool-infrastructure failures (crashed worker, hung shard, broken
    pipe) land in the failed list; deterministic exceptions raised *by*
    shard code propagate to the caller unchanged.  ``on_result`` is
    called with ``(cell index, records)`` as each shard is absorbed, in
    deterministic submission order.

    Under a graceful drain (:func:`~repro.checkpoint.drain.
    drain_requested`) not-yet-running futures are cancelled and returned
    as *abandoned* — never failed, they must not be retried — while
    in-flight shards are awaited (and journaled) as usual.
    """
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing
    failed: list[int] = []
    abandoned: list[int] = []
    pool = ProcessPoolExecutor(
        max_workers=workers, initializer=pool_worker_init
    )
    try:
        futures: dict[int, object] = {}
        for i, args in shard_args.items():
            try:
                futures[i] = pool.submit(_sweep_shard, *args)
            except _RETRIABLE:
                failed.append(i)
        for i, fut in futures.items():
            if drain_requested() is not None and fut.cancel():
                abandoned.append(i)
                continue
            try:
                recs = fut.result(timeout=_SHARD_TIMEOUT_S)
            except _RETRIABLE:
                failed.append(i)
                continue
            if drain_requested() is not None:
                # this shard was in flight when the drain was requested;
                # its result is still absorbed and journaled
                obs.inc("checkpoint.drain.inflight")
            on_result(i, recs)
    finally:
        # don't wait: a hung worker must not hang the parent too
        pool.shutdown(wait=False, cancel_futures=True)
    return failed, abandoned


def _run_pool(
    cells: Sequence[tuple[str, int]],
    pending: Sequence[int],
    shard_args,
    workers: int,
    finish,
    cell_sink,
) -> list[int]:
    """Run ``pending`` cells on process pools; returns the cells still owed.

    Execution is resilient: cells whose shard crashed or timed out are
    re-queued onto a fresh pool (``_SHARD_RETRIES`` extra rounds), and
    cells that still fail are handed back to :func:`_run_cells` to run
    inline with a :class:`RuntimeWarning` — worker failures degrade
    throughput, never correctness or completeness.  Set
    ``REPRO_SHARD_FALLBACK=0`` to raise
    :class:`~repro.runtime.errors.WorkerShardError` instead of falling
    back (CI setups that want crashes loud).  A pending graceful drain
    stops new dispatch at the next round boundary.
    """
    obs.inc("shard.cells", len(cells))
    args = {i: shard_args(i) for i in pending}
    todo = dict(args)
    for _round in range(1 + _SHARD_RETRIES):
        if not todo:
            break
        _check_drain(cell_sink)
        if _round:
            obs.inc("shard.retries", len(todo))
        with obs.span(
            "shard.round", round=_round, shards=len(todo), workers=workers
        ):
            failed, abandoned = _run_shard_round(todo, workers, finish)
        todo = {i: args[i] for i in sorted({*failed, *abandoned})}
    if not todo:
        return []
    _check_drain(cell_sink)
    lost = [cells[i] for i in todo]
    if not env_flag("REPRO_SHARD_FALLBACK", True):
        raise WorkerShardError(
            f"{len(lost)} shard(s) failed after {1 + _SHARD_RETRIES} "
            f"pool rounds: {lost}"
        )
    obs.inc("shard.fallback_serial", len(lost))
    # inside a campaign scope the warning fires once; the counter above
    # keeps the full tally either way
    scope = _FALLBACK_SCOPES[-1] if _FALLBACK_SCOPES else None
    if scope is None or not scope["warned"]:
        if scope is not None:
            scope["warned"] = True
        warnings.warn(
            f"parallel sweep: {len(lost)} shard(s) crashed or timed out "
            f"after {1 + _SHARD_RETRIES} pool rounds; evaluating {lost} "
            "serially",
            RuntimeWarning,
        )
    return list(todo)
