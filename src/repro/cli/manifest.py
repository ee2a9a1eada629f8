"""Declarative campaign manifests (TOML or JSON).

A manifest describes one measurement campaign the way the paper runs one:
a single system, a shared placement/seed/busy-fraction context, and one or
more ``(collectives × node counts × vector sizes)`` grids evaluated against
the *same* profile cache (Leonardo's Table 4, for example, sweeps all
collectives to 256 nodes plus allreduce/allgather to 2048 in a second
grid).  ``campaigns/*.toml`` at the repo root reproduce Tables 3–5.

Schema (TOML shown; JSON mirrors it)::

    [campaign]
    name = "table3-lumi"            # required
    system = "lumi"                 # required, a repro.systems preset
    description = "..."             # optional
    placement = "scheduler"         # optional (scheduler | block)
    seed = 7                        # optional allocation-sampler seed
    busy_fraction = 0.55            # optional sampler load factor

    [[grid]]                        # one or more
    collectives = ["bcast", ...]    # required
    node_counts = [16, 64]          # required (unless torus_dims is set)
    vector_bytes = "paper"          # optional: "paper", or a list of ints;
                                    # omitted → the system preset's grid
    algorithms = ["bine", ...]      # optional registry-name filter
    ppn = 1                         # optional ranks per node
    torus_dims = [8, 8, 8]          # optional: run this grid on a sub-torus
                                    # through the torus algorithm catalog
                                    # (fugaku only, placement = "block";
                                    # node count = prod(dims))
    [grid.max_p]                    # optional per-collective rank cap
    alltoall = 256

    [summary]                       # optional paper-style duel table
    family = "bine"                 # optional, default "bine"
    baseline = "binomial"           # optional, default "binomial"
    [summary.baseline_overrides]    # optional per-collective baselines
    alltoall = "bruck"

    [[faults]]                      # optional fault scenarios; every grid
    failed_links = 2                # runs once per scenario, records tagged
    seed = 13                       # with the scenario label ("none" when
    [faults.derate]                 # the table is empty = pristine fabric)
    global = 0.5

    [[faults]]                      # mid-run fault timeline (replayed on
    timeline = "at=0.001:links=2,seed=5;at=0.01:heal=links"
    failed_links = 1                # the DES engine); composes with static
    seed = 13                       # damage (see docs/robustness.md)

Example::

    >>> m = manifest_from_dict({
    ...     "campaign": {"name": "tiny", "system": "lumi"},
    ...     "grid": [{"collectives": ["bcast"], "node_counts": [16]}],
    ... })
    >>> m.grids[0].collectives
    ('bcast',)
"""

from __future__ import annotations

import json
import tomllib
from dataclasses import dataclass, field
from pathlib import Path

from repro.collectives.registry import COLLECTIVES, families, iter_specs
from repro.faults import FaultSpec
from repro.runtime.errors import FaultSpecError
from repro.systems import ALL_SYSTEMS
from repro.systems.presets import PAPER_VECTOR_BYTES

__all__ = [
    "GridSpec",
    "SummarySpec",
    "CampaignManifest",
    "ManifestError",
    "load_manifest",
    "manifest_from_dict",
    "manifest_to_dict",
    "dump_manifest",
    "ppn_error",
]


class ManifestError(ValueError):
    """A campaign manifest failed validation."""


@dataclass(frozen=True)
class GridSpec:
    """One ``collectives × node_counts × vector_bytes`` block of a campaign."""

    collectives: tuple[str, ...]
    node_counts: tuple[int, ...]
    #: ``None`` → use the system preset's vector grid
    vector_bytes: tuple[int, ...] | None = None
    #: ``None`` → every registered algorithm
    algorithms: tuple[str, ...] | None = None
    ppn: int = 1
    #: per-collective rank-count cap (the Θ(p²) alltoall escape hatch)
    max_p: dict[str, int] | None = None
    #: set → sweep this grid on a block-mapped sub-torus through the torus
    #: catalog (:func:`repro.collectives.torus.torus_algorithms`) instead
    #: of the generic registry (``sweep_system(..., torus_dims=...)``);
    #: Fig. 11b / App. D grids
    torus_dims: tuple[int, ...] | None = None


@dataclass(frozen=True)
class SummarySpec:
    """Paper-style family duel rendered after the sweep."""

    family: str = "bine"
    baseline: str = "binomial"
    baseline_overrides: dict[str, str] = field(default_factory=dict)

    def baseline_for(self, collective: str) -> str:
        return self.baseline_overrides.get(collective, self.baseline)


@dataclass(frozen=True)
class CampaignManifest:
    """A fully validated campaign description."""

    name: str
    system: str
    grids: tuple[GridSpec, ...]
    description: str = ""
    placement: str = "scheduler"
    seed: int = 7
    busy_fraction: float = 0.55
    summary: SummarySpec | None = None
    #: fault scenarios; every grid runs once per scenario (empty → pristine)
    faults: tuple[FaultSpec, ...] = ()

    def collectives(self) -> tuple[str, ...]:
        """Campaign collectives in first-appearance order across grids."""
        seen: dict[str, None] = {}
        for grid in self.grids:
            for coll in grid.collectives:
                seen.setdefault(coll)
        return tuple(seen)


def _require(data: dict, key: str, where: str):
    if key not in data:
        raise ManifestError(f"{where}: missing required key {key!r}")
    return data[key]


def _check_keys(data: dict, allowed: set[str], where: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ManifestError(
            f"{where}: unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}"
        )


def _int_tuple(values, where: str) -> tuple[int, ...]:
    # reject strings explicitly: iterating "16" would yield (1, 6)
    if isinstance(values, (str, bytes)):
        raise ManifestError(f"{where}: expected a list of integers, got a string")
    try:
        out = tuple(int(v) for v in values)
    except (TypeError, ValueError):
        raise ManifestError(f"{where}: expected a list of integers") from None
    if not out or any(v <= 0 for v in out):
        raise ManifestError(f"{where}: needs at least one positive integer")
    return out


def ppn_error(node_counts, ppn: int) -> str | None:
    """Why ``ppn`` ranks per node cannot place every rank count of
    ``node_counts``, or ``None`` when it divides them all."""
    if ppn < 1:
        return f"ppn must be >= 1, got {ppn}"
    bad = [p for p in node_counts if p % ppn]
    if bad:
        return f"node count(s) {bad} are not divisible by ppn={ppn}"
    return None


def _torus_grid_checks(
    data: dict, collectives: tuple[str, ...], system: str, where: str
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Validate a ``torus_dims`` grid; returns (dims, node_counts)."""
    from repro.collectives.torus import torus_algorithms
    from repro.core.torus_opt import TorusShape

    if system != "fugaku":
        raise ManifestError(
            f"{where}: torus_dims grids run on the torus system preset "
            f"(system = \"fugaku\"), not {system!r}"
        )
    if data.get("max_p") is not None or int(data.get("ppn", 1)) != 1:
        raise ManifestError(f"{where}: torus_dims grids take neither max_p nor ppn")
    dims = _int_tuple(data["torus_dims"], f"{where}.torus_dims")
    try:
        shape = TorusShape(dims)
    except ValueError as exc:
        raise ManifestError(f"{where}.torus_dims: {exc}") from None
    known = sorted({c for c, _ in torus_algorithms(shape)})
    no_algo = [c for c in collectives if c not in known]
    if no_algo:
        raise ManifestError(
            f"{where}: no torus algorithm for collective(s) {no_algo}; "
            f"torus catalog covers {known}"
        )
    node_counts = data.get("node_counts")
    if node_counts is not None:
        node_counts = _int_tuple(node_counts, f"{where}.node_counts")
        if node_counts != (shape.num_ranks,):
            raise ManifestError(
                f"{where}: node_counts {list(node_counts)} contradicts "
                f"torus_dims {list(dims)} (= {shape.num_ranks} ranks); "
                "omit node_counts for torus grids"
            )
    return dims, (shape.num_ranks,)


def _grid_from_dict(data: dict, where: str, system: str) -> GridSpec:
    _check_keys(
        data,
        {"collectives", "node_counts", "vector_bytes", "algorithms", "ppn",
         "max_p", "torus_dims"},
        where,
    )
    collectives = tuple(_require(data, "collectives", where))
    if not collectives:
        raise ManifestError(f"{where}: needs at least one collective")
    bad = [c for c in collectives if c not in COLLECTIVES]
    if bad:
        raise ManifestError(f"{where}: unknown collective(s) {bad}; have {list(COLLECTIVES)}")
    torus_dims = None
    if data.get("torus_dims") is not None:
        torus_dims, node_counts = _torus_grid_checks(data, collectives, system, where)
    else:
        node_counts = _int_tuple(
            _require(data, "node_counts", where), f"{where}.node_counts"
        )
    vector_bytes = data.get("vector_bytes")
    if vector_bytes == "paper":
        vector_bytes = PAPER_VECTOR_BYTES
    elif vector_bytes is not None:
        vector_bytes = _int_tuple(vector_bytes, f"{where}.vector_bytes")
    algorithms = data.get("algorithms")
    if algorithms is not None:
        algorithms = tuple(str(a) for a in algorithms)
        if torus_dims is not None:
            from repro.collectives.torus import torus_algorithms
            from repro.core.torus_opt import TorusShape

            known = {
                name for c, name in torus_algorithms(TorusShape(torus_dims))
                if c in collectives
            }
        else:
            known = {s.name for c in collectives for s in iter_specs(c)}
        bad = [a for a in algorithms if a not in known]
        if bad:
            raise ManifestError(
                f"{where}: unknown algorithm(s) {bad} for collectives "
                f"{list(collectives)}; have {sorted(known)}"
            )
    max_p = data.get("max_p")
    if max_p is not None:
        max_p = {str(k): int(v) for k, v in max_p.items()}
    ppn = int(data.get("ppn", 1))
    error = ppn_error(node_counts, ppn)
    if error:
        raise ManifestError(f"{where}: {error}")
    return GridSpec(
        collectives=collectives,
        node_counts=node_counts,
        vector_bytes=vector_bytes,
        algorithms=algorithms,
        ppn=ppn,
        max_p=max_p,
        torus_dims=torus_dims,
    )


def manifest_from_dict(data: dict) -> CampaignManifest:
    """Validate a raw (TOML/JSON-parsed) mapping into a manifest.

    Raises :class:`ManifestError` on unknown keys, unknown systems or
    collectives, and empty/invalid grids — typos fail loudly, not as
    silently-empty campaigns.

    Example::

        >>> manifest_from_dict({
        ...     "campaign": {"name": "t", "system": "lumi"},
        ...     "grid": [{"collectives": ["bcast"], "node_counts": [16]}],
        ... }).placement
        'scheduler'
    """
    _check_keys(data, {"campaign", "grid", "summary", "faults"}, "manifest")
    camp = _require(data, "campaign", "manifest")
    _check_keys(
        camp,
        {"name", "system", "description", "placement", "seed", "busy_fraction"},
        "[campaign]",
    )
    system = str(_require(camp, "system", "[campaign]"))
    if system not in ALL_SYSTEMS:
        raise ManifestError(
            f"[campaign]: unknown system {system!r}; have {sorted(ALL_SYSTEMS)}"
        )
    placement = str(camp.get("placement", "scheduler"))
    if placement not in ("scheduler", "block"):
        raise ManifestError(
            f"[campaign]: unknown placement {placement!r} (scheduler | block)"
        )
    raw_grids = data.get("grid") or []
    if not raw_grids:
        raise ManifestError("manifest: needs at least one [[grid]] section")
    grids = tuple(
        _grid_from_dict(g, f"[[grid]] #{i}", system)
        for i, g in enumerate(raw_grids)
    )
    # torus sweeps always run on the canonical block mapping; accepting the
    # (default) scheduler placement would stamp provenance the records
    # don't actually have
    if placement != "block" and any(g.torus_dims is not None for g in grids):
        raise ManifestError(
            "[campaign]: torus_dims grids run on the canonical block "
            'mapping; set placement = "block"'
        )
    raw_faults = data.get("faults") or []
    faults: list[FaultSpec] = []
    for i, entry in enumerate(raw_faults):
        try:
            faults.append(FaultSpec.from_dict(entry))
        except FaultSpecError as exc:
            raise ManifestError(f"[[faults]] #{i}: {exc}") from None
    labels = [(f.label, f.timeline_label) for f in faults]
    dupes = sorted({lb for lb in labels if labels.count(lb) > 1})
    if dupes:
        raise ManifestError(
            f"[[faults]]: duplicate scenario label(s) {dupes}; records of "
            "identical scenarios would collide"
        )
    if faults and any(g.torus_dims is not None for g in grids):
        raise ManifestError(
            "[[faults]]: fault scenarios do not apply to torus_dims grids "
            "(a torus has no global links to fail)"
        )
    summary = None
    if "summary" in data:
        s = data["summary"]
        _check_keys(s, {"family", "baseline", "baseline_overrides"}, "[summary]")
        summary = SummarySpec(
            family=str(s.get("family", "bine")),
            baseline=str(s.get("baseline", "binomial")),
            baseline_overrides={
                str(k): str(v) for k, v in s.get("baseline_overrides", {}).items()
            },
        )
        known_families = families()
        bad = [
            f
            for f in (summary.family, summary.baseline,
                      *summary.baseline_overrides.values())
            if f not in known_families
        ]
        if bad:
            raise ManifestError(
                f"[summary]: unknown family/baseline {sorted(set(bad))}; "
                f"have {known_families}"
            )
        bad = [c for c in summary.baseline_overrides if c not in COLLECTIVES]
        if bad:
            raise ManifestError(
                f"[summary]: baseline_overrides for unknown collective(s) {bad}"
            )
    return CampaignManifest(
        name=str(_require(camp, "name", "[campaign]")),
        system=system,
        grids=grids,
        description=str(camp.get("description", "")),
        placement=placement,
        seed=int(camp.get("seed", 7)),
        busy_fraction=float(camp.get("busy_fraction", 0.55)),
        summary=summary,
        faults=tuple(faults),
    )


def load_manifest(path: str | Path) -> CampaignManifest:
    """Load and validate a ``.toml`` or ``.json`` manifest file.

    Example::

        >>> load_manifest("campaigns/table3_lumi.toml").system  # doctest: +SKIP
        'lumi'
    """
    path = Path(path)
    if path.suffix == ".toml":
        with open(path, "rb") as fh:
            data = tomllib.load(fh)
    elif path.suffix == ".json":
        data = json.loads(path.read_text())
    else:
        raise ManifestError(f"{path}: manifest must be .toml or .json")
    try:
        return manifest_from_dict(data)
    except ManifestError as exc:
        raise ManifestError(f"{path}: {exc}") from None


def manifest_to_dict(manifest: CampaignManifest) -> dict:
    """Inverse of :func:`manifest_from_dict` (defaults written explicitly).

    Example::

        >>> m = manifest_from_dict({
        ...     "campaign": {"name": "t", "system": "lumi"},
        ...     "grid": [{"collectives": ["bcast"], "node_counts": [16]}],
        ... })
        >>> manifest_from_dict(manifest_to_dict(m)) == m
        True
    """
    data: dict = {
        "campaign": {
            "name": manifest.name,
            "system": manifest.system,
            "description": manifest.description,
            "placement": manifest.placement,
            "seed": manifest.seed,
            "busy_fraction": manifest.busy_fraction,
        },
        "grid": [],
    }
    for g in manifest.grids:
        grid: dict = {
            "collectives": list(g.collectives),
            "node_counts": list(g.node_counts),
            "ppn": g.ppn,
        }
        if g.vector_bytes is not None:
            grid["vector_bytes"] = list(g.vector_bytes)
        if g.algorithms is not None:
            grid["algorithms"] = list(g.algorithms)
        if g.max_p is not None:
            grid["max_p"] = dict(g.max_p)
        if g.torus_dims is not None:
            grid["torus_dims"] = list(g.torus_dims)
        data["grid"].append(grid)
    if manifest.summary is not None:
        data["summary"] = {
            "family": manifest.summary.family,
            "baseline": manifest.summary.baseline,
            "baseline_overrides": dict(manifest.summary.baseline_overrides),
        }
    if manifest.faults:
        data["faults"] = [spec.to_dict() for spec in manifest.faults]
    return data


def dump_manifest(manifest: CampaignManifest, path: str | Path) -> None:
    """Write a manifest as JSON (the stdlib has no TOML writer).

    Round-trips: ``load_manifest(p)`` after ``dump_manifest(m, p)``
    reproduces ``m`` exactly.
    """
    path = Path(path)
    if path.suffix != ".json":
        raise ManifestError(f"{path}: dump_manifest writes .json only")
    path.write_text(json.dumps(manifest_to_dict(manifest), indent=2) + "\n")
