"""The benchmark's four workloads.

Each workload is a closed loop of single-threaded batch jobs from one
caller.  Constructing the class is the set-up (timed as ``setup_s``);
``run(i)`` is the ``i``-th timed unit of work and returns its outputs;
``digest(i, out)`` reduces those outputs, outside the timed region, to a
canonical digest plus a list of correctness problems; ``check(out)`` is
the closing correctness check on the last unit's outputs.  Units cycle
over ``cycle`` distinct inputs (the 48 cost-model variants of
``retune_warm``; one input for the others), so a run's digest covers
every input once.

The seed changes generated inputs only: placements draw from
``7 + seed``, verification data from ``(2 * seed, 2 * seed + 1)`` and the
tuning query stream from ``seed``.  Grid sizes are keyword arguments, so
the tier-1 test can run every workload on a tiny grid.

Every call into the program goes through a module attribute
(``sweep.sweep_system``, never a name imported into this module), so the
traced run's shims see it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np

from repro.analysis import sweep, verifygrid
from repro.faults import FaultSpec
from repro.report.artifacts import records_digest
from repro.systems import lumi
from repro.tune import serve, tables

PAPER_SIZES = tuple(32 * 8**k for k in range(9))  # 32 B ... 512 MiB
CAMPAIGN_COLLECTIVES = ("allreduce", "allgather", "bcast")
ALL_COLLECTIVES = (
    "bcast", "reduce", "gather", "scatter",
    "allgather", "reduce_scatter", "allreduce", "alltoall",
)


def sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _bad_times(records) -> list[str]:
    return [
        f"{r.collective}/{r.algorithm}/p={r.p}/n={r.n_bytes}: time {r.time!r}"
        for r in records
        if not (math.isfinite(r.time) and r.time > 0)
    ]


class CampaignCold:
    """The reference LUMI campaign from empty memo caches: build-dominated.

    Each grid is ``(collectives, node_counts, ppn)``.  The default scales
    the reference campaign (p = 16 ... 1024 at ppn = 1, p = 4096 at
    ppn = 2) down to fit a run: the full ppn = 1 grid up to p = 256, plus
    one large ppn = 2 cell where the quadratic builders dominate, as they
    do at p = 4096.
    """

    name = "campaign_cold"
    layers = (
        "collectives.build", "model.lower", "model.profile",
        "model.evaluate", "analysis.sweep", "analysis.cache",
    )
    cycle = 1

    def __init__(
        self,
        seed: int,
        *,
        grids=(
            (CAMPAIGN_COLLECTIVES, (16, 64, 256), 1),
            (("allreduce",), (2048,), 2),
        ),
        sizes=PAPER_SIZES,
    ):
        self.preset = lumi()
        self.placement_seed = 7 + seed
        self.grids = tuple(grids)
        self.sizes = tuple(sizes)

    def run(self, i: int):
        sweep.clear_memo_caches()
        cache = sweep.ProfileCache(self.preset, seed=self.placement_seed)
        records = []
        for collectives, node_counts, ppn in self.grids:
            records += sweep.sweep_system(
                self.preset, collectives, node_counts=node_counts,
                ppn=ppn, vector_bytes=self.sizes, cache=cache,
            )
        return records

    def digest(self, i: int, records) -> tuple[str, list[str]]:
        return records_digest(records), _bad_times(records)

    def check(self, records) -> list[str]:
        return [] if records else ["campaign produced no records"]


#: the fault scenarios of ``campaigns/timeline_lumi.toml`` (fixed here so
#: the benchmark does not move when that study does)
TIMELINE_SCENARIOS = (
    {},
    {"timeline": "at=0.0001:links=4,seed=9;at=0.02:heal=links"},
    {"timeline": "at=0.0005:background=0.5;at=0.01:heal=background"},
    {"failed_links": 1, "seed": 13, "timeline": "at=0.001:links=3,seed=9"},
)


class DesTimeline:
    """Fault timelines replayed on the DES engine: simulation-dominated."""

    name = "des_timeline"
    layers = (
        "des.simulate", "model.profile", "analysis.sweep", "analysis.cache",
    )
    cycle = 1

    def __init__(
        self,
        seed: int,
        *,
        collectives=("allgather", "allreduce", "bcast"),
        node_counts=(16, 32),
        sizes=(1024, 65536, 1048576, 16777216),
        scenarios=TIMELINE_SCENARIOS,
    ):
        self.preset = lumi()
        self.placement_seed = 7 + seed
        self.collectives = tuple(collectives)
        self.node_counts = tuple(node_counts)
        self.sizes = tuple(sizes)
        self.scenarios = tuple(FaultSpec(**s) for s in scenarios)

    def _sweep(self, faults: FaultSpec, engine: str):
        cache = sweep.ProfileCache(
            self.preset, seed=self.placement_seed, faults=faults,
            profile_engine=engine,
        )
        return sweep.sweep_system(
            self.preset, self.collectives, node_counts=self.node_counts,
            vector_bytes=self.sizes, cache=cache,
        )

    def run(self, i: int):
        sweep.clear_memo_caches()
        records = []
        for faults in self.scenarios:
            records += self._sweep(faults, "des")
        return records

    def digest(self, i: int, records) -> tuple[str, list[str]]:
        return records_digest(records), _bad_times(records)

    def check(self, records) -> list[str]:
        """Calibration contract: the calm DES records equal the compiled ones."""
        calm = [r for r in records if r.faults == "none" and r.timeline == "none"]
        compiled = self._sweep(FaultSpec(), "compiled")
        if records_digest(calm) != records_digest(compiled):
            return ["calm DES records differ from the compiled evaluator's"]
        return []


class VerifyGrid:
    """Cold bulk verification: build, compile and execute with validation on."""

    name = "verify_grid"
    layers = (
        "collectives.build", "runtime.compile", "runtime.execute",
        "collectives.verify.check", "analysis.verifygrid",
    )
    cycle = 1

    #: ring is capped: its Θ(p²)-transfer cells would dominate the grid
    MAX_P = {"ring": 64}

    def __init__(
        self,
        seed: int,
        *,
        collectives=CAMPAIGN_COLLECTIVES,
        node_counts=(16, 64, 256),
    ):
        self.collectives = tuple(collectives)
        self.node_counts = tuple(node_counts)
        self.seeds = (2 * seed, 2 * seed + 1)

    def run(self, i: int):
        sweep.clear_memo_caches()
        return verifygrid.verify_grid(
            self.collectives, self.node_counts, elems_per_rank=1,
            seeds=self.seeds, max_p=self.MAX_P,
        )

    def digest(self, i: int, cells) -> tuple[str, list[str]]:
        rows = sorted(f"{c.collective} {c.algorithm} {c.p} {c.status}" for c in cells)
        problems = [
            f"{c.collective}/{c.algorithm}/p={c.p}: {c.detail}"
            for c in cells if c.status == "failed"
        ]
        return sha(rows), problems

    def check(self, cells) -> list[str]:
        if not any(c.status == "ok" for c in cells):
            return ["no verify cell passed"]
        return []


def cost_variants(params) -> tuple:
    """The 48 re-tuning inputs: global-link β × 2^(k/2) for k < 8, three
    per-segment overheads, two global-hop latencies."""
    return tuple(
        dataclasses.replace(
            params,
            beta={**params.beta, "global": params.beta["global"] * 2 ** (k / 2)},
            seg_overhead=seg,
            alpha_hop={**params.alpha_hop, "global": hop},
        )
        for k in range(8)
        for seg in (0.0, 0.4e-6, 1.6e-6)
        for hop in (0.6e-6, 2.4e-6)
    )


class RetuneWarm:
    """Re-tuning against warm profiles: evaluate, records, tables, serving.

    Set-up fills one profile cache with the Table 3 grid; each unit then
    sweeps one cost-model variant over 25 sizes, builds its decision
    table, answers a batched query stream per collective and times a
    slice of scalar lookups.  No schedule is built in the timed region.
    """

    name = "retune_warm"
    layers = (
        "model.evaluate", "analysis.sweep", "analysis.cache",
        "tune.build", "tune.serve", "tune.select",
    )

    def __init__(
        self,
        seed: int,
        *,
        collectives=ALL_COLLECTIVES,
        node_counts=(16, 64, 256),
        sizes=tuple(2**k for k in range(5, 30)),
        variants=None,
        queries=20_000,
        scalar_queries=500,
    ):
        self.preset = lumi()
        self.collectives = tuple(collectives)
        self.node_counts = tuple(node_counts)
        self.sizes = tuple(sizes)
        self.variants = (
            cost_variants(self.preset.params) if variants is None
            else tuple(variants)
        )
        self.cycle = len(self.variants)
        rng = np.random.default_rng(seed)
        self.queries = {
            c: (
                np.rint(2 ** rng.uniform(3, 11, queries)).astype(np.int64),
                np.rint(2 ** rng.uniform(0, 32, queries)).astype(np.int64),
            )
            for c in self.collectives
        }
        self.scalar_queries = scalar_queries
        self._scalar = {c: (p.tolist(), n.tolist()) for c, (p, n) in self.queries.items()}
        sweep.clear_memo_caches()
        self.cache = sweep.ProfileCache(self.preset, seed=7 + seed)
        sweep.sweep_system(
            self.preset, self.collectives, node_counts=self.node_counts,
            vector_bytes=self.sizes, cache=self.cache,
        )

    def _scalar_slice(self, i: int) -> tuple[str, range]:
        collective = self.collectives[i % len(self.collectives)]
        total = len(self._scalar[collective][0])
        lo = (i // len(self.collectives) * self.scalar_queries) % total
        return collective, range(lo, min(lo + self.scalar_queries, total))

    def run(self, i: int):
        records = sweep.sweep_system(
            self.preset, self.collectives, node_counts=self.node_counts,
            vector_bytes=self.sizes, params=self.variants[i % self.cycle],
            cache=self.cache,
        )
        table = tables.build_decision_table(records, name=f"variant-{i % self.cycle}")
        batched = {
            c: serve.select_algorithms(table, c, "lumi", p, 1, n, policy="nearest")
            for c, (p, n) in self.queries.items()
        }
        collective, idx = self._scalar_slice(i)
        ps, ns = self._scalar[collective]
        scalar = [
            serve.select_algorithm(table, collective, "lumi", ps[j], 1, ns[j], policy="nearest")
            for j in idx
        ]
        return table, batched, scalar

    def digest(self, i: int, out) -> tuple[str, list[str]]:
        table, batched, scalar = out
        collective, idx = self._scalar_slice(i)
        answers = batched[collective]
        problems = [
            f"{collective} query {j}: scalar {s!r} != batched {answers[j]!r}"
            for j, s in zip(idx, scalar) if s != answers[j]
        ]
        lines = [table.to_dict()["digest"]]
        lines += [sha(map(str, batched[c])) for c in self.collectives]
        return sha(lines), problems

    def check(self, out) -> list[str]:
        table, _batched, _scalar = out
        if len(table.tables) != len(self.collectives):
            return [f"decision table has {len(table.tables)} sub-tables, "
                    f"expected {len(self.collectives)}"]
        return []


WORKLOADS = {w.name: w for w in (CampaignCold, DesTimeline, VerifyGrid, RetuneWarm)}
