"""Grid-scale schedule verification — the engine behind ``repro verify``.

The sweep layer answers "how fast is each algorithm"; this module answers
"is every schedule *correct*" at grid scale: for each registry cell
``(collective, algorithm, p)`` it gets the cell's compiled plan (rendered
from the entry's step arrays, or built and compiled), runs the executor
oracle (:mod:`repro.collectives.verify`) for a set of seeds, and reduces the
outcome to one :class:`VerifyRecord` — ``ok``, ``failed`` (with the first
mismatch), or ``skipped`` (constraint not applicable, e.g. a power-of-two
algorithm at p=17).

Engines:

* ``compiled`` (default) — one plan per cell via
  :func:`~repro.collectives.verify.compiled_plan_for` (made for the cell
  and dropped after it: a grid holds one plan at a time), every seed
  executed in one batched columnar pass.  The butterfly flows, rings,
  Bruck and Sparbit render their plan from step arrays and never build a
  schedule; the other entries build and compile;
* ``reference`` — build the schedule and run the interpreted executor, one
  seed at a time;
* ``both`` — run both and additionally assert their final buffer matrices
  are bit-identical, the strongest cross-check (for a rendered entry,
  rendered plan against built schedule).

Execution runs with schedule validation switched off
(:func:`~repro.runtime.schedule.schedule_validation`): the structural pass
already ran once, when the builder finalized the schedule or, for a
rendered plan, on its step arrays (:meth:`~repro.runtime.schedule.ArrayPhase.finalize_error`),
and the oracle's end-state comparison is the stronger check — no need to
pay validation twice per cell.

``verify_grid(..., workers=N)`` shards cells over a
:class:`~concurrent.futures.ProcessPoolExecutor`; cells are independent
(no shared RNG), so parallel records are identical to serial ones, in the
same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Iterable, Sequence

import numpy as np

from repro import obs
from repro.checkpoint.drain import pool_worker_init
from repro.collectives.registry import (
    COLLECTIVES,
    AlgorithmSpec,
    iter_specs,
    spec_for,
)
from repro.collectives.verify import (
    check,
    compiled_plan_for,
    init_buffers,
    run_and_check_compiled,
)
from repro.runtime.compiled import matrix_from_buffers
from repro.runtime.errors import RuntimeSubstrateError
from repro.runtime.executor import execute
from repro.runtime.schedule import schedule_validation

__all__ = [
    "VerifyRecord",
    "VERIFY_FIELDS",
    "ENGINES",
    "DEFAULT_NODE_COUNTS",
    "verify_cell",
    "verify_grid",
]

#: column order shared by every machine-readable export (JSON, Markdown)
VERIFY_FIELDS = (
    "collective",
    "algorithm",
    "family",
    "p",
    "n",
    "seeds",
    "engine",
    "status",
    "detail",
    "elapsed_s",
)

ENGINES = ("compiled", "reference", "both")

#: default grid: small powers of two plus one non-power-of-two rank count,
#: mirroring the cross-validation suite's coverage envelope
DEFAULT_NODE_COUNTS = (4, 8, 16, 17, 32)


@dataclass(frozen=True)
class VerifyRecord:
    """Outcome of one ``(collective, algorithm, p)`` oracle cell.

    Example::

        >>> r = VerifyRecord("bcast", "bine", "bine", 8, 32, 2, "compiled", "ok")
        >>> r.to_dict()["status"]
        'ok'
        >>> VerifyRecord.from_dict(r.to_dict()) == r
        True
    """

    collective: str
    algorithm: str
    family: str
    p: int
    n: int
    seeds: int
    engine: str
    status: str  # 'ok' | 'failed' | 'skipped'
    detail: str = ""
    elapsed_s: float = 0.0

    def to_dict(self) -> dict:
        """Plain-dict view in :data:`VERIFY_FIELDS` order, for export."""
        return {f: getattr(self, f) for f in VERIFY_FIELDS}

    @classmethod
    def from_dict(cls, d: dict) -> "VerifyRecord":
        """Rebuild a record from :meth:`to_dict` output (JSON round-trips)."""
        return cls(**{f: d[f] for f in VERIFY_FIELDS})


def _skip_reason(spec: AlgorithmSpec, p: int, n: int, respect_max_p: bool) -> str | None:
    if spec.pow2_only and p & (p - 1):
        return "p not a power of two"
    if spec.needs_divisible and n % p:
        return f"n={n} not divisible by p"
    if respect_max_p and spec.max_p is not None and p > spec.max_p:
        return f"capped at p={spec.max_p} (Θ(p²) wire segments)"
    return None


def _clip(text: str, limit: int = 240) -> str:
    text = " ".join(str(text).split())
    return text if len(text) <= limit else text[: limit - 1] + "…"


def verify_cell(
    collective: str,
    algorithm: str,
    p: int,
    n: int,
    seeds: Sequence[int] = (0,),
    engine: str = "compiled",
    respect_max_p: bool = True,
) -> VerifyRecord:
    """Run the oracle for one registry cell and fold the outcome.

    Example::

        >>> verify_cell("bcast", "bine", 8, 32, seeds=(0,)).status
        'ok'
        >>> verify_cell("bcast", "bine", 12, 48).status  # pow2-only builder
        'skipped'
    """
    with obs.span(
        "verify.cell",
        collective=collective,
        algorithm=algorithm,
        p=p,
        n=n,
        engine=engine,
    ):
        rec = _verify_cell_impl(
            collective, algorithm, p, n, seeds, engine, respect_max_p
        )
    obs.inc(f"verify.cells.{rec.status}")
    return rec


def _verify_cell_impl(
    collective: str,
    algorithm: str,
    p: int,
    n: int,
    seeds: Sequence[int],
    engine: str,
    respect_max_p: bool,
) -> VerifyRecord:
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; have {ENGINES}")
    spec = spec_for(collective, algorithm)
    seeds = tuple(seeds)
    start = perf_counter()

    def record(status: str, detail: str = "") -> VerifyRecord:
        return VerifyRecord(
            collective=collective,
            algorithm=algorithm,
            family=spec.family,
            p=p,
            n=n,
            seeds=len(seeds),
            engine=engine,
            status=status,
            detail=_clip(detail) if detail else "",
            elapsed_s=round(perf_counter() - start, 6),
        )

    reason = _skip_reason(spec, p, n, respect_max_p)
    if reason is not None:
        return record("skipped", reason)
    try:
        if engine == "reference":
            schedule = spec.build(p, n)
        else:
            schedule, plan = compiled_plan_for(collective, algorithm, p, n)
            if engine == "both":
                schedule = spec.build(p, n)
    except ValueError as exc:  # builder constraint not met
        return record("skipped", str(exc))
    except (RuntimeSubstrateError, AssertionError) as exc:
        return record("failed", f"build: {exc}")

    try:
        # validation already ran when the plan was made (Schedule.finalize,
        # or its array form for a rendered plan); the end-state check below
        # is the stronger signal
        with schedule_validation(False):
            if engine == "compiled":
                run_and_check_compiled(schedule, seeds, plan)
            elif engine == "reference":
                for seed in seeds:
                    bufs = init_buffers(schedule, seed)
                    execute(schedule, bufs)
                    check(schedule, bufs, seed)
            else:  # both: every seed checked by each engine + cross-diffed
                matrices = run_and_check_compiled(schedule, seeds, plan)
                for i, seed in enumerate(seeds):
                    bufs = init_buffers(schedule, seed)
                    execute(schedule, bufs)
                    check(schedule, bufs, seed)
                    ref = matrix_from_buffers(bufs, plan.layout)
                    if not np.array_equal(ref, matrices[i]):
                        bad = np.argwhere(ref != matrices[i])[:3]
                        raise AssertionError(
                            f"seed {seed}: compiled != reference at "
                            f"(rank, column) {bad.tolist()}"
                        )
    except (RuntimeSubstrateError, AssertionError) as exc:
        return record("failed", str(exc))
    return record("ok")


def _cells(
    collectives: Sequence[str],
    node_counts: Sequence[int],
    elems_per_rank: int,
    algorithms: Iterable[str] | None,
    max_p: dict[str, int] | None,
) -> list[tuple[str, str, int, int]]:
    """The grid in deterministic ``(collective, algorithm, p)`` order."""
    names = None if algorithms is None else set(algorithms)
    cells = []
    for collective in collectives:
        for spec in iter_specs(collective):
            if names is not None and spec.name not in names:
                continue
            for p in node_counts:
                if max_p and p > max_p.get(spec.name, p):
                    continue
                cells.append((collective, spec.name, p, elems_per_rank * p))
    return cells


def verify_grid(
    collectives: Sequence[str] | None = None,
    node_counts: Sequence[int] = DEFAULT_NODE_COUNTS,
    *,
    elems_per_rank: int = 4,
    seeds: Sequence[int] = (0, 1),
    engine: str = "compiled",
    algorithms: Iterable[str] | None = None,
    max_p: dict[str, int] | None = None,
    workers: int | None = None,
) -> list[VerifyRecord]:
    """Run the executor oracle over a whole collective/algorithm/p grid.

    Every registered algorithm of every requested collective is checked at
    every rank count with ``n = elems_per_rank * p`` elements (divisible by
    ``p`` by construction, so divisibility-constrained algorithms are
    exercised rather than skipped).  ``max_p`` optionally caps rank counts
    per *algorithm name* (e.g. ``{"ring": 256}`` keeps a Θ(p²)-transfer
    benchmark grid affordable); registry-declared ``spec.max_p`` caps are
    always respected and reported as skips.

    ``workers=N`` (N > 1) shards cells over a process pool; cells are
    independent, so results are identical to a serial run, in the same order.

    Example (one-cell grid)::

        >>> [r.status for r in verify_grid(("bcast",), (8,),
        ...                                algorithms=("bine",), seeds=(0,))]
        ['ok']
    """
    collectives = tuple(collectives) if collectives is not None else COLLECTIVES
    cells = _cells(collectives, tuple(node_counts), elems_per_rank, algorithms, max_p)
    seeds = tuple(seeds)
    with obs.span(
        "verify.grid",
        collectives=",".join(collectives),
        cells=len(cells),
        engine=engine,
        workers=workers or 1,
    ):
        if workers is not None and workers > 1 and len(cells) > 1:
            from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing
            pool = ProcessPoolExecutor(
                max_workers=workers, initializer=pool_worker_init
            )
            try:
                futures = [
                    pool.submit(
                        _verify_cell_shard, coll, name, p, n, seeds, engine
                    )
                    for coll, name, p, n in cells
                ]
                return [f.result() for f in futures]
            finally:
                # workers ignore SIGINT: cancel the rest of the grid
                # rather than wait for it on an interrupt
                pool.shutdown(wait=False, cancel_futures=True)
        return [
            verify_cell(coll, name, p, n, seeds, engine)
            for coll, name, p, n in cells
        ]


def _verify_cell_shard(
    collective: str,
    algorithm: str,
    p: int,
    n: int,
    seeds: Sequence[int],
    engine: str,
) -> VerifyRecord:
    """Pool worker: one verify cell inside a telemetry shard scope."""
    with obs.shard_scope():
        return verify_cell(collective, algorithm, p, n, seeds, engine)
