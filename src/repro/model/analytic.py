"""Alltoall sweep tables: packed and sampled cost models of Sec. 4.4.

The exact alltoall builders (:mod:`repro.collectives.alltoall`) track
every block slot, so their schedules carry ``Θ(p²)`` fragmented wire
segments.  A sweep scores the algorithms as implementations run them
instead, and these renderers emit that cost model straight as a
:class:`~repro.model.compiled.TransferTable` at ``n = p`` (the entries'
``AlgorithmSpec.table``), profiled like every other cell:

* **pairwise alltoall**: step ``k`` is the offset-``k`` matching with one
  block; one row per sampled offset, run once for every offset ``k = 1 …
  p − 1`` nearest to it (step costs vary smoothly in ``k``; sampling only
  affects the latency/load of the skipped offsets);
* **Bruck / Bine alltoall**: one row per phase with contiguous (packed)
  wire transfers and one whole-vector pack copy, plus a transfer-less
  unpack row; Bruck sends the blocks whose offset has bit ``k`` set
  ``2^k`` ranks on, Bine ``p / 2`` elements to its butterfly partner.

Every table's meta carries ``analytic: True``: its rows are a cost model,
not the lowering of the executor's schedule (the table oracle skips it by
that flag).  :data:`ANALYTIC_PROFILES` keeps this module's historical
name for the ``(collective, algorithm) → renderer`` map, because the
layer benchmark (``benchmarks/perf/shims.py``) binds its values.
"""

from __future__ import annotations

import numpy as np

from repro.core.butterfly import bine_butterfly_doubling

__all__ = [
    "ANALYTIC_PROFILES",
    "pairwise_alltoall_table",
    "bruck_alltoall_table",
    "bine_alltoall_table",
    "step_table",
]

#: offsets of the pairwise-alltoall step space profiled explicitly
PAIRWISE_SAMPLES = 32

_NO_TRANSFERS = (np.zeros(0, dtype=np.intp),) * 2 + (0, 1, False)


def step_table(meta: dict, steps, pack=False, reps=None):
    """The :class:`~repro.model.compiled.TransferTable` at ``n = p`` of
    ``steps``, step ``i`` as ``(src, dst, nelems, num_segments, has_op)``
    (two rank arrays, then values broadcast over its transfers), run
    ``reps[i]`` times back to back (default: once), each also copying the
    whole vector on every rank with ``pack``."""
    from repro.model.compiled import narrow, table_from_columns  # keeps registry imports light

    p, k = meta["p"], len(steps) if pack else 0
    rows = [st[0].size for st in steps]
    moves = [np.concatenate([np.zeros(0, dtype), *(narrow(np.broadcast_to(st[c], m), dtype)
                                                   for st, m in zip(steps, rows))])
             for c, dtype in enumerate([np.int32] * 4 + [bool])]
    copies = (np.tile(np.arange(p, dtype=np.int32), k), np.full(p * k, p, dtype=np.int32),
              np.zeros(p * k, dtype=bool))
    return table_from_columns(p, meta, [1] * len(steps) if reps is None else reps, rows,
                              [p if pack else 0] * len(steps), moves, copies)


def _meta(algorithm: str, p: int) -> dict:
    return {"collective": "alltoall", "algorithm": algorithm, "p": p, "n": p,
            "analytic": True}


def pairwise_alltoall_table(p: int):
    """Pairwise alltoall: one row per sampled offset, repeated for every
    offset nearest to it (ties go to the lower sample)."""
    ranks = np.arange(p)
    n = PAIRWISE_SAMPLES
    offsets = sorted({max(1, round(1 + k * (p - 2) / max(1, n - 1))) for k in range(n)})
    # offset k runs sample j when k <= (offsets[j] + offsets[j + 1]) / 2
    last = (np.asarray(offsets[:-1], dtype=np.int64) + offsets[1:]) // 2
    reps = np.diff(np.append(last, p - 1), prepend=0)
    steps = [(ranks, (ranks + k) % p, 1, 1, False) for k in offsets]
    return step_table(_meta("pairwise", p), steps, reps=reps)


def bruck_alltoall_table(p: int):
    """Bruck alltoall: packed sends (the rotation trick) + per-phase pack copy.

    Real Bruck implementations rotate/pack blocks so each phase transmits
    contiguously; we charge one buffer-wide local copy per phase for it.
    """
    ranks = np.arange(p)
    phases = range(max(1, (p - 1).bit_length()))
    # blocks whose offset has bit k set travel 2**k ranks in phase k
    steps = [
        (ranks, (ranks + (1 << k)) % p, int(((ranks >> k) & 1).sum()), 1, False)
        for k in phases
    ]
    return step_table(_meta("bruck", p), steps + [_NO_TRANSFERS], pack=True)


def bine_alltoall_table(p: int):
    """Bine alltoall with the paper's packing scheme (Sec. 4.4).

    "Each rank moves the data it wants to keep to the left of its buffer and
    the data it needs to send to the right, similar to the rotations in
    Bruck's algorithm" — contiguous wire transfers (1 segment) at Bine's
    short distances, one buffer-wide local copy per step, plus the final
    reorder permutation.  (The executor's exact builder instead tracks
    scattered slots — same bytes and routes, fragmented wire — so the
    correctness oracle and the cost profile describe the same algorithm with
    the two data-handling choices the paper discusses.)
    """
    ranks = np.arange(p)
    steps = [
        (ranks, np.asarray(row), p // 2, 1, False)
        for row in bine_butterfly_doubling(p).partners
    ]
    return step_table(_meta("bine", p), steps + [_NO_TRANSFERS], pack=True)


#: (collective, algorithm) → the registry entry's table renderer ``f(p)``
ANALYTIC_PROFILES = {
    ("alltoall", "pairwise"): pairwise_alltoall_table,
    ("alltoall", "bruck"): bruck_alltoall_table,
    ("alltoall", "bine"): bine_alltoall_table,
}
