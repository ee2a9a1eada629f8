"""The per-rank segment renderer: the test suite's oracle for butterfly schedules.

:func:`repro.collectives.butterfly_collectives.flow_steps` computes a
step's wire segments for every owner in one NumPy pass over the per-step
set geometry it shares with the table renderer.  This module keeps the
path it replaced, which walks owners one at a time:

* :func:`resp_backend` — per-kind responsibility-set backends, each
  returning one rank's set as a sorted block array: the ν-mask closed form
  for ``bine-doubling`` / ``swing`` (Sec. 3.2.3), the hypercube closed
  forms for ``recdoub`` / ``rechalv``, an ``O(p log p)`` circular-range
  recursion for ``bine-halving`` and the generic recursion of
  :mod:`repro.core.coverage` for any other kind;
* :func:`sorted_runs` — maximal runs of a sorted block array;
* :func:`oracle_steps` — a :class:`~repro.collectives.butterfly_collectives.Flow`'s
  steps as arrays, segments computed owner by owner through those
  backends: ``Partition`` segments (one per block under
  ``Strategy.BLOCKS``) or one π window per set; :func:`oracle_render`
  builds them into a schedule;
* :func:`oracle_build` — a registry entry built with every flow's steps
  from :func:`oracle_steps` (patched in where the registry and the
  composed plans call ``flow_steps``), composed bcast/reduce halves
  included;
* :func:`flow_backed_specs` / :func:`schedule_mismatches` — the entries
  to compare and the comparison, transfer for transfer.

``tests/table_oracle.py --segments P`` runs the comparison at scale.
Import it from a test module like ``tests/scalar_oracle.py``.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np

from repro.collectives import composed, registry
from repro.collectives.butterfly_collectives import (
    _PI_SPACE,
    _local_arrays,
    _pi_array,
)
from repro.collectives.common import Strategy
from repro.core.bine_tree import nu_labels
from repro.core.blocks import Partition
from repro.core.butterfly import Butterfly
from repro.core.coverage import responsibility
from repro.runtime.errors import ScheduleError
from repro.runtime.schedule import ArrayPhase, ArrayStep, Schedule, schedule_from_arrays

__all__ = [
    "resp_backend",
    "sorted_runs",
    "oracle_steps",
    "oracle_render",
    "oracle_build",
    "flow_backed_specs",
    "schedule_mismatches",
]


# -- per-rank responsibility backends -----------------------------------------


def sorted_runs(arr: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs of consecutive values in a sorted int array."""
    n = arr.size
    if n == 0:
        return []
    if n <= 128:
        # small arrays: a plain scan beats the fixed cost of the array ops
        vals = arr.tolist()
        out = []
        lo = prev = vals[0]
        for v in vals[1:]:
            if v != prev + 1:
                out.append((lo, prev + 1))
                lo = v
            prev = v
        out.append((lo, prev + 1))
        return out
    breaks = np.nonzero(arr[1:] != arr[:-1] + 1)[0]
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [arr.size - 1]))
    # bulk .tolist() yields Python ints far faster than per-element int()
    return list(zip(arr[starts].tolist(), (arr[ends] + 1).tolist()))


def _bine_dd_backend(bf: Butterfly):
    p = bf.p
    nus = np.array(nu_labels(p), dtype=np.int64)
    base: dict[int, np.ndarray] = {}

    def resp(rank: int, step: int) -> np.ndarray:
        if step not in base:
            mask = (1 << step) - 1
            base[step] = np.nonzero((nus & mask) == 0)[0]
        b = base[step]
        if rank % 2 == 0:
            return np.sort((rank + b) % p)
        return np.sort((rank - b) % p)

    return resp


def _recdoub_backend(bf: Butterfly):
    p = bf.p

    def resp(rank: int, step: int) -> np.ndarray:
        mask = (1 << step) - 1
        all_b = np.arange(p)
        return all_b[(all_b ^ rank) & mask == 0]

    return resp


def _rechalv_backend(bf: Butterfly):
    p = bf.p
    s = p.bit_length() - 1

    def resp(rank: int, step: int) -> np.ndarray:
        width = s - step
        lo = (rank >> width) << width
        return np.arange(lo, lo + (1 << width))

    return resp


def _circular_backend(bf: Butterfly):
    """O(p log p) recursion over (start, length) circular ranges."""
    p, s = bf.p, bf.num_steps
    memo: dict[tuple[int, int], tuple[int, int]] = {}

    def crange(rank: int, step: int) -> tuple[int, int]:
        key = (rank, step)
        if key in memo:
            return memo[key]
        if step == s:
            out = (rank, 1)
        else:
            a_start, a_len = crange(rank, step + 1)
            b_start, b_len = crange(bf.partner(rank, step), step + 1)
            if (a_start + a_len) % p == b_start:
                out = (a_start, a_len + b_len)
            elif (b_start + b_len) % p == a_start:
                out = (b_start, a_len + b_len)
            else:
                raise ValueError(
                    f"{bf.kind}: responsibility sets not circular-contiguous "
                    f"at rank {rank} step {step}"
                )
        memo[key] = out
        return out

    def resp(rank: int, step: int) -> np.ndarray:
        start, length = crange(rank, step)
        return np.sort(np.arange(start, start + length) % p)

    return resp


def _generic_backend(bf: Butterfly):
    def resp(rank: int, step: int) -> np.ndarray:
        return np.array(sorted(responsibility(bf, rank, step)), dtype=np.int64)

    return resp


def resp_backend(bf: Butterfly):
    """Pick the fastest valid backend for ``bf``; returns resp(rank, step)."""
    if bf.kind in ("bine-doubling", "swing"):
        return _bine_dd_backend(bf)
    if bf.kind == "recdoub":
        return _recdoub_backend(bf)
    if bf.kind == "rechalv":
        return _rechalv_backend(bf)
    if bf.kind in ("bine-halving",):
        return _circular_backend(bf)
    return _generic_backend(bf)


# -- the per-owner schedule renderer ------------------------------------------


def _segments_for(part: Partition, blocks: np.ndarray, strategy: Strategy):
    """Wire segments for a sorted block array under a segmentation policy."""
    if strategy is Strategy.BLOCKS:
        return tuple(part.bounds(int(b)) for b in blocks)
    if part.n == part.p:
        # canonical build size: block index == element offset
        return tuple(sorted_runs(blocks))
    return tuple(part.segments(blocks.tolist()))


def _pi_window(pi_arr: np.ndarray, blocks: np.ndarray, block_size: int, ctx: str):
    """Single contiguous element segment covering π(blocks), or raise."""
    positions = pi_arr[blocks]
    lo = int(positions.min())
    hi = int(positions.max()) + 1
    if hi - lo != positions.size:
        raise ScheduleError(f"π window not contiguous for {ctx}")
    return ((lo * block_size, hi * block_size),)


def _set_segments(bf: Butterfly, n: int, strategy: Strategy):
    """``segs(rank, step)``: wire segments of ``resp(rank, step)``."""
    p, resp = bf.p, resp_backend(bf)
    if strategy in _PI_SPACE:
        pi, bs = _pi_array(p), n // p

        def segs(rank: int, step: int):
            ctx = f"{bf.kind} rank {rank} step {step}"
            return _pi_window(pi, resp(rank, step), bs, ctx)

        return segs
    part = Partition(n, p)
    return lambda rank, step: _segments_for(part, resp(rank, step), strategy)


def oracle_steps(flow):
    """``flow``'s steps as arrays, their segments computed owner by owner
    (a natural layout rejects a negative ``n`` on the call)."""
    bf, n, strategy = flow.bf, flow.n, flow.strategy
    p = bf.p
    bs = n // p
    resp_segs = _set_segments(bf, n, strategy)

    def steps():
        for st in flow.steps:
            owners = st.owner.tolist()
            if st.resp_step is None:
                segs = [((b * bs, (b + 1) * bs),) for b in owners]
            elif st.resp_step == 0:
                segs = [((0, n),)] * len(owners)
            else:
                segs = [resp_segs(o, st.resp_step) for o in owners]
            flat = np.array([seg for g in segs for seg in g], dtype=np.intp).reshape(-1, 2)
            counts = np.array([len(g) for g in segs], dtype=np.intp)
            yield ArrayStep(
                st.label,
                ArrayPhase.of(st.src, st.dst, counts, flat[:, 0], flat[:, 1], None,
                              st.buf, st.buf, st.op, st.tag),
                _local_arrays(st.pre, p, n),
                _local_arrays(st.post, p, n),
            )

    return steps()


def oracle_render(flow) -> Schedule:
    """``flow``'s :class:`Schedule`, built from :func:`oracle_steps`."""
    return schedule_from_arrays(flow.bf.p, flow.meta, oracle_steps(flow))


@contextmanager
def _rendering_with(steps):
    """Registry and composed entries take their flows' steps from ``steps``."""
    with mock.patch.object(registry, "flow_steps", steps), \
            mock.patch.object(composed, "flow_steps", steps):
        yield


def oracle_build(spec, p: int, n: int, root: int = 0) -> Schedule:
    """``spec.build(p, n, root)`` with every flow's steps from :func:`oracle_steps`."""
    with _rendering_with(oracle_steps):
        return spec.build(p, n, root)


def flow_backed_specs() -> list:
    """Registry entries whose schedules render from butterfly flows: the
    butterflies and the composed bcast/reduce (probed at p = 4)."""
    rendered = []

    def counting(flow):
        rendered.append(flow)
        return oracle_steps(flow)

    specs = []
    with _rendering_with(counting):
        for spec in registry.iter_specs():
            rendered.clear()
            try:
                spec.build(4, 4)
            except ValueError:
                continue
            if rendered:
                specs.append(spec)
    return specs


def _outcome(build):
    try:
        return build(), None
    except Exception as exc:  # the error is part of the rendering
        return None, (type(exc), str(exc))


def schedule_mismatches(spec, p: int, n: int, root: int = 0) -> list[str]:
    """Where ``spec.build(p, n, root)`` differs from :func:`oracle_build`:
    per step, its label, local copies, or the first differing transfer
    (ranks, buffers, segments, op and tag); or a differing error."""
    got, got_err = _outcome(lambda: spec.build(p, n, root))
    want, want_err = _outcome(lambda: oracle_build(spec, p, n, root))
    if got_err or want_err:
        return [] if got_err == want_err else [f"error {got_err} != {want_err}"]
    bad = [] if got.meta == want.meta else ["meta"]
    if len(got.steps) != len(want.steps):
        return bad + [f"{len(got.steps)} steps != {len(want.steps)}"]
    for j, (a, b) in enumerate(zip(got.steps, want.steps)):
        if a.label != b.label:
            bad.append(f"step {j} label")
        if a.pre != b.pre or a.post != b.post:
            bad.append(f"step {j} local copies")
        if len(a.transfers) != len(b.transfers):
            bad.append(f"step {j}: {len(a.transfers)} transfers != {len(b.transfers)}")
            continue
        for i, (x, y) in enumerate(zip(a.transfers, b.transfers)):
            if x != y:
                bad.append(f"step {j} transfer {i}: {x} != {y}")
                break
    return bad
