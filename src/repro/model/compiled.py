"""Compiled profiling + grid evaluation — the package's one profiler.

Three lowering stages turn the build → route → profile → evaluate pipeline
into array programs.  Each is bit-identical to an independent scalar
per-transfer reference kept in the test suite (``tests/scalar_oracle.py``;
asserted across the whole registry in ``tests/test_compiled_profile.py``):

* :class:`TransferTable` — a schedule flattened *once* per ``(algorithm,
  p)`` into structure-of-arrays, step-segmented columns (``src`` / ``dst``
  / ``nelems`` / ``num_segments`` / ``has_op`` plus the pre/post local-op
  columns, and a per-step repeat count).  :func:`lower_steps` derives it
  from an entry's step arrays' element and segment counts, without
  building the schedule or making a segment (a ring pass one row run
  ``p − 1`` times); :func:`lower_schedule` flattens a built
  :class:`~repro.runtime.schedule.Schedule` and is the oracle of every
  table made without one.  The table depends only on the schedule — not
  on the topology or rank mapping — so one lowering serves every system,
  placement and seed of a campaign.
  :func:`transfer_table_for` memoizes tables per catalog cell (a bounded
  FIFO :class:`repro.runtime.memo.Memo`, cleared by
  :func:`repro.runtime.memo.clear_memo_caches`): a sweep profiles one
  table under many systems and placements, while a verify grid runs each
  compiled plan once and does not memoize it
  (:func:`repro.collectives.verify.compiled_plan_for`).

* :class:`CompiledRouteTable` — one CSR route matrix per topology, grown
  in place (one append per row batch that sees new node pairs): per pair,
  offsets into flat link-id / width / class-id arrays, plus an interned
  hop-signature id and a ``uses_nic`` flag.  New pairs are routed in one
  :meth:`~repro.topology.base.Topology.route_arrays` call: Dragonfly and
  Dragonfly+ route in NumPy, while wrapped or degraded topologies
  (multi-rank nodes, :mod:`repro.faults`) go through their ``route()``
  loop.  Link codes are interned with ``sorted_unique`` / ``searchsorted``.
  :meth:`CompiledRouteTable.profile_rows` collapses a batch of table rows
  into one :class:`~repro.model.simulator.StepProfile` each with gathers,
  per-row ``np.bincount`` and one ``np.add.at`` — zero per-transfer
  Python.  Link-load contributions are expanded in transfer order over
  ``row * num_links + link`` keys, and ``np.add.at`` is unbuffered, so
  each row's link sums its loads in the same order a per-transfer loop
  would.

* :func:`evaluate_grid` — evaluates one profile at *all* message sizes of a
  campaign in a single NumPy pass.  Per-step structure arrays (max loads by
  class, injection/ejection/reduce/copy maxima) are cached on the profile
  the first time it is evaluated; each call then applies the per-step
  cost law elementwise over the size axis, with a fixed operation order
  (products left-associated, per-step terms summed in step order via a
  running ``np.cumsum`` — a prefix sum cannot be regrouped pairwise), so
  every column equals a one-size step loop bit for bit.

The sweep layer (:mod:`repro.analysis.sweep`) and the DES engine profile
every cell through these, alltoall's packed and sampled tables
(:mod:`repro.model.analytic`) included.

Column widths.  Tables and route tables live for a whole campaign, so
they store arrays at natural widths: table columns ``src`` / ``dst`` /
``nelems`` / ``num_segments`` / ``local_rank`` / ``local_nelems`` are
int32 (:class:`TransferTable` names any column of another dtype); route
columns ``key_pid`` / ``code_link`` / ``off`` / ``link`` / ``sig`` /
``hops`` are int32 and ``cls`` int8, but pair keys ``a * num_nodes + b``
and link codes stay int64 (they pass 2**31 on large Dragonflies).
Narrowing goes through :func:`narrow`, which raises instead of wrapping,
and every derived key (``row * p + rank``, ``row * num_links + link``,
latency-signature codes) starts from an explicitly int64 operand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro import obs
from repro.model.cost import CostParams
from repro.model.simulator import (
    PIPELINE_CHUNKS,
    ScheduleProfile,
    StepProfile,
)
from repro.runtime.compiled import sorted_unique
from repro.runtime.errors import ScheduleError
from repro.runtime.memo import Memo
from repro.runtime.schedule import (
    BlockRotation,
    EveryRank,
    Schedule,
    expand_runs,
    rank_error,
    schedule_validation,
)
from repro.topology.base import LinkClass, Topology
from repro.topology.mapping import RankMap

__all__ = [
    "TransferTable",
    "CompiledRouteTable",
    "GridMetrics",
    "narrow",
    "lower_schedule",
    "lower_steps",
    "table_from_columns",
    "step_latency",
    "transfer_table_for",
    "profile_table",
    "evaluate_grid",
]


# -- transfer tables ---------------------------------------------------------


def narrow(values, dtype=np.int32) -> np.ndarray:
    """``values`` as ``dtype``; an integer outside an integer ``dtype``'s
    range raises :class:`OverflowError` where ``astype`` would wrap it."""
    arr, dtype = np.asarray(values), np.dtype(dtype)
    if arr.dtype != dtype and arr.size and dtype.kind in "iu":
        info, lo, hi = np.iinfo(dtype), arr.min(), arr.max()
        if lo < info.min or hi > info.max:
            raise OverflowError(
                f"value {lo if lo < info.min else hi} out of bounds for {dtype}"
            )
    return arr.astype(dtype, copy=False)


#: the dtype every :class:`TransferTable` column must have
_COLUMN_DTYPES = {
    "step_off": np.dtype(np.intp), "step_reps": np.dtype(np.int64),
    "has_op": np.dtype(bool), "local_off": np.dtype(np.intp),
    "local_has_op": np.dtype(bool),
    **dict.fromkeys(("src", "dst", "nelems", "num_segments", "local_rank",
                     "local_nelems"), np.dtype(np.int32)),
}


@dataclass(frozen=True, eq=False)
class TransferTable:
    """A schedule's transfers/local ops as step-segmented SoA columns.

    Step ``i``'s transfers are rows ``step_off[i]:step_off[i+1]`` of the
    transfer columns; its local ops (``pre`` then ``post``, in order) are
    rows ``local_off[i]:local_off[i+1]`` of the local columns, and it runs
    ``step_reps[i]`` times back to back (a ring's ``p − 1`` identical
    steps are one row).  Everything the profiler needs, nothing the
    executor needs: segment lists are collapsed to ``nelems`` /
    ``num_segments`` at lowering time.  A column of another dtype than
    :data:`_COLUMN_DTYPES` declares raises :class:`TypeError`.
    """

    p: int
    n_build: int
    meta: dict = field(hash=False)
    #: (num_steps + 1,) row offsets into the transfer columns
    step_off: np.ndarray = field(default=None)
    #: (num_steps,) times each step row runs back to back
    step_reps: np.ndarray = field(default=None)
    src: np.ndarray = field(default=None)
    dst: np.ndarray = field(default=None)
    nelems: np.ndarray = field(default=None)
    num_segments: np.ndarray = field(default=None)
    has_op: np.ndarray = field(default=None)
    #: (num_steps + 1,) row offsets into the local-op columns
    local_off: np.ndarray = field(default=None)
    local_rank: np.ndarray = field(default=None)
    local_nelems: np.ndarray = field(default=None)
    local_has_op: np.ndarray = field(default=None)

    def __post_init__(self) -> None:
        for name, want in _COLUMN_DTYPES.items():
            if getattr(self, name).dtype != want:
                raise TypeError(f"TransferTable column {name!r} is "
                                f"{getattr(self, name).dtype}, expected {want}")

    @property
    def num_steps(self) -> int:
        return len(self.step_off) - 1

    @property
    def num_transfers(self) -> int:
        return int(self.src.size)


def table_from_columns(p: int, meta: dict, reps, rows, local_rows, moves,
                       copies) -> TransferTable:
    """The table of steps run ``reps[i]`` times with ``rows[i]`` transfer
    and ``local_rows[i]`` local rows, from the flat columns ``moves``
    (``src``, ``dst``, ``nelems``, ``num_segments``, ``has_op``) and
    ``copies`` (``local_rank``, ``local_nelems``, ``local_has_op``)."""
    src, dst, nelems, num_segments, has_op = moves
    local_rank, local_nelems, local_has_op = copies

    def offsets(counts) -> np.ndarray:
        return np.concatenate(([0], np.cumsum(counts, dtype=np.intp))).astype(np.intp)

    return TransferTable(
        p=p, n_build=meta.get("n", p), meta=dict(meta),
        step_off=offsets(rows), step_reps=np.asarray(reps, dtype=np.int64),
        src=narrow(src), dst=narrow(dst), nelems=narrow(nelems),
        num_segments=narrow(num_segments), has_op=narrow(has_op, bool),
        local_off=offsets(local_rows), local_rank=narrow(local_rank),
        local_nelems=narrow(local_nelems), local_has_op=narrow(local_has_op, bool),
    )


def lower_schedule(schedule: Schedule) -> TransferTable:
    """Flatten a schedule into a :class:`TransferTable` (one linear pass;
    one row per step, so every ``step_reps`` entry is 1).

    Example::

        >>> from repro.collectives.registry import build
        >>> t = lower_schedule(build("bcast", "bine", 8, 8))
        >>> t.num_steps, t.num_transfers
        (3, 7)
    """
    steps = schedule.steps
    moves = [(t.src, t.dst, t.nelems, t.num_segments, t.op is not None)
             for st in steps for t in st.transfers]
    copies = [(lc.rank, lc.nelems, lc.op is not None)
              for st in steps for lc in chain(st.pre, st.post)]
    return table_from_columns(
        schedule.p, schedule.meta, [1] * len(steps),
        [len(st.transfers) for st in steps], [len(st.pre) + len(st.post) for st in steps],
        np.array(moves, dtype=np.int64).reshape(-1, 5).T,
        np.array(copies, dtype=np.int64).reshape(-1, 3).T,
    )


def _step_runs(steps):
    """``(step, reps)`` pairs: a :class:`BlockRotation` of equal blocks is
    its step 0 run ``reps`` times, every other step (written out) once."""
    for st in steps:
        if not isinstance(st, BlockRotation):
            yield st, 1
        elif st.reps and np.ptp(np.diff(st.edges)) == 0:
            yield st.step(0), st.reps
        else:
            yield from ((step, 1) for step in st)


def lower_steps(stream) -> TransferTable:
    """The :class:`TransferTable` of a ``(meta, buffers, steps)`` stream,
    what an ``AlgorithmSpec.steps`` hook returns, without building it.

    It is ``lower_schedule`` of the steps' schedule, a rotation of equal
    blocks (a ring pass) one row run ``reps`` times, read from each
    phase's ``nelems`` and ``num_segments`` alone: no segment is made.
    Validation on or off, it raises what a validated build would for what
    those show (a transfer to self, a negative count, a rank out of
    range, ``p ≤ 0``); segments are checked where they are made.

    Example::

        >>> from repro.collectives.registry import spec_for
        >>> t = lower_steps(spec_for("allreduce", "ring").steps(8, 8, 0, "sum"))
        >>> t.num_steps, t.step_reps.tolist(), t.num_transfers
        (2, [7, 7], 16)
    """
    meta, _, steps = stream
    p = meta["p"]
    moves, copies, reps, rows, local_rows = [], [], [], [], []
    invalid = None

    def part(*cols, op) -> np.ndarray:  # one phase's columns, the last has_op
        return narrow(np.array((*cols, np.full(cols[0].size, op is not None))))

    for st, k in _step_runs(steps):
        ph = st.transfers
        reps.append(k)
        rows.append(0 if ph is None else ph.src.size)
        if ph is not None:
            if (ph.dst_segments is not None or (ph.src == ph.dst).any()
                    or (ph.nelems < 0).any()):
                ph.to_transfers({})  # raises what making them raises
            invalid = invalid or rank_error(ph.src, ph.dst, p, st.label)
            moves.append(part(ph.src, ph.dst, ph.nelems, ph.num_segments, op=ph.op))
        local_rows.append(0)
        for lc in st.pre + st.post:
            whole = isinstance(lc, EveryRank)
            lc = lc.copy if whole else lc
            ranks = np.arange(p) if whole else lc.src
            copies.append(part(ranks, np.broadcast_to(lc.nelems, ranks.shape), op=lc.op))
            local_rows[-1] += ranks.size
    if p <= 0:
        raise ScheduleError("schedule needs p > 0")
    if invalid is not None:
        raise invalid

    def columns(parts, width: int) -> tuple:  # one array per column, has_op bool
        *cols, ops = (np.concatenate([np.zeros(0, np.int32), *(part[k] for part in parts)])
                      for k in range(width))
        return *cols, ops.astype(bool)

    return table_from_columns(p, meta, reps, rows, local_rows, columns(moves, 5),
                              columns(copies, 3))


#: table memo — keyed per ``(spec, p)``; bounded FIFO so 4096-rank tables
#: cannot accumulate without limit.  ``None`` entries record constraint
#: misses (pow2/divisibility) so they are not re-attempted.  The bound must
#: exceed a full campaign's exact-cell count (the reference 3-collective
#: LUMI grid to p=4096 touches ~100 cells; the FIFO replays in sweep order,
#: so a bound below the working set would evict every entry before reuse).
_TABLE_CACHE = Memo("compiled._TABLE_CACHE", maxsize=512, counter="table")


def transfer_table_for(spec, p: int) -> TransferTable | None:
    """Cached :class:`TransferTable` for one catalog entry at ``p`` ranks.

    The first of ``spec.table(p)`` (alltoall's cost models),
    :func:`lower_steps` over ``spec.steps(p, spec.table_blocks * p, 0,
    "sum")``, or building at ``n = p`` and lowering (the bcast trees and
    trinaryx), inside one ``schedule.table`` span.  Schedule validation
    is off (the sweep's contract: it renders schedules the test suite
    already validates).  ``None`` when the entry rejects ``p``.  The table
    is topology- and mapping-independent, so every system / placement /
    seed of a campaign shares one entry.  The memo is keyed on the spec
    itself, not on its name: the torus catalog binds one spec per
    sub-torus, and sub-tori of one rank count (4x4x4 and 8x8) share
    names.  Eviction is FIFO at 512 entries;
    :func:`repro.runtime.memo.clear_memo_caches` drops everything.
    """

    def render() -> TransferTable | None:
        cell = {"collective": spec.collective, "algorithm": spec.name, "p": p}
        with obs.span("schedule.table", **cell), schedule_validation(False):
            try:
                if spec.table is not None:
                    return spec.table(p)
                if spec.steps is not None:
                    return lower_steps(spec.steps(p, spec.table_blocks * p, 0, "sum"))
                with obs.span("schedule.build", **cell):
                    schedule = spec.build(p, p)
            except ValueError:
                return None
            with obs.span("lower.schedule", **cell):
                return lower_schedule(schedule)

    return _TABLE_CACHE.get_or((spec, p), render)


# -- CSR route matrices ------------------------------------------------------

#: row-batch caps of :func:`profile_table`: a batch takes rows while it
#: holds at most this many transfers and this many dense (row, rank)
#: cells, so its temporaries stay the size of one large row; a row over
#: either cap is a batch of its own
_BATCH_TRANSFERS = 4096
_BATCH_CELLS = 65536

#: route-table class columns are ``LinkClass.ALL``; profiles list classes
#: by name, so their columns are read in name order
_NUM_CLASSES = len(LinkClass.ALL)
_BY_NAME = sorted(range(_NUM_CLASSES), key=LinkClass.ALL.__getitem__)
_NIC_CLASSES = np.array([c != LinkClass.INTRA for c in LinkClass.ALL])


@dataclass(frozen=True, eq=False)
class _CsrArrays:
    """An interned route set in CSR layout, plus its sorted key indexes."""

    #: sorted int64 pair keys ``a * num_nodes + b`` and the int32 pair id
    #: of each; an int64-max sentinel closes ``keys``, so every
    #: ``searchsorted`` position indexes a key
    keys: np.ndarray
    key_pid: np.ndarray
    #: sorted int64 topology link codes (sentinel-closed like ``keys``)
    #: and the int32 interned link id of each
    codes: np.ndarray
    code_link: np.ndarray
    #: (num_pairs + 1,) int32 offsets into the flat link columns
    off: np.ndarray
    link: np.ndarray   # int32 interned link ids
    width: np.ndarray  # float64 parallel physical-link widths
    cls: np.ndarray    # int8 link class ids (indices into LinkClass.ALL)
    #: per-pair hop-signature id / NIC flag / dense per-class hop counts
    sig: np.ndarray
    nic: np.ndarray
    hops: np.ndarray   # (num_pairs, len(LinkClass.ALL)) int32


def _row_batches(step_off: np.ndarray, p: int):
    """``(r0, r1)`` row ranges of a table within the batch caps."""
    max_rows = max(1, _BATCH_CELLS // max(p, 1))
    r0 = taken = 0
    for r, n_t in enumerate(np.diff(step_off).tolist()):
        if r > r0 and (taken + n_t > _BATCH_TRANSFERS or r - r0 >= max_rows):
            yield r0, r
            r0, taken = r, 0
        taken += n_t
    if step_off.size > 1:
        yield r0, step_off.size - 1


def _hop_signatures(hops: np.ndarray, sig_ids: dict) -> np.ndarray:
    """Each row of ``hops`` (hop counts per link class) as its id in
    ``sig_ids``, which interns unseen rows in ascending order of their
    int64 codes (column 0 most significant, base ``hops.max() + 1``)."""
    base, width = int(hops.max(initial=0)) + 1, hops.shape[1]
    if base ** width > 2**63:
        raise OverflowError(f"hop signature codes of base {base} out of bounds for int64")
    powers = base ** np.arange(width - 1, -1, -1, dtype=np.int64)
    code = hops.astype(np.int64) @ powers
    codes = sorted_unique(code)
    rows = codes[:, None] // powers % base
    keys = (tuple(sorted((LinkClass.ALL[c], h) for c, h in enumerate(r) if h))
            for r in rows.tolist())
    sig = np.array([sig_ids.setdefault(key, len(sig_ids)) for key in keys], np.int32)
    return sig[np.searchsorted(codes, code)]


class CompiledRouteTable:
    """Interned minimal routes for one topology, in CSR layout.

    The table only grows: :meth:`resolve` looks node pairs up in the
    sorted key column, routes the unseen ones in one
    :meth:`~repro.topology.base.Topology.route_arrays` batch (so each pair
    is routed exactly once per table) and appends their rows once, so
    ``_arrays`` is always current and is never rebuilt.
    :meth:`profile_rows` is the one kernel, fed batches of table rows by
    :func:`profile_table`, which takes each rank map's node and group
    arrays from :meth:`rank_arrays`.
    """

    def __init__(self, topo: Topology):
        self.topo = topo
        self._num_nodes = topo.num_nodes
        #: per-pair hop signatures, interned: ``sig_tuples[sig_id]`` is the
        #: sorted ``(class, hop_count)`` tuple a step folds into latency
        #: signatures
        self.sig_tuples: list[tuple] = []
        self._sig_ids: dict[tuple, int] = {}
        #: per rank map: its (node, group) arrays under this topology
        self._rank_arrays: dict[RankMap, tuple[np.ndarray, np.ndarray]] = {}
        none = np.zeros(0, dtype=np.int32)
        closed = np.array([np.iinfo(np.int64).max])
        self._arrays = _CsrArrays(
            keys=closed, key_pid=none, codes=closed, code_link=none,
            off=np.zeros(1, dtype=np.int32), link=none, width=np.zeros(0),
            cls=np.zeros(0, dtype=np.int8), sig=none, nic=np.zeros(0, dtype=bool),
            hops=np.zeros((0, _NUM_CLASSES), dtype=np.int32),
        )

    def rank_arrays(self, rank_map: RankMap) -> tuple[np.ndarray, np.ndarray]:
        """Each rank's node and group under this topology as int64 arrays,
        made once per map (the groups cost a ``group_of`` call a rank)."""
        arrays = self._rank_arrays.get(rank_map)
        if arrays is None:
            arrays = self._rank_arrays[rank_map] = (
                np.asarray(rank_map.nodes, dtype=np.int64),
                np.asarray(rank_map.groups(self.topo), dtype=np.int64),
            )
        return arrays

    def resolve(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Pair ids for node arrays ``a → b``, interning unseen pairs."""
        keys = a * self._num_nodes + b
        pos = np.searchsorted(self._arrays.keys, keys)
        unseen = self._arrays.keys[pos] != keys
        if unseen.any():
            self._append(sorted_unique(keys[unseen]))
            pos = np.searchsorted(self._arrays.keys, keys)
        return self._arrays.key_pid[pos]

    def _append(self, new_keys: np.ndarray) -> None:
        """Route the sorted, unseen ``new_keys`` and append their rows."""
        n = self._num_nodes
        routes = self.topo.route_arrays(new_keys // n, new_keys % n)
        old = self._arrays
        # intern the link codes this batch sees first
        codes = sorted_unique(routes.code)
        codes = codes[old.codes[np.searchsorted(old.codes, codes)] != codes]
        at = np.searchsorted(old.codes, codes)
        all_codes = np.insert(old.codes, at, codes)
        code_link = np.insert(
            old.code_link, at, narrow(np.arange(codes.size) + old.code_link.size)
        )
        m = new_keys.size
        hops = narrow(np.bincount(
            np.repeat(np.arange(m), routes.counts) * _NUM_CLASSES + routes.cls,
            minlength=m * _NUM_CLASSES,
        )).reshape(m, _NUM_CLASSES)
        sig = _hop_signatures(hops, self._sig_ids)
        self.sig_tuples = list(self._sig_ids)

        at = np.searchsorted(old.keys, new_keys)
        self._arrays = _CsrArrays(
            keys=np.insert(old.keys, at, new_keys),
            key_pid=np.insert(old.key_pid, at, narrow(np.arange(m) + old.sig.size)),
            codes=all_codes,
            code_link=code_link,
            off=np.concatenate(
                [old.off, narrow(old.off[-1] + np.cumsum(routes.counts))]
            ),
            link=np.concatenate(
                [old.link, code_link[np.searchsorted(all_codes, routes.code)]]
            ),
            width=np.concatenate([old.width, routes.width]),
            cls=np.concatenate([old.cls, narrow(routes.cls, np.int8)]),
            sig=np.concatenate([old.sig, sig]),
            nic=np.concatenate([old.nic, hops[:, _NIC_CLASSES].any(axis=1)]),
            hops=np.vstack([old.hops, hops]),
        )

    def profile_rows(
        self,
        table: TransferTable,
        r0: int,
        r1: int,
        node_arr: np.ndarray,
        group_arr: np.ndarray,
    ) -> list[StepProfile]:
        """Table rows ``r0:r1`` → one :class:`StepProfile` each, in one
        vectorized pass over the rows' transfers and local ops.

        Bit-identical to a per-transfer scalar fold of each row (the
        tests' oracle): integer aggregates are per-row ``np.bincount``
        sums, exact in any order (all magnitudes sit far below 2**53); the
        only true-float quantity — per-link load, where widths divide
        unevenly — is one unbuffered ``np.add.at`` over
        ``row * num_links + link`` keys, expanded in transfer order, so
        each row's link sums its loads in the order a per-transfer loop
        would.
        """
        p = node_arr.size
        rows = r1 - r0
        s0, s1 = table.step_off[r0], table.step_off[r1]
        l0, l1 = table.local_off[r0], table.local_off[r1]
        src, dst = table.src[s0:s1], table.dst[s0:s1]
        ne, nsegs = table.nelems[s0:s1], table.num_segments[s0:s1]
        has_op = table.has_op[s0:s1]
        # int64 row ids: every key derived from them below is int64
        row = np.repeat(np.arange(rows, dtype=np.int64),
                        np.diff(table.step_off[r0:r1 + 1]))
        lrow = np.repeat(np.arange(rows, dtype=np.int64),
                         np.diff(table.local_off[r0:r1 + 1]))
        lkey = lrow * p + table.local_rank[l0:l1]
        lne = table.local_nelems[l0:l1]
        lhas_op = table.local_has_op[l0:l1]

        a, b = node_arr[src], node_arr[dst]
        pids = self.resolve(a, b)
        csr = self._arrays
        nic = csr.nic[pids]

        # unique (row, hop-signature, segment-count) latency signatures
        n_sig = max(len(self.sig_tuples), 1)
        seg_base = int(nsegs.max()) + 1 if src.size else 1
        codes = sorted_unique((row * n_sig + csr.sig[pids]) * seg_base + nsegs)
        sig_row, code = np.divmod(codes, n_sig * seg_base)
        signatures: list[list] = [[] for _ in range(rows)]
        for r, sig, segs in zip(
            sig_row.tolist(), (code // seg_base).tolist(),
            (code % seg_base).tolist(),
        ):
            signatures[r].append((self.sig_tuples[sig], segs))

        # element·hop products per (row, class), and which classes occur
        hops_t = csr.hops[pids]
        cells = (row[:, None] * _NUM_CLASSES + np.arange(_NUM_CLASSES)).ravel()
        n_cells = rows * _NUM_CLASSES
        class_elems = np.bincount(
            cells, weights=np.multiply(ne[:, None], hops_t, dtype=np.float64).ravel(),
            minlength=n_cells,
        ).astype(np.int64).reshape(rows, _NUM_CLASSES)
        class_seen = np.bincount(
            cells[hops_t.ravel() > 0], minlength=n_cells
        ).reshape(rows, _NUM_CLASSES) > 0

        # per-(row, link) loads: expand each transfer's route rows in
        # transfer order — the concatenation a per-transfer loop builds —
        # and accumulate with one unbuffered np.add.at; then the peak load
        # per (row, class)
        counts = csr.off[pids + 1] - csr.off[pids]
        flat = expand_runs(csr.off[pids], counts)
        n_links = csr.code_link.size
        row_link, local = np.unique(
            np.repeat(row, counts) * n_links + csr.link[flat],
            return_inverse=True,
        )
        loads = np.zeros(row_link.size, dtype=np.float64)
        np.add.at(loads, local, np.repeat(ne, counts) / csr.width[flat])
        link_cls = np.zeros(row_link.size, dtype=np.intp)
        link_cls[local] = csr.cls[flat]
        peak = np.zeros(n_cells, dtype=np.float64)
        np.maximum.at(peak, row_link // n_links * _NUM_CLASSES + link_cls, loads)
        peak = peak.reshape(rows, _NUM_CLASSES)

        # per-(row, rank) tallies; the per-row maximum of each
        def row_max(keys, weights=None) -> list[int]:
            dense = np.bincount(keys, weights=weights, minlength=rows * p)
            return dense.reshape(rows, p).max(axis=1).astype(np.int64).tolist()

        skey, dkey = row * p + src, row * p + dst
        copy = ~nic & (a == b)
        msgs = row_max(np.concatenate([skey, dkey]))
        inj = row_max(skey[nic], ne[nic])
        ej = row_max(dkey[nic], ne[nic])
        max_copy = row_max(
            np.concatenate([dkey[copy], lkey]), np.concatenate([ne[copy], lne])
        )
        max_red = row_max(
            np.concatenate([dkey[has_op], lkey[lhas_op]]),
            np.concatenate([ne[has_op], lne[lhas_op]]),
        )
        crosses = group_arr[src] != group_arr[dst]
        global_elems = np.bincount(
            row[crosses], weights=ne[crosses], minlength=rows
        ).astype(np.int64).tolist()

        names = LinkClass.ALL
        out = []
        for r, (pk, elems, seen) in enumerate(
            zip(peak.tolist(), class_elems.tolist(), class_seen.tolist())
        ):
            out.append(StepProfile(
                lat_signatures=tuple(sorted(signatures[r])),
                max_link_load=tuple(
                    (names[c], pk[c]) for c in _BY_NAME if pk[c] > 0
                ),
                max_inj=inj[r],
                max_ej=ej[r],
                max_reduce=max_red[r],
                max_copy=max_copy[r],
                global_elems=global_elems[r],
                class_elems=tuple(
                    (names[c], elems[c]) for c in _BY_NAME if seen[c]
                ),
                max_node_msgs=msgs[r],
            ))
        return out


def profile_table(
    table: TransferTable,
    topo: Topology,
    rank_map: RankMap,
    *,
    routes: CompiledRouteTable | None = None,
) -> ScheduleProfile:
    """Route every transfer of a lowered schedule and collapse each step.

    Rows are profiled in batches (:meth:`CompiledRouteTable.profile_rows`)
    and each row's ``StepProfile`` repeated ``step_reps`` times.  Pass
    ``routes`` to share one CSR route matrix across many profiles of the
    same topology (the sweep layer does).
    """
    if rank_map.num_ranks != table.p:
        raise ValueError(
            f"mapping covers {rank_map.num_ranks} ranks, schedule needs {table.p}"
        )
    if routes is None:
        routes = CompiledRouteTable(topo)
    elif routes.topo is not topo:
        raise ValueError("routes table was built for a different topology")
    node_arr, group_arr = routes.rank_arrays(rank_map)
    reps = table.step_reps.tolist()
    steps = []
    for r0, r1 in _row_batches(table.step_off, node_arr.size):
        rows = routes.profile_rows(table, r0, r1, node_arr, group_arr)
        for step, k in zip(rows, reps[r0:r1]):
            steps.extend([step] * k)
    return ScheduleProfile(
        p=table.p,
        n_build=table.n_build,
        meta=dict(table.meta),
        steps=tuple(steps),
    )


# -- grid evaluation ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _EvalTables:
    """Per-step structure arrays a profile needs for grid evaluation.

    Everything here is params-independent, so the tables are computed once
    per profile (cached on the profile object) and reused across campaigns
    that evaluate the same profile under different cost models.
    """

    inj: np.ndarray   # (S,) int64 per-step max injection (elements)
    ej: np.ndarray
    red: np.ndarray
    cpy: np.ndarray
    #: per link class: (step-index array, load array) COO columns
    load_by_class: tuple[tuple[str, np.ndarray, np.ndarray], ...]


@dataclass(frozen=True, eq=False)
class GridMetrics:
    """Evaluation result for one profile across a whole size grid.

    Column ``j`` equals the evaluation at ``n_elems[j]`` alone bit for
    bit.
    """

    time: np.ndarray
    global_bytes: np.ndarray
    bytes_by_class: dict


def _eval_tables(profile: ScheduleProfile) -> _EvalTables:
    tabs = profile.__dict__.get("_eval_tables")
    if tabs is not None:
        return tabs
    steps = profile.steps
    s = len(steps)
    inj = np.fromiter((st.max_inj for st in steps), np.int64, s)
    ej = np.fromiter((st.max_ej for st in steps), np.int64, s)
    red = np.fromiter((st.max_reduce for st in steps), np.int64, s)
    cpy = np.fromiter((st.max_copy for st in steps), np.int64, s)
    by_class: dict[str, tuple[list[int], list[float]]] = {}
    for i, st in enumerate(steps):
        for cls, load in st.max_link_load:
            idx, vals = by_class.setdefault(cls, ([], []))
            idx.append(i)
            vals.append(load)
    load_by_class = tuple(
        (cls, np.asarray(idx, dtype=np.intp), np.asarray(vals, dtype=np.float64))
        for cls, (idx, vals) in sorted(by_class.items())
    )
    tabs = _EvalTables(inj=inj, ej=ej, red=red, cpy=cpy, load_by_class=load_by_class)
    object.__setattr__(profile, "_eval_tables", tabs)
    return tabs


def step_latency(step: StepProfile, params: CostParams) -> float:
    """One step's latency term — the slowest ``(hops, segments)``
    signature plus per-message CPU cost — for :func:`evaluate_grid` and
    the DES engine alike, so the two agree bit for bit."""
    lat = 0.0
    for hops, segs in step.lat_signatures:
        t = params.alpha + max(0, segs - 1) * params.seg_overhead
        for cls, h in hops:
            t += h * params.alpha_hop.get(cls, 0.0)
        lat = max(lat, t)
    return lat + max(0, step.max_node_msgs - 2) * params.msg_cpu


def _lat_array(profile: ScheduleProfile, params: CostParams) -> np.ndarray:
    """Per-step latency terms (size-invariant, so computed once per call).

    Identical step objects (a repeated table row) are evaluated once.
    """
    lat = np.empty(len(profile.steps), dtype=np.float64)
    memo: dict[int, float] = {}
    for i, step in enumerate(profile.steps):
        cached = memo.get(id(step))
        if cached is None:
            cached = memo[id(step)] = step_latency(step, params)
        lat[i] = cached
    return lat


def _seq_sum(term: np.ndarray, m: int) -> np.ndarray:
    """Sum step rows in step order — the scalar loop's accumulation order.

    ``np.add.reduce``/``np.sum`` may regroup a reduction pairwise (which
    changes the last ulp), but a running prefix sum cannot:
    ``cumsum[i] = cumsum[i-1] + term[i]`` by definition, so the last row
    equals ``total += term`` applied step by step, bit for bit.
    """
    if term.shape[0] == 0:
        return np.zeros(m, dtype=np.float64)
    return np.cumsum(term, axis=0)[-1]


def evaluate_grid(
    profile: ScheduleProfile, params: CostParams, n_elems
) -> GridMetrics:
    """Time and traffic for every vector size of ``n_elems`` in one pass.

    Two schedule-level meta flags refine the step-sum law:

    * ``segmented`` — reduction compute overlaps transport within a step
      (Sec. 5.2.2);
    * ``pipelined`` — successive steps forward the *same* data (chain/tree
      pipelines like Trinaryx): bandwidth terms overlap across steps, so
      the total pays the per-step latency sum but only
      ``max_bw · (1 + (steps − 1)/chunks)`` of bandwidth;
    * ``ports_used`` — how many NICs the schedule can drive concurrently
      (App. D.4 multiported schedules); capped by the machine's ports.

    Column ``j`` of every output equals a scalar step loop at
    ``n_elems[j]`` bit for bit (each arithmetic step is applied
    elementwise in the loop's order), so a size's result does not depend
    on the rest of the grid.  The per-step structure arrays are cached on
    the profile, so evaluating a second size grid costs only the NumPy
    pass.

    Example::

        >>> from repro.collectives.registry import build
        >>> from repro.systems import lumi
        >>> from repro.topology.mapping import block_mapping
        >>> preset = lumi()
        >>> prof = profile_table(lower_schedule(build("bcast", "bine", 8, 8)),
        ...                      preset.build_topology(), block_mapping(8))
        >>> g = evaluate_grid(prof, preset.params, [8.0, 1024.0])
        >>> bool(g.time[1] == evaluate_grid(prof, preset.params, 1024.0).time[0])
        True
    """
    n_arr = np.atleast_1d(np.asarray(n_elems, dtype=np.float64))
    scale = n_arr / profile.n_build
    m = scale.size
    b = params.itemsize
    s = len(profile.steps)
    tabs = _eval_tables(profile)
    ports = min(params.ports, int(profile.meta.get("ports_used", 1)))

    bw = np.zeros((s, m), dtype=np.float64)
    for cls, step_idx, loads in tabs.load_by_class:
        beta = params.beta.get(cls, 0.0)
        np.maximum.at(bw, step_idx, loads[:, None] * scale * b * beta)
    bw = np.maximum(bw, tabs.inj[:, None] * scale * b * params.inj_beta / ports)
    bw = np.maximum(bw, tabs.ej[:, None] * scale * b * params.inj_beta / ports)
    comp = tabs.red[:, None] * scale * b * params.reduce_beta
    copy = tabs.cpy[:, None] * scale * b * params.copy_beta
    lat = _lat_array(profile, params)[:, None]

    if profile.meta.get("pipelined"):
        total = _seq_sum(lat + copy, m)
        step_bw = bw + comp
        max_step_bw = (
            np.maximum.reduce(step_bw, axis=0) if s else np.zeros(m)
        )
        num_steps = max(1, s)
        total = total + max_step_bw * (1 + (num_steps - 1) / PIPELINE_CHUNKS)
    elif profile.segmented:
        total = _seq_sum(lat + np.maximum(bw, comp) + copy, m)
    else:
        total = _seq_sum(lat + bw + comp + copy, m)

    return GridMetrics(
        time=total,
        global_bytes=profile.total_global_elems() * scale * b,
        bytes_by_class={
            cls: e * scale * b for cls, e in profile.total_class_elems().items()
        },
    )
