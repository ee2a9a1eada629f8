"""The sweep's model arrays are stored at their declared widths and never wrap.

Transfer tables (the memo a campaign keeps for its whole run) hold ranks,
element counts and segment counts as int32; the CSR route table holds
ids, offsets and hop counts as int32 and link classes as int8, while pair
keys and link codes stay int64 because they pass 2**31 on large fabrics.
These tests pin the declared dtypes over every registry entry and the
torus catalog, check that narrowing raises instead of wrapping, and
profile a fabric whose pair keys pass 2**31 against the scalar oracle.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.analysis.sweep import ProfileCache
from repro.collectives.registry import iter_specs
from repro.collectives.torus import torus_algorithms
from repro.core.torus_opt import TorusShape
from repro.model.analytic import step_table
from repro.model import compiled
from repro.model.compiled import (
    CompiledRouteTable,
    lower_schedule,
    narrow,
    profile_table,
    transfer_table_for,
)
from repro.runtime.schedule import Schedule, Step, Transfer
from repro.systems import lumi
from repro.topology.base import LinkClass
from repro.topology.dragonfly import Dragonfly
from repro.topology.mapping import allocation_mapping, block_mapping
from scalar_oracle import oracle_profile

TABLE_DTYPES = {
    "step_off": np.int64,
    "step_reps": np.int64,
    "src": np.int32,
    "dst": np.int32,
    "nelems": np.int32,
    "num_segments": np.int32,
    "has_op": np.bool_,
    "local_off": np.int64,
    "local_rank": np.int32,
    "local_nelems": np.int32,
    "local_has_op": np.bool_,
}

CSR_DTYPES = {
    "keys": np.int64,
    "key_pid": np.int32,
    "codes": np.int64,
    "code_link": np.int32,
    "off": np.int32,
    "link": np.int32,
    "width": np.float64,
    "cls": np.int8,
    "sig": np.int32,
    "nic": np.bool_,
    "hops": np.int32,
}

TORUS_DIMS = ((4, 4), (2, 2, 4), (4, 4, 4))


def _cells(p: int | tuple):
    """``(name, spec, p)`` of every registry entry at rank count ``p``,
    or of every torus-catalog entry on the torus of dimensions ``p``."""
    if isinstance(p, tuple):
        shape = TorusShape(p)
        return [(f"torus/{c}/{n}", spec, shape.num_ranks)
                for (c, n), spec in sorted(torus_algorithms(shape).items())]
    return [(f"{spec.collective}/{spec.name}", spec, p) for spec in iter_specs()]


def _dtypes(obj, names) -> dict:
    return {name: getattr(obj, name).dtype for name in names}


@pytest.mark.parametrize("p", [16, 17, 64, *TORUS_DIMS],
                         ids=lambda p: "x".join(map(str, p)) if isinstance(p, tuple) else f"p{p}")
def test_table_and_route_columns_have_declared_dtypes(p):
    topo = lumi().build_topology()
    routes = CompiledRouteTable(topo)
    profiled = 0
    for name, spec, ranks in _cells(p):
        table = transfer_table_for(spec, ranks)
        if table is None:
            continue  # the entry rejects this rank count
        assert _dtypes(table, TABLE_DTYPES) == {
            k: np.dtype(v) for k, v in TABLE_DTYPES.items()
        }, name
        profile_table(table, topo, block_mapping(ranks), routes=routes)
        profiled += 1
    # non-powers of two thin the registry's field
    assert profiled >= {17: 8}.get(p, 12)
    assert _dtypes(routes._arrays, CSR_DTYPES) == {
        k: np.dtype(v) for k, v in CSR_DTYPES.items()
    }


def test_table_names_a_column_of_another_dtype():
    table = transfer_table_for(iter_specs()[0], 16)
    with pytest.raises(TypeError, match="'nelems' is int64, expected int32"):
        dataclasses.replace(table, nelems=table.nelems.astype(np.int64))
    with pytest.raises(TypeError, match="'step_reps' is int32, expected int64"):
        dataclasses.replace(table, step_reps=table.step_reps.astype(np.int32))


def test_over_range_nelems_raises():
    meta = {"collective": "allgather", "algorithm": "hand-made", "p": 2, "n": 2}
    ranks = np.arange(2)
    for nelems in (2**31, np.full(2, 2**31), np.array([1, -2**31 - 1])):
        with pytest.raises(OverflowError, match="out of bounds for int32"):
            step_table(meta, [(ranks, ranks[::-1], nelems, 1, False)])
    # the largest int32 count still fits
    table = step_table(meta, [(ranks, ranks[::-1], 2**31 - 1, 1, False)])
    assert table.nelems.tolist() == [2**31 - 1] * 2

    sched = Schedule(2, meta=meta)
    sched.add(Step((Transfer(0, 1, "vec", "vec", ((0, 2**31),), ((0, 2**31),)),)))
    with pytest.raises(OverflowError, match="out of bounds for int32"):
        lower_schedule(sched)


def test_narrow_never_wraps():
    assert narrow(np.array([0, 2**31 - 1, -2**31])).tolist() == [0, 2**31 - 1, -2**31]
    assert narrow(np.array([3, 1]), np.int8).dtype == np.int8
    with pytest.raises(OverflowError, match="value 128 out of bounds for int8"):
        narrow(np.array([1, 128]), np.int8)
    with pytest.raises(OverflowError, match="value -2147483649 out of bounds"):
        narrow(np.array([-2**31 - 1, 0]))
    same = np.arange(3, dtype=np.int32)
    assert narrow(same) is same
    assert narrow(np.zeros(0, dtype=np.int64)).dtype == np.int32


#: 400 groups x 128 nodes = 51,200 nodes: a pair key ``a * N + b`` passes
#: 2**31 once ``a`` > 41,943, and every Dragonfly link code is past N**2
BIG = Dragonfly(400, 128)
#: 64 distinct nodes above node 45,900, sorted: 8 clusters of 4 neighbours
#: 300 apart, then 32 nodes 7 apart (several to a group)
HIGH_NODES = sorted(
    [BIG.num_nodes - 1 - (k // 4) * 300 - k % 4 for k in range(32)]
    + [BIG.num_nodes - 5000 - 7 * k for k in range(32)]
)


@pytest.mark.parametrize("ppn", [1, 2])
def test_pair_keys_past_int32_match_scalar_oracle(ppn):
    p = 64
    mapping = allocation_mapping(HIGH_NODES[-(p // ppn):], ppn=ppn)
    preset = dataclasses.replace(lumi(), topology=lambda: BIG)
    cache = ProfileCache(preset, placement="block", mappings={(p, ppn): mapping})
    checked = 0
    for spec in iter_specs():
        got = cache.get(spec, p, ppn)
        assert got == oracle_profile(cache, spec, p, ppn), f"{spec.collective}/{spec.name}"
        checked += got is not None
    assert checked >= 30
    csr = cache.routes._arrays
    assert csr.keys[:-1].min() > 2**31  # every pair key is past int32
    assert csr.codes[:-1].max() > 2**31


def _unique_signatures(hops: np.ndarray, sig_ids: dict) -> np.ndarray:
    """The ``np.unique(hops, axis=0)`` interning the row codes replaced."""
    rows, row_of = np.unique(hops, axis=0, return_inverse=True)
    return np.array([
        sig_ids.setdefault(
            tuple(sorted((LinkClass.ALL[c], h) for c, h in enumerate(r) if h)),
            len(sig_ids),
        )
        for r in rows.tolist()
    ], np.int32)[row_of.reshape(-1)]


@pytest.mark.parametrize("seed", range(4))
def test_hop_signatures_equal_np_unique(seed):
    # batches grow one interning, as appends to a route table do
    rng = np.random.default_rng(seed)
    got_ids, want_ids = {}, {}
    for rows, top in ((1, 1), (300, 3), (50, 40), (0, 1)):
        hops = rng.integers(0, top, (rows, len(LinkClass.ALL)), dtype=np.int32)
        got = compiled._hop_signatures(hops, got_ids)
        assert got.dtype == np.int32
        assert np.array_equal(got, _unique_signatures(hops, want_ids))
    assert list(got_ids) == list(want_ids)


def test_hop_signature_codes_never_wrap():
    hops = np.full((2, len(LinkClass.ALL)), 2**16 - 1, dtype=np.int32)
    with pytest.raises(OverflowError, match="out of bounds for int64"):
        compiled._hop_signatures(hops, {})


def test_high_dragonfly_signatures_equal_np_unique(monkeypatch):
    """The 51,200-node Dragonfly's route table holds the signatures the
    ``np.unique`` interning gives."""
    p = 64
    mapping = allocation_mapping(HIGH_NODES[-p:])
    preset = dataclasses.replace(lumi(), topology=lambda: BIG)
    tables = []
    for hop_signatures in (compiled._hop_signatures, _unique_signatures):
        monkeypatch.setattr(compiled, "_hop_signatures", hop_signatures)
        cache = ProfileCache(preset, placement="block", mappings={(p, 1): mapping})
        for spec in iter_specs("allreduce"):
            cache.get(spec, p, 1)
        tables.append(cache.routes)
    got, want = tables
    assert got.sig_tuples == want.sig_tuples
    assert np.array_equal(got._arrays.sig, want._arrays.sig)
    assert got._arrays.sig.dtype == np.int32
