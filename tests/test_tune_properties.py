"""Property/metamorphic tests for the algorithm-selection oracle.

Every test draws randomized-but-seeded record grids from
``tests/strategies.py`` and checks an *invariant*, not an example:

* building a decision table is order-invariant over its input records
  (byte-identical JSON, even with exact-tie cells);
* every table winner equals the argmin over its source records and the
  Fig. 9a heatmap winner (:func:`best_algorithm_cells`) for that cell;
* ``select_algorithms`` (vectorized) equals a ``select_algorithm`` loop
  element for element, under every off-grid policy;
* a tampered artifact raises :class:`TuneArtifactError` and exits the
  CLI with code 7; off-grid ``exact`` queries raise
  :class:`TuneQueryError`, ``refuse`` returns ``None``, and ``nearest``
  snaps to the log2-closest grid cell (ties down);
* the same discipline holds one layer down: ``records_digest`` is
  order-invariant and ``diff_record_sets(a, shuffle(a))`` is clean.
"""

from __future__ import annotations

import json
import math

import pytest
from strategies import (
    grid_axes,
    queries_for,
    record_grid,
    rng_for,
    shuffled,
)

from repro.analysis.summarize import best_algorithm_cells
from repro.analysis.sweep import SweepRecord
from repro.cli.main import main
from repro.report.artifacts import records_digest
from repro.report.diff import diff_record_sets, record_set_from_records
from repro.runtime.errors import TuneArtifactError, TuneQueryError
from repro.tune import (
    DecisionTable,
    build_decision_table,
    load_table,
    lookup,
    select_algorithm,
    select_algorithms,
)

SEEDS = (0, 1, 2, 3)


class TestBuildInvariants:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_order_invariant_bytes(self, seed):
        rng = rng_for(seed)
        records = record_grid(
            rng, collectives=("bcast", "allreduce"), faults=("none", "f1"),
            ppns=(1, 2), tie_fraction=0.5,
        )
        reference = build_decision_table(records, name="t", source="s")
        for k in range(3):
            again = build_decision_table(
                shuffled(records, rng_for(1000 * seed + k)),
                name="t", source="s",
            )
            assert again.to_json() == reference.to_json()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_winner_is_argmin_and_heatmap_winner(self, seed):
        rng = rng_for(10 + seed)
        records = record_grid(rng, collectives=("bcast", "alltoall"))
        table = build_decision_table(records, name="t", source="s")
        for sub in table.tables:
            own = [
                r for r in records
                if (r.system, r.faults, r.collective, r.ppn) == sub.key
            ]
            heatmap = best_algorithm_cells(own, sub.collective)
            for i, p in enumerate(sub.p_grid):
                for j, nb in enumerate(sub.n_grid):
                    cell = [r for r in own if (r.p, r.n_bytes) == (p, nb)]
                    assert cell, "cross-product grid cannot have holes"
                    argmin = min(cell, key=lambda r: (r.time, r.algorithm))
                    assert sub.winner[i][j] == argmin.algorithm
                    assert sub.winner[i][j] == heatmap[(p, nb)][0].algorithm
                    assert sub.family[i][j] == argmin.family

    def test_margin_is_runner_up_ratio(self):
        records = [
            SweepRecord("lumi", "bcast", "a", "bine", 8, 64, 2.0, 1.0),
            SweepRecord("lumi", "bcast", "b", "ring", 8, 64, 3.0, 1.0),
            SweepRecord("lumi", "bcast", "c", "bruck", 8, 64, 7.0, 1.0),
        ]
        table = build_decision_table(records, name="t", source="s")
        assert table.tables[0].winner == (("a",),)
        assert table.tables[0].margin == ((1.5,),)

    def test_single_algorithm_cell_has_no_margin(self):
        records = [SweepRecord("lumi", "bcast", "a", "bine", 8, 64, 2.0, 1.0)]
        table = build_decision_table(records, name="t", source="s")
        assert table.tables[0].margin == ((None,),)

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_fault_label_keys_distinct_subtables(self, seed):
        rng = rng_for(20 + seed)
        records = record_grid(rng, faults=("none", "links2-seed13"))
        table = build_decision_table(records, name="t", source="s")
        faults = {sub.faults for sub in table.tables}
        assert faults == {"none", "links2-seed13"}
        # the pristine and degraded sub-tables answer independently
        sub_none = [t for t in table.tables if t.faults == "none"][0]
        sub_deg = [t for t in table.tables if t.faults != "none"][0]
        assert sub_none.key != sub_deg.key
        assert sub_none.p_grid == sub_deg.p_grid


class TestArtifactIntegrity:
    def _table(self, seed=0):
        return build_decision_table(
            record_grid(rng_for(30 + seed)), name="t", source="s"
        )

    def test_round_trip(self):
        table = self._table()
        again = DecisionTable.from_dict(json.loads(table.to_json()))
        assert again.to_json() == table.to_json()

    @pytest.mark.parametrize("corrupt", [
        lambda d: d.update(record_count=d["record_count"] + 1),
        lambda d: d.update(records_digest="0" * 16),
        lambda d: d["tables"][0].update(system="other"),
        lambda d: d["tables"][0]["winner"][0].__setitem__(0, "evil"),
        lambda d: d.update(digest="deadbeefdeadbeef"),
    ])
    def test_any_payload_edit_is_caught(self, corrupt):
        data = self._table().to_dict()
        corrupt(data)
        with pytest.raises(TuneArtifactError, match="digest mismatch"):
            DecisionTable.from_dict(data)

    def test_wrong_schema_and_version(self):
        data = self._table().to_dict()
        with pytest.raises(TuneArtifactError, match="not a decision-table"):
            DecisionTable.from_dict({**data, "schema": "something/else"})
        rev = {**data, "version": 99}
        with pytest.raises(TuneArtifactError, match="version"):
            DecisionTable.from_dict(rev)

    def test_provenance_gate(self):
        rng = rng_for(31)
        records = record_grid(rng)
        table = build_decision_table(records, name="t", source="s")
        table.verify_against_records(shuffled(records, rng))  # order-free
        with pytest.raises(TuneArtifactError, match="rebuild the table"):
            table.verify_against_records(records[:-1])

    def test_corrupted_artifact_exits_7(self, tmp_path, capsys):
        data = self._table().to_dict()
        data["record_count"] += 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code = main(["tune", str(path)])
        assert code == 7
        assert "TuneArtifactError" in capsys.readouterr().err

    def test_load_table_rejects_non_table_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(TuneArtifactError):
            load_table(path)


class TestServing:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("policy", ["exact", "nearest", "refuse"])
    def test_batch_equals_scalar_loop(self, seed, policy):
        rng = rng_for(40 + seed)
        records = record_grid(rng, collectives=("bcast",))
        table = build_decision_table(records, name="t", source="s")
        off = policy != "exact"
        points = queries_for(records, rng, 64, off_grid=off)
        points += queries_for(records, rng, 64)  # always some on-grid hits
        ps = [p for p, _ in points]
        ns = [nb for _, nb in points]
        batch = select_algorithms(
            table, "bcast", "lumi", ps, 1, ns, policy=policy
        )
        assert len(batch) == len(points)
        for k, (p, nb) in enumerate(points):
            scalar = select_algorithm(
                table, "bcast", "lumi", p, 1, nb, policy=policy
            )
            assert batch[k] == scalar

    def test_exact_raises_off_grid_refuse_returns_none(self):
        records = record_grid(rng_for(50))
        table = build_decision_table(records, name="t", source="s")
        p_grid = sorted({r.p for r in records})
        off_p = p_grid[0] + 1
        assert off_p not in p_grid
        nb = records[0].n_bytes
        with pytest.raises(TuneQueryError, match="off the table grid"):
            select_algorithm(table, "bcast", "lumi", off_p, 1, nb)
        assert select_algorithm(
            table, "bcast", "lumi", off_p, 1, nb, policy="refuse"
        ) is None

    def test_unknown_subtable(self):
        table = build_decision_table(record_grid(rng_for(51)), name="t", source="s")
        with pytest.raises(TuneQueryError, match="no sub-table"):
            select_algorithm(table, "bcast", "mars", 8, 1, 64)
        assert select_algorithm(
            table, "bcast", "mars", 8, 1, 64, policy="refuse"
        ) is None
        # batch path agrees
        assert select_algorithms(
            table, "bcast", "mars", [8, 8], 1, [64, 64], policy="refuse"
        ) == [None, None]

    def test_unknown_policy_rejected(self):
        table = build_decision_table(record_grid(rng_for(52)), name="t", source="s")
        with pytest.raises(ValueError, match="unknown policy"):
            select_algorithm(table, "bcast", "lumi", 8, 1, 64, policy="best")

    @pytest.mark.parametrize("seed", SEEDS)
    def test_nearest_snaps_to_log2_closest(self, seed):
        rng = rng_for(60 + seed)
        records = record_grid(rng)
        table = build_decision_table(records, name="t", source="s")
        p_grid = sorted({r.p for r in records})
        n_grid = sorted({r.n_bytes for r in records})

        def closest(value, grid):
            # ties snap down: minimal log2 distance, lower value preferred
            return min(grid, key=lambda g: (abs(math.log2(value) - math.log2(g)), g))

        for p, nb in queries_for(records, rng, 50, off_grid=True):
            sel = lookup(table, "bcast", "lumi", p, 1, nb, policy="nearest")
            assert sel is not None
            assert sel.p == closest(p, p_grid)
            assert sel.n_bytes == closest(nb, n_grid)
            assert sel.exact == (p in p_grid and nb in n_grid)

    def test_nearest_is_identity_on_grid(self):
        records = record_grid(rng_for(70))
        table = build_decision_table(records, name="t", source="s")
        for r in records[:20]:
            exact = select_algorithm(table, "bcast", "lumi", r.p, 1, r.n_bytes)
            near = select_algorithm(
                table, "bcast", "lumi", r.p, 1, r.n_bytes, policy="nearest"
            )
            assert exact == near

    def test_warm_batch_is_fast(self):
        import time

        rng = rng_for(80)
        records = record_grid(rng, collectives=("bcast",))
        table = build_decision_table(records, name="t", source="s")
        points = queries_for(records, rng, 10_000)
        ps = [p for p, _ in points]
        ns = [nb for _, nb in points]
        select_algorithms(table, "bcast", "lumi", ps, 1, ns)  # warm the cache
        t0 = time.perf_counter()
        out = select_algorithms(table, "bcast", "lumi", ps, 1, ns)
        elapsed = time.perf_counter() - t0
        assert len(out) == 10_000 and all(isinstance(a, str) for a in out)
        assert elapsed < 0.050, f"10k warm queries took {elapsed * 1e3:.1f} ms"

    def test_serve_cache_registered_and_clearable(self):
        from repro.analysis.sweep import clear_memo_caches, memo_cache_sizes
        from repro.tune.serve import _SERVE_CACHE

        records = record_grid(rng_for(81))
        table = build_decision_table(records, name="t", source="s")
        sub = table.tables[0]
        query = (sub.collective, sub.system, sub.p_grid[0], sub.ppn, sub.n_grid[0])
        answer = select_algorithm(table, *query, faults=sub.faults)
        assert memo_cache_sizes()["tune.serve._SERVE_CACHE"] >= 1
        # a re-tuning loop compiles one fresh table per round: the FIFO
        # bound caps the memo, and evicted tables recompile to equal answers
        tables = [
            build_decision_table(records, name="t", source="s")
            for _ in range(_SERVE_CACHE.maxsize + 3)
        ]
        for t in tables:
            assert select_algorithm(t, *query, faults=sub.faults) == answer
        assert memo_cache_sizes()["tune.serve._SERVE_CACHE"] == _SERVE_CACHE.maxsize
        assert select_algorithm(tables[0], *query, faults=sub.faults) == answer
        clear_memo_caches()
        assert memo_cache_sizes()["tune.serve._SERVE_CACHE"] == 0


class TestRetrofittedLayerProperties:
    """The same metamorphic discipline applied one layer down."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_records_digest_order_invariant(self, seed):
        rng = rng_for(90 + seed)
        records = record_grid(rng)
        assert records_digest(records) == records_digest(
            shuffled(records, rng)
        )
        assert records_digest(records) != records_digest(records[:-1])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_diff_of_shuffle_is_clean(self, seed):
        rng = rng_for(100 + seed)
        records = record_grid(rng, ppns=(1, 2))
        diff = diff_record_sets(
            record_set_from_records(records),
            record_set_from_records(shuffled(records, rng)),
        )
        assert not diff.drifted
        assert diff.unchanged == len(records)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sweep_record_round_trip(self, seed):
        rng = rng_for(110 + seed)
        for r in record_grid(rng, ppns=(1, 4), faults=("none", "f"))[:50]:
            assert SweepRecord.from_dict(r.to_dict()) == r

    def test_ppn_differentiates_cells(self):
        # the documented pre-PR collision: records differing only in ppn
        # now diff as distinct cells instead of raising on duplicates
        a = SweepRecord("lumi", "bcast", "x", "bine", 8, 64, 1.0, 2.0, ppn=1)
        b = SweepRecord("lumi", "bcast", "x", "bine", 8, 64, 9.0, 2.0, ppn=2)
        diff = diff_record_sets(
            record_set_from_records([a, b]), record_set_from_records([a, b])
        )
        assert diff.unchanged == 2

    def test_grid_axes_are_sorted_unique(self):
        for seed in range(20):
            p_grid, n_grid = grid_axes(rng_for(seed))
            assert list(p_grid) == sorted(set(p_grid))
            assert list(n_grid) == sorted(set(n_grid))
