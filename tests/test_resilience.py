"""Resilient campaign execution: cache corruption, worker crashes, exit codes.

Recovery paths must never change records: a truncated disk-cache entry
recomputes (warning, not crash), a crashed worker's shards re-run and
fall back to serial, and the CLI maps each runtime failure class to a
distinct exit code.
"""

from __future__ import annotations

import importlib
import pkgutil
import random
import sys
import warnings
from contextlib import contextmanager
from functools import _lru_cache_wrapper

import pytest

from repro.runtime import env as runtime_env
from repro.runtime.env import env_flag, env_int

from repro.analysis.sweep import (
    _CACHE_MAGIC,
    clear_memo_caches,
    memo_cache_registry,
    memo_cache_sizes,
    sweep_system,
)
from repro.cli.main import EXIT_CODES, main
from repro.faults import FaultSpec, _global_link_population, _group_members
from repro.runtime.errors import (
    CacheCorruptionError,
    FaultSpecError,
    TopologyPartitionedError,
    WorkerShardError,
)
from repro.systems import lumi, marenostrum5

SWEEP_KWARGS = dict(
    collectives=("allgather",),
    node_counts=(8, 16),
    vector_bytes=(1024, 65536),
)


class TestCacheCorruption:
    def _sweep(self, tmp_path, **kwargs):
        return sweep_system(
            lumi(), disk_dir=tmp_path / "cache", **SWEEP_KWARGS, **kwargs
        )

    def _entries(self, tmp_path):
        entries = sorted((tmp_path / "cache").rglob("*.pkl"))
        assert entries
        return entries

    def test_truncated_entries_recovered_bit_identical(self, tmp_path):
        cold = self._sweep(tmp_path)
        for f in self._entries(tmp_path):
            blob = f.read_bytes()
            f.write_bytes(blob[: max(len(_CACHE_MAGIC) + 8, len(blob) // 2)])
        with pytest.warns(RuntimeWarning, match="truncated"):
            rebuilt = self._sweep(tmp_path)
        assert rebuilt == cold
        # the recompute republished sound entries: warm again, no warning
        assert self._sweep(tmp_path) == cold

    def test_stale_header_recovered(self, tmp_path):
        cold = self._sweep(tmp_path)
        for f in self._entries(tmp_path):
            f.write_bytes(b"RPCACHE1" + f.read_bytes()[len(_CACHE_MAGIC):])
        with pytest.warns(RuntimeWarning, match="stale cache header"):
            assert self._sweep(tmp_path) == cold

    def test_unpicklable_payload_recovered(self, tmp_path):
        cold = self._sweep(tmp_path)
        for f in self._entries(tmp_path):
            junk = b"\x00junk payload"
            f.write_bytes(_CACHE_MAGIC + len(junk).to_bytes(8, "little") + junk)
        with pytest.warns(RuntimeWarning, match="unreadable payload"):
            assert self._sweep(tmp_path) == cold


class TestWorkerCrashRecovery:
    def test_crashed_shards_fall_back_to_serial(self, monkeypatch):
        serial = sweep_system(lumi(), **SWEEP_KWARGS)
        monkeypatch.setenv("REPRO_TEST_CRASH_SHARD", "1")
        with pytest.warns(RuntimeWarning, match="crashed or timed out"):
            recovered = sweep_system(lumi(), workers=2, **SWEEP_KWARGS)
        assert recovered == serial

    def test_fallback_disabled_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_CRASH_SHARD", "1")
        monkeypatch.setenv("REPRO_SHARD_FALLBACK", "0")
        with pytest.raises(WorkerShardError, match="shard"):
            sweep_system(lumi(), workers=2, **SWEEP_KWARGS)

    def test_healthy_pool_unaffected(self):
        serial = sweep_system(lumi(), **SWEEP_KWARGS)
        assert sweep_system(lumi(), workers=2, **SWEEP_KWARGS) == serial


class TestConcurrentCacheWriters:
    def test_two_processes_race_same_entries(self, tmp_path):
        """Two processes cold-filling one disk cache must both succeed.

        The fsync+rename publish protocol makes concurrent writers of the
        same entry last-writer-wins with no torn intermediate state: a
        reader either sees a complete entry or none at all.  Both racers
        must produce the serial records, and the cache they leave behind
        must serve a warm run bit-identically.
        """
        import subprocess
        import sys as _sys

        serial = sweep_system(lumi(), **SWEEP_KWARGS)
        script = (
            "import json, sys\n"
            "from repro.analysis.sweep import sweep_system\n"
            "from repro.systems import lumi\n"
            "recs = sweep_system(lumi(), collectives=('allgather',),\n"
            "                    node_counts=(8, 16),\n"
            "                    vector_bytes=(1024, 65536),\n"
            "                    disk_dir=sys.argv[1])\n"
            "json.dump([r.to_dict() for r in recs], open(sys.argv[2], 'w'))\n"
        )
        procs = [
            subprocess.Popen(
                [_sys.executable, "-c", script, str(tmp_path / "cache"),
                 str(tmp_path / f"out{i}.json")],
                env={**__import__('os').environ, "PYTHONPATH": "src"},
            )
            for i in range(2)
        ]
        assert [p.wait(timeout=300) for p in procs] == [0, 0]
        import json

        expected = [r.to_dict() for r in serial]
        for i in range(2):
            got = json.load(open(tmp_path / f"out{i}.json"))
            assert got == expected, f"racer {i} diverged"
        # the surviving cache entries are sound: warm run, no warnings
        with warnings_as_errors():
            warm = sweep_system(
                lumi(), disk_dir=tmp_path / "cache", **SWEEP_KWARGS
            )
        assert warm == serial


@contextmanager
def warnings_as_errors():
    import warnings as _warnings

    with _warnings.catch_warnings():
        _warnings.simplefilter("error")
        yield


class TestMemoCacheRegistry:
    def _populate(self):
        sweep_system(lumi(), collectives=("allgather",), node_counts=(16,),
                     vector_bytes=(1024,))
        from repro.collectives.registry import build
        from repro.collectives.verify import run_and_check

        run_and_check(build("allgather", "bine-send", 8, 8), seed=0)

    def test_clear_empties_every_registered_cache(self):
        self._populate()
        sizes = memo_cache_sizes()
        assert any(size > 0 for size in sizes.values())
        clear_memo_caches()
        assert all(size == 0 for size in memo_cache_sizes().values())

    def test_registry_covers_every_module_level_cache(self):
        """Scan the whole package: no memo cache may escape the registry."""
        import repro

        for mod in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(mod.name)
        registered = [clearer for _, clearer in memo_cache_registry().values()]
        missing = []
        for name, module in sorted(sys.modules.items()):
            if not name.startswith("repro."):
                continue
            for attr, obj in vars(module).items():
                if isinstance(obj, _lru_cache_wrapper):
                    if obj.cache_clear not in registered:
                        missing.append(f"{name}.{attr}")
                elif isinstance(obj, dict) and attr.endswith("_CACHE"):
                    if obj.clear not in registered:
                        missing.append(f"{name}.{attr}")
        assert not missing, (
            f"memo caches outside memo_cache_registry(): {missing} — "
            "declare them through repro.runtime.memo so clear_memo_caches() "
            "stays complete"
        )


class TestEnvKnobFallback:
    @pytest.mark.parametrize(
        "read, name, raw, default",
        [
            (env_flag, "REPRO_SHARD_FALLBACK", "no", True),
            (env_int, "REPRO_TRACE_T0", "soon", 7),
        ],
    )
    def test_garbage_warns_once_and_keeps_default(
        self, monkeypatch, read, name, raw, default
    ):
        monkeypatch.setattr(runtime_env, "_WARNED", set())
        monkeypatch.setenv(name, raw)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert read(name, default) == default
            assert read(name, default) == default
        assert len(caught) == 1
        assert caught[0].category is RuntimeWarning
        assert name in str(caught[0].message)


def _partitioning_seed() -> int:
    """A seed whose single failed fat-tree uplink cuts off subtree 0 or 1.

    MareNostrum 5 block placement with 256 nodes spans subtrees 0-1 (160
    nodes each); a failed ``("up"/"down", g<2)`` uplink leaves some pair
    with no surviving route (the fat tree has exactly one up and one
    down bundle per subtree, so no detour exists).
    """
    topo = marenostrum5().build_topology()
    members = _group_members(topo)
    reps = {g: nodes[0] for g, nodes in members.items()}
    population = _global_link_population(topo, reps)
    for seed in range(1000):
        (key,) = random.Random(seed).sample(population, 1)
        if key[1] < 2:
            return seed
    raise AssertionError("no partitioning seed under 1000")


class TestCliExitCodes:
    def test_taxonomy_codes_distinct(self):
        codes = list(EXIT_CODES.values())
        assert sorted(codes) == [3, 4, 5, 6, 7, 8, 9, 10]
        assert EXIT_CODES[FaultSpecError] == 3
        assert EXIT_CODES[TopologyPartitionedError] == 4
        assert EXIT_CODES[CacheCorruptionError] == 5
        assert EXIT_CODES[WorkerShardError] == 6
        from repro.runtime.errors import (
            DESEngineError,
            InterruptedRunError,
            JournalError,
            TuneArtifactError,
        )

        assert EXIT_CODES[TuneArtifactError] == 7
        assert EXIT_CODES[DESEngineError] == 8
        assert EXIT_CODES[InterruptedRunError] == 9
        assert EXIT_CODES[JournalError] == 10

    def test_bad_fault_spec_exits_3(self, capsys):
        code = main(["sweep", "--system", "lumi", "--collective", "bcast",
                     "--nodes", "16", "--sizes", "1024",
                     "--faults", "bogus=1"])
        assert code == 3
        assert "FaultSpecError" in capsys.readouterr().err

    def test_torus_global_faults_exit_3(self, capsys):
        code = main(["sweep", "--system", "fugaku", "--collective", "bcast",
                     "--nodes", "16", "--sizes", "1024",
                     "--faults", "links=1"])
        assert code == 3
        assert "global links" in capsys.readouterr().err

    def test_partitioned_topology_exits_4(self, capsys):
        seed = _partitioning_seed()
        code = main(["sweep", "--system", "marenostrum5",
                     "--placement", "block", "--collective", "bcast",
                     "--nodes", "256", "--sizes", "1024",
                     "--faults", f"links=1,seed={seed}"])
        assert code == 4
        assert "no surviving route" in capsys.readouterr().err

    def test_worker_shard_error_exits_6(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_CRASH_SHARD", "1")
        monkeypatch.setenv("REPRO_SHARD_FALLBACK", "0")
        code = main(["sweep", "--system", "lumi", "--collective", "allgather",
                     "--nodes", "16", "--sizes", "1024", "--workers", "2"])
        assert code == 6
        assert "WorkerShardError" in capsys.readouterr().err

    def test_cache_corruption_exits_5(self, capsys, monkeypatch):
        # recovery normally downgrades corruption to a warning; the exit
        # code still exists for paths that surface it as an error
        from repro.cli import commands

        def _boom(args):
            raise CacheCorruptionError("entry.pkl: truncated entry")

        monkeypatch.setattr(commands, "cmd_list", _boom)
        assert main(["list"]) == 5
        assert "CacheCorruptionError" in capsys.readouterr().err

    def test_duplicate_fault_scenarios_exit_3(self, capsys):
        code = main(["sweep", "--system", "lumi", "--collective", "bcast",
                     "--nodes", "16", "--sizes", "1024",
                     "--faults", "links=1", "--faults", "links=1"])
        assert code == 3
        assert "duplicate" in capsys.readouterr().err


TINY_MANIFEST = """
[campaign]
name = "tiny-degraded"
system = "lumi"

[[grid]]
collectives = ["bcast"]
node_counts = [16]
vector_bytes = [1024, 65536]

[[faults]]

[[faults]]
failed_links = 2
seed = 13

[summary]
family = "bine"
baseline = "binomial"
"""


class TestDegradedCampaignEndToEnd:
    @pytest.fixture()
    def manifest_path(self, tmp_path):
        path = tmp_path / "tiny_degraded.toml"
        path.write_text(TINY_MANIFEST)
        return path

    def test_campaign_plot_compare(self, manifest_path, tmp_path, capsys):
        records_json = tmp_path / "records.json"
        assert main(["campaign", str(manifest_path), "--format", "json",
                     "--output", str(records_json)]) == 0
        capsys.readouterr()

        out_dir = tmp_path / "report"
        assert main(["plot", "--manifest", str(manifest_path),
                     "--out", str(out_dir)]) == 0
        capsys.readouterr()
        names = {p.name for p in out_dir.iterdir()}
        assert "heatmap_bcast_lumi.svg" in names            # pristine pane
        assert "heatmap_bcast_lumi_links2-seed13.svg" in names
        assert "index.md" in names

        # rerunning the manifest reproduces the frozen records bit for bit
        assert main(["compare", str(records_json), str(manifest_path)]) == 0
        capsys.readouterr()
        # a different scenario set drifts (exit 1, not a crash)
        assert main(["compare", str(records_json), str(manifest_path),
                     "--faults", "links=3,seed=13"]) == 1

    def test_shipped_manifest_parses(self):
        from repro.cli.manifest import load_manifest

        manifest = load_manifest("campaigns/degraded_lumi.toml")
        assert [s.label for s in manifest.faults] == [
            "none", "links1-seed13", "links2-seed13", "links3-seed13",
        ]
