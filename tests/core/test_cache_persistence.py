"""Cache snapshot persistence: save/load keyed by the registry/cost-model
fingerprint, refusing mismatches — the serving deployment's warm restart.
"""

import pickle

import pytest

from repro.core.framework import NdftFramework
from repro.core.scheduler import Placement, SchedulingPolicy
from repro.errors import ConfigError

SIZES = [64, 128, 512, 1024]


class TestSaveLoadRoundTrip:
    def test_loaded_caches_skip_rederivation(self, tmp_path):
        """A fresh process that loads the snapshot re-derives nothing
        for previously-seen jobs — and reports the same floats."""
        warm = NdftFramework()
        before = warm.run_many(SIZES)
        path = warm.save_caches(tmp_path / "caches.pkl")
        assert path.exists()

        restarted = NdftFramework()
        loaded = restarted.load_caches(path)
        assert loaded > 0
        after = restarted.run_many(SIZES)
        stats = restarted.cache_stats
        assert stats["schedule_misses"] == 0
        assert stats["solo_misses"] == 0
        assert stats["sca_misses"] == 0
        assert after.makespan == before.makespan
        assert after.solo_times == before.solo_times
        assert (
            after.batch_report.job_reports == before.batch_report.job_reports
        )

    def test_warm_start_index_survives_restart(self, tmp_path):
        """A never-snapshotted *size* still warm-starts off the loaded
        placement index."""
        warm = NdftFramework()
        warm.run_many(SIZES)
        path = warm.save_caches(tmp_path / "caches.pkl")

        restarted = NdftFramework()
        restarted.load_caches(path)
        restarted.run(n_atoms=2048)  # never seen by the saver
        assert restarted.cache_stats["warm_start_hits"] == 1
        assert restarted.cache_stats["warm_start_misses"] == 0

    def test_load_merges_warm_start_index_per_size(self, tmp_path):
        """Warm-start entries are workload-history-dependent, so a load
        must not wipe locally learned sizes under a shared structure
        key: snapshot sizes merge in under the already-known ones."""
        saver = NdftFramework()
        saver.run(n_atoms=1024)
        path = saver.save_caches(tmp_path / "caches.pkl")

        loader = NdftFramework()
        loader.run(n_atoms=64)  # learns size 64 under the same structure
        loader.load_caches(path)
        merged = next(
            sizes for _key, sizes in loader._warm_start_index.items()
        )
        assert set(merged) == {64, 1024}

    def test_load_merges_instead_of_clobbering(self, tmp_path):
        saver = NdftFramework()
        saver.run(n_atoms=64)
        path = saver.save_caches(tmp_path / "caches.pkl")

        loader = NdftFramework()
        loader.run(n_atoms=512)
        loader.load_caches(path)
        loader.run_many([64, 512])
        assert loader.cache_stats["schedule_misses"] == 1  # only the 512

    def test_snapshot_roundtrips_through_clear(self, tmp_path):
        framework = NdftFramework()
        framework.run(n_atoms=64)
        path = framework.save_caches(tmp_path / "caches.pkl")
        framework.clear_caches()
        framework.load_caches(path)
        framework.run(n_atoms=64)
        assert framework.cache_stats["schedule_misses"] == 1  # pre-save only

    def test_legacy_backend_tuner_rows_are_ignored(self, tmp_path):
        """Snapshots written while a measured backend tuner existed carry
        a ``backend_tuner`` row list under the same format 1.  Loaders
        ignore it: such a snapshot loads and merges with the same entry
        counts as one without it, and fresh snapshots no longer write
        the key."""
        saver = NdftFramework()
        saver.run_many(SIZES)
        path = saver.save_caches(tmp_path / "caches.pkl")
        payload = pickle.loads(path.read_bytes())
        assert "backend_tuner" not in payload
        legacy = tmp_path / "legacy.pkl"
        legacy.write_bytes(
            pickle.dumps(
                {
                    **payload,
                    "backend_tuner": [
                        (3, "chain_replay", 0.01, 4.0),
                        (3, "dag_replay", 0.02, 4.0),
                    ],
                }
            )
        )
        entries = sum(len(items) for items in payload["caches"].values())
        assert NdftFramework().load_caches(legacy) == entries
        assert NdftFramework().load_caches(path) == entries
        assert (
            NdftFramework().merge_caches(legacy)
            == NdftFramework().merge_caches(path)
            > 0
        )


    @pytest.mark.parametrize(
        "rows",
        [
            "not a row list",
            None,
            [(3, "chain_replay", float("nan"), 4.0), ("bucket",)],
        ],
        ids=["string", "none", "malformed-rows"],
    )
    def test_malformed_legacy_backend_tuner_rows_are_ignored(
        self, tmp_path, rows
    ):
        """Whatever an old snapshot holds under ``backend_tuner`` is
        never read, so even a corrupt value loads and merges like a
        snapshot without the key."""
        saver = NdftFramework()
        saver.run_many(SIZES)
        payload = pickle.loads(
            saver.save_caches(tmp_path / "caches.pkl").read_bytes()
        )
        legacy = tmp_path / "legacy.pkl"
        legacy.write_bytes(pickle.dumps({**payload, "backend_tuner": rows}))
        entries = sum(len(items) for items in payload["caches"].values())
        loader = NdftFramework()
        assert loader.load_caches(legacy) == entries
        assert loader.run_many(SIZES).makespan == saver.run_many(SIZES).makespan
        assert loader.cache_stats["schedule_misses"] == 0
        assert NdftFramework().merge_caches(legacy) > 0


class TestFingerprintRefusal:
    def test_policy_mismatch_refused(self, tmp_path):
        saver = NdftFramework()
        saver.run(n_atoms=64)
        path = saver.save_caches(tmp_path / "caches.pkl")
        other = NdftFramework(policy=SchedulingPolicy.ALL_CPU)
        with pytest.raises(ConfigError, match="fingerprint"):
            other.load_caches(path)

    def test_registry_change_refused(self, tmp_path, ndp_model):
        """Once register_target has run, snapshot traffic is refused in
        *both* directions: a custom-registered machine object has no
        cross-process fingerprint (the registration counter only counts
        within one process), so neither saving under it nor loading a
        foreign snapshot into it can be proven sound."""
        saver = NdftFramework()
        saver.run(n_atoms=64)
        path = saver.save_caches(tmp_path / "caches.pkl")
        changed = NdftFramework()
        changed.register_target(Placement.NDP, ndp_model)
        with pytest.raises(ConfigError, match="register_target"):
            changed.load_caches(path)
        with pytest.raises(ConfigError, match="register_target"):
            changed.save_caches(tmp_path / "unsound.pkl")

    def test_system_config_mismatch_refused(self, tmp_path):
        """Machine parameters (not just cost-model links) are part of
        the fingerprint: a framework built on a different SystemConfig
        derives different stage times, so its snapshot must be
        refused — the sensitivity sweeps build exactly such frameworks."""
        from dataclasses import replace

        from repro.hw.config import ndft_system_config

        saver = NdftFramework()
        saver.run(n_atoms=256)
        path = saver.save_caches(tmp_path / "caches.pkl")
        base = ndft_system_config()
        slower_mesh = replace(
            base, ndp=replace(base.ndp, mesh_link_bandwidth=12e9)
        )
        other = NdftFramework(system=slower_mesh)
        with pytest.raises(ConfigError, match="fingerprint"):
            other.load_caches(path)

    def test_gpu_framework_refuses_cpu_ndp_snapshot(self, tmp_path):
        saver = NdftFramework()
        saver.run(n_atoms=64)
        path = saver.save_caches(tmp_path / "caches.pkl")
        gpu = NdftFramework(enable_gpu=True)
        with pytest.raises(ConfigError, match="fingerprint"):
            gpu.load_caches(path)

    def test_garbage_file_refused(self, tmp_path):
        import pickle

        path = tmp_path / "garbage.pkl"
        path.write_bytes(pickle.dumps({"something": "else"}))
        with pytest.raises(ConfigError, match="format"):
            NdftFramework().load_caches(path)

    def test_truncated_snapshot_refused(self, tmp_path):
        """A half-written snapshot (crash or disk error mid-save) must
        raise ConfigError naming the file, never a raw EOFError or
        UnpicklingError."""
        saver = NdftFramework()
        saver.run_many([64, 128])
        path = saver.save_caches(tmp_path / "caches.pkl")
        blob = path.read_bytes()
        for cut in (0, 1, len(blob) // 2, len(blob) - 1):
            truncated = tmp_path / f"truncated_{cut}.pkl"
            truncated.write_bytes(blob[:cut])
            with pytest.raises(ConfigError, match="truncated or corrupt"):
                NdftFramework().load_caches(truncated)

    def test_corrupt_snapshot_refused(self, tmp_path):
        """Arbitrary bytes that are not a pickle stream at all are
        rejected the same way."""
        path = tmp_path / "noise.pkl"
        path.write_bytes(b"\x00\xffnot a pickle stream")
        with pytest.raises(ConfigError, match="truncated or corrupt"):
            NdftFramework().load_caches(path)

    def test_snapshot_naming_foreign_callable_refused(self, tmp_path):
        """A tampered snapshot whose payload reduces to a call of some
        other global is refused before the call runs."""
        import os

        target = tmp_path / "pwned"

        class Payload:
            def __reduce__(self):
                return (os.makedirs, (str(target),))

        path = tmp_path / "tampered.pkl"
        path.write_bytes(pickle.dumps({"format": 1, "caches": Payload()}))
        for action in ("load_caches", "merge_caches"):
            with pytest.raises(ConfigError, match="makedirs"):
                getattr(NdftFramework(), action)(path)
        assert not target.exists()

    def test_gpu_snapshot_round_trips(self, tmp_path):
        saver = NdftFramework(enable_gpu=True)
        saver.run_many([64, 512, 1024])
        path = saver.save_caches(tmp_path / "gpu.pkl")
        assert NdftFramework(enable_gpu=True).load_caches(path) > 0

    def test_fingerprints_equal_across_fresh_frameworks(self):
        assert (
            NdftFramework().cache_fingerprint()
            == NdftFramework().cache_fingerprint()
        )
