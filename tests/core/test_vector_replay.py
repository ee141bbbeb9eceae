"""The vectorized wave-replay backend and the static backend walk.

``vector_replay`` (:mod:`repro.hw.vector_replay`, registered in
:mod:`repro.core.backends`) computes a single-signature coalesced
shard's whole FIFO timetable as numpy recurrences over the (replica,
stage-occupancy) grid.  The backend contract pinned here is the one
PRs 3-5 established for the event-driven replays: bit-identical
completion floats *and* bit-identical ``lane_occupancy`` intervals
versus every other backend on any shard it accepts, a reasoned decline
(never a silent approximation) on any shard it cannot prove, and a
forced-unsupported error that names *why*.  The second half covers the
per-shard wall timings on the batch report and pins which backend the
static capability order (vector, chain, DAG, engine) picks for each
shard class.
"""

import random

import pytest

from repro.core.backends import backend_names, get_backend
from repro.core.executor import PipelineExecutor, ShardTiming
from repro.core.framework import NdftFramework
from repro.core.pipeline import build_kpoint_pipeline, build_pipeline
from repro.dft.workload import problem_size
from repro.errors import SimulationError

SIZES = (16, 64, 128, 512, 1024)


def _jobs(framework, entries):
    """(pipeline, schedule) pairs resolved through the framework caches,
    so duplicate entries share objects — the coalescing precondition."""
    jobs = []
    for n_atoms, builder in entries:
        pipeline = framework._build_pipeline(problem_size(n_atoms), builder)
        schedule = framework._schedule_for(
            pipeline, framework.job_signature(pipeline)
        )
        jobs.append((pipeline, schedule))
    return jobs


def _kpoint_builder(n_kpoints):
    def build(problem):
        return build_kpoint_pipeline(problem, n_kpoints)

    return build


def _identical(a, b):
    return (
        a.makespan == b.makespan
        and a.job_reports == b.job_reports
        and a.lane_occupancy == b.lane_occupancy
    )


class TestVectorReplayEquivalence:
    """Bit-identity versus all three existing backends on supported
    shards: closed t=0 batches and ultra-tight arrival jitter, chain
    and k-point templates, across replica counts."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_chain_batches_identical_all_backends(
        self, framework, seed
    ):
        rng = random.Random(seed)
        count = rng.randint(20, 200)
        jobs = _jobs(framework, [(rng.choice(SIZES), build_pipeline)] * count)
        arrivals = None
        if seed % 2:
            # Jitter far inside the first stage wave: supported.
            arrivals = [round(rng.random() * 1e-7, 12) for _ in jobs]
        vector = framework.executor.execute_many(
            jobs, arrivals=arrivals, backend="vector_replay"
        )
        assert vector.backend_jobs == {"vector_replay": count}
        assert vector.n_superjobs == 1
        for other in ("chain_replay", "dag_replay", "engine"):
            reference = framework.executor.execute_many(
                jobs, arrivals=arrivals, backend=other
            )
            assert _identical(vector, reference)
        assert vector.lane_occupancy  # the accounting is actually on

    @pytest.mark.parametrize("seed", [10, 11, 12, 13, 14])
    def test_random_kpoint_batches_identical(self, framework, seed):
        rng = random.Random(seed)
        count = rng.randint(20, 200)
        builder = _kpoint_builder(rng.choice((2, 3, 4)))
        jobs = _jobs(framework, [(rng.choice(SIZES), builder)] * count)
        arrivals = None
        if seed % 2:
            arrivals = [round(rng.random() * 1e-7, 12) for _ in jobs]
        vector = framework.executor.execute_many(
            jobs, arrivals=arrivals, backend="vector_replay"
        )
        assert vector.backend_jobs == {"vector_replay": count}
        for other in ("dag_replay", "engine"):
            reference = framework.executor.execute_many(
                jobs, arrivals=arrivals, backend=other
            )
            assert _identical(vector, reference)

    def test_equal_arrival_tie_storm_identical(self, framework):
        """Every replica released at the same instant: every wave is
        wall-to-wall same-instant boundary ties, granted in the
        engine's replica order."""
        jobs = _jobs(framework, [(64, build_pipeline)] * 300)
        arrivals = [0.0] * 300
        vector = framework.executor.execute_many(
            jobs, arrivals=arrivals, backend="vector_replay"
        )
        engine = framework.executor.execute_many(
            jobs, arrivals=arrivals, observer=lambda *_: None
        )
        assert _identical(vector, engine)

    def test_wide_arrivals_decline_and_auto_falls_back(self, framework):
        """Arrival spread past the first wave makes later replicas'
        entry requests interleave with earlier replicas' downstream
        waves — not a wave order.  Forcing raises the reasoned error;
        auto selection falls back bit-identically."""
        jobs = _jobs(framework, [(64, build_pipeline)] * 60)
        arrivals = [round(i * 0.01, 4) for i in range(60)]
        with pytest.raises(SimulationError, match="same-instant tie"):
            framework.executor.execute_many(
                jobs, arrivals=arrivals, backend="vector_replay"
            )
        auto = framework.executor.execute_many(jobs, arrivals=arrivals)
        engine = framework.executor.execute_many(
            jobs, arrivals=arrivals, observer=lambda *_: None
        )
        assert _identical(auto, engine)

    def test_clustered_arrival_ties_decline_identically(self, framework):
        """Two equal-arrival clusters: the second cluster's entry
        requests land mid-backlog, which the wave verification
        refuses; the fallback path must still be exact."""
        jobs = _jobs(framework, [(128, build_pipeline)] * 80)
        arrivals = [0.0] * 40 + [1.0] * 40
        auto = framework.executor.execute_many(jobs, arrivals=arrivals)
        engine = framework.executor.execute_many(
            jobs, arrivals=arrivals, observer=lambda *_: None
        )
        assert _identical(auto, engine)


class TestForcedUnsupportedReasons:
    """``execute_many(backend=...)`` on an unsupported shard must say
    *why* — each decline class has its own message."""

    def test_cross_signature_interleaving_reason(self, framework):
        jobs = _jobs(
            framework, [(64, build_pipeline)] * 3 + [(128, build_pipeline)] * 3
        )
        with pytest.raises(
            SimulationError,
            match=r"cross-signature interleaving.*2 super-jobs",
        ):
            framework.executor.execute_many(jobs, backend="vector_replay")

    def test_zero_duration_reason(self):
        from tests.core.test_dag_replay import (
            _round_cost_model,
            _toy_dag,
            _toy_schedule,
        )
        from repro.core.scheduler import Placement

        cost_model = _round_cost_model()
        executor = PipelineExecutor(cost_model=cost_model)
        pipeline = _toy_dag(
            "z", ("a", "b", "c"), (("a", "b", 0.0), ("a", "c", 0.0))
        )
        schedule = _toy_schedule(
            pipeline,
            (Placement.CPU, Placement.CPU, Placement.NDP),
            (1.0, 0.0, 1.0),
            cost_model,
        )
        jobs = [(pipeline, schedule)] * 3
        with pytest.raises(
            SimulationError, match="non-positive duration"
        ):
            executor.execute_many(jobs, backend="vector_replay")
        with pytest.raises(
            SimulationError, match="non-positive duration"
        ):
            executor.execute_many(jobs, backend="dag_replay")

    def test_non_chain_reason(self, framework):
        jobs = _jobs(framework, [(64, build_kpoint_pipeline)] * 2)
        with pytest.raises(
            SimulationError, match="non-chain pipeline"
        ):
            framework.executor.execute_many(jobs, backend="chain_replay")

    def test_tie_interleaving_reason(self, framework):
        jobs = _jobs(framework, [(64, build_pipeline)] * 40)
        arrivals = [round(i * 0.01, 4) for i in range(40)]
        with pytest.raises(
            SimulationError, match="same-instant tie"
        ):
            framework.executor.execute_many(
                jobs, arrivals=arrivals, backend="vector_replay"
            )

    def test_observer_rejects_forced_vector_replay(self, framework):
        jobs = _jobs(framework, [(64, build_pipeline)] * 2)
        with pytest.raises(
            SimulationError, match="trace observer forces the uncollapsed"
        ):
            framework.executor.execute_many(
                jobs, backend="vector_replay", observer=lambda *args: None
            )


class TestLateDeclineLeavesNoTrace:
    """A decline must have zero side effects: ``simulate`` returns
    ``None`` and the shared lane log is untouched, so the fallback
    backend starts from a clean slate."""

    def test_direct_simulate_decline_keeps_lane_log_clean(self, framework):
        jobs = _jobs(framework, [(64, build_pipeline)] * 30)
        arrivals = [round(i * 0.01, 4) for i in range(30)]
        backend = get_backend("vector_replay")
        lane_log = {"sentinel": [(0.0, 1.0)]}
        result = backend.simulate(
            framework.executor, jobs, arrivals, lane_log
        )
        assert result is None
        assert lane_log == {"sentinel": [(0.0, 1.0)]}

    def test_direct_simulate_mixed_signature_decline(self, framework):
        jobs = _jobs(
            framework, [(64, build_pipeline), (128, build_pipeline)]
        )
        backend = get_backend("vector_replay")
        lane_log = {}
        assert not backend.supports(framework.executor, jobs)
        assert (
            backend.simulate(framework.executor, jobs, None, lane_log)
            is None
        )
        assert lane_log == {}


class TestBackendTimings:
    """Per-shard wall observability: ``backend_timings`` rows with
    shard features and the per-backend ``backend_wall_seconds``
    rollup."""

    def test_execute_many_records_shard_timings(self, framework):
        jobs = _jobs(framework, [(64, build_pipeline)] * 5)
        report = framework.executor.execute_many(jobs)
        assert len(report.backend_timings) == report.n_shards == 1
        timing = report.backend_timings[0]
        assert isinstance(timing, ShardTiming)
        assert timing.backend == "vector_replay"
        assert timing.wall_seconds > 0.0
        assert timing.n_jobs == 5
        assert timing.n_superjobs == 1
        assert timing.n_stages > 0
        assert timing.is_chain is True

    def test_backend_wall_seconds_rolls_up_by_backend(self, framework):
        jobs = _jobs(framework, [(64, build_kpoint_pipeline)] * 4)
        report = framework.executor.execute_many(jobs)
        wall = report.backend_wall_seconds
        assert set(wall) == {"vector_replay"}
        assert wall["vector_replay"] == sum(
            t.wall_seconds
            for t in report.backend_timings
            if t.backend == "vector_replay"
        )
        assert report.backend_timings[0].is_chain is False

    def test_observer_path_reports_engine_timing(self, framework):
        jobs = _jobs(framework, [(64, build_pipeline)] * 3)
        report = framework.executor.execute_many(
            jobs, observer=lambda *args: None
        )
        assert [t.backend for t in report.backend_timings] == ["engine"]
        assert report.backend_wall_seconds["engine"] > 0.0

    def test_framework_backend_stats_include_wall_seconds(self):
        framework = NdftFramework()
        stats = framework.backend_stats
        for name in backend_names():
            assert stats[f"{name}_wall_seconds"] == 0.0
        framework.run_many([64, 128, 512])
        stats = framework.backend_stats
        assert stats["chain_replay_wall_seconds"] > 0.0
        assert stats["engine_wall_seconds"] == 0.0


class TestRegistryOrder:
    def test_static_capability_order(self):
        assert backend_names() == (
            "vector_replay",
            "chain_replay",
            "dag_replay",
            "engine",
        )

    @pytest.mark.parametrize(
        "entries, arrivals, expected",
        [
            pytest.param(
                [(64, build_kpoint_pipeline)] * 16,
                None,
                "vector_replay",
                id="single-signature-closed-kpoint",
            ),
            pytest.param(
                [(64, build_pipeline), (128, build_pipeline)] * 8,
                None,
                "chain_replay",
                id="multi-signature-chains",
            ),
            pytest.param(
                [(64, build_kpoint_pipeline), (128, build_kpoint_pipeline)] * 8,
                None,
                "dag_replay",
                id="multi-signature-kpoint",
            ),
            pytest.param(
                [(64, build_pipeline)] * 60,
                [round(i * 0.01, 4) for i in range(60)],
                "chain_replay",
                id="single-signature-open-chain",
            ),
        ],
    )
    def test_auto_walk_per_shard_class(
        self, framework, entries, arrivals, expected
    ):
        """The first backend in static order that accepts the shard
        simulates it, bit-identically to the engine.  Single-signature
        shards always reach ``vector_replay``; the open-queue chain is
        declined there late (unprovable wave order) and falls through."""
        jobs = _jobs(framework, entries)
        auto = framework.executor.execute_many(jobs, arrivals=arrivals)
        assert auto.backend_jobs == {expected: len(jobs)}
        engine = framework.executor.execute_many(
            jobs, arrivals=arrivals, backend="engine"
        )
        assert _identical(auto, engine)
        vector = get_backend("vector_replay")
        single = len(set(entries)) == 1
        assert vector.supports(framework.executor, jobs) is single
        if single and expected != "vector_replay":
            assert (
                vector.simulate(framework.executor, jobs, arrivals, {})
                is None
            )


class TestStaticRouting:
    """The static walk keeps no routing state: the same shard takes the
    same backend on every call, a restored framework routes like a cold
    one, and forcing any accepting backend never moves a float."""

    def test_repeated_calls_take_the_same_backend(self, framework):
        jobs = _jobs(framework, [(64, build_pipeline)] * 16)
        reference = framework.executor.execute_many(jobs, backend="engine")
        for _ in range(3):
            report = framework.executor.execute_many(jobs)
            assert report.backend_jobs == {"vector_replay": 16}
            assert _identical(report, reference)

    def test_forced_engine_run_is_timed(self, framework):
        jobs = _jobs(framework, [(64, build_pipeline)] * 4)
        report = framework.executor.execute_many(jobs, backend="engine")
        assert report.backend_jobs == {"engine": 4}
        assert [(t.backend, t.n_jobs) for t in report.backend_timings] == [
            ("engine", 4)
        ]
        assert report.backend_wall_seconds["engine"] > 0.0

    def test_forced_backends_never_change_results(self):
        sizes = [64, 128] * 12
        auto = NdftFramework().run_many(sizes)
        assert auto.batch_report.backend_jobs == {"chain_replay": len(sizes)}
        for name in ("chain_replay", "dag_replay", "engine"):
            forced = NdftFramework().run_many(sizes, backend=name)
            assert forced.batch_report.backend_jobs == {name: len(sizes)}
            assert _identical(forced.batch_report, auto.batch_report)
            assert forced.solo_times == auto.solo_times

    def test_restored_framework_routes_like_a_cold_one(self, tmp_path):
        sizes = [64] * 8 + [128, 512]
        saver = NdftFramework()
        saver.run_many([64] * 8)
        path = saver.save_caches(tmp_path / "caches.pkl")
        restored = NdftFramework()
        restored.load_caches(path)
        warm = restored.run_many(sizes).batch_report
        cold = NdftFramework().run_many(sizes).batch_report
        assert warm.backend_jobs == cold.backend_jobs
        assert [t.backend for t in warm.backend_timings] == [
            t.backend for t in cold.backend_timings
        ]
        assert _identical(warm, cold)
