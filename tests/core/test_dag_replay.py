"""The DAG-replay backend and the simulation-backend layer.

The DAG replay (:func:`repro.hw.engine.replay_dag_batch`, selected by
the ``dag_replay`` backend) must reproduce the generator engine's floats
bit for bit on *branching* pipelines — k-point DAGs, random synthetic
DAGs, constructed exact-time tie storms on fan-in joins — the same way
``tests/core/test_coalesce_shard.py`` pins the chain replay.  This file
also covers the backend registry semantics: selection order, forced
backends, observer and zero-duration fallbacks, and the framework's
``backend_stats`` counters.
"""

import random

import pytest

from tests.core.dag_helpers import branched_chain_pipeline, random_pipeline
from repro.core.backends import backend_names, get_backend
from repro.core.cost_model import OffloadCostModel
from repro.core.executor import PipelineExecutor
from repro.core.framework import NdftFramework
from repro.core.ir import function_from_workload
from repro.core.pipeline import Edge, Pipeline, Stage, build_kpoint_pipeline, build_pipeline
from repro.core.scheduler import Placement, Schedule, SchedulingPolicy
from repro.dft.workload import problem_size
from repro.errors import SimulationError
from repro.hw.engine import EventCalendar
from repro.hw.interconnect import HostLink
from repro.hw.timing import PhaseTime
from repro.model import KernelWorkload

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


class TestDagReplayEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_random_kpoint_batches_identical(self, framework, seed):
        """Random k-point batches (mixed fan widths and sizes, sometimes
        an open queue): replay vs the forced engine backend vs the
        observer-forced shared engine — every float identical."""
        rng = random.Random(seed)
        entries = [
            (rng.choice(SIZES), _kpoint_builder(rng.choice((2, 3, 4))))
            for _ in range(rng.randint(2, 24))
        ]
        jobs = _jobs(framework, entries)
        arrivals = None
        if seed % 2:
            arrivals = [round(rng.random() * 10, 3) for _ in jobs]
        fast = framework.executor.execute_many(jobs, arrivals=arrivals)
        slow = framework.executor.execute_many(
            jobs, arrivals=arrivals, backend="engine"
        )
        observed = framework.executor.execute_many(
            jobs, arrivals=arrivals, observer=lambda *args: None
        )
        assert fast.makespan == slow.makespan == observed.makespan
        assert fast.job_reports == slow.job_reports == observed.job_reports
        # Branching jobs ran the slim replay, not the engine.
        assert fast.backend_jobs == {"dag_replay": len(jobs)}

    @pytest.mark.parametrize("seed", [10, 11, 12, 13])
    def test_random_synthetic_dag_batches_identical(self, framework, seed):
        """Random connected DAGs (1-3 predecessors per stage — much
        denser fan-in than the k-point shape): replay vs engine."""
        rng = random.Random(seed)
        jobs = []
        for _ in range(rng.randint(2, 8)):
            pipeline = random_pipeline(rng, rng.randint(3, 9))
            schedule = framework.scheduler.schedule(
                pipeline, SchedulingPolicy.COST_AWARE
            )
            jobs.append((pipeline, schedule))
        arrivals = None
        if seed % 2:
            arrivals = [round(rng.random() * 2, 3) for _ in jobs]
        fast = framework.executor.execute_many(jobs, arrivals=arrivals)
        slow = framework.executor.execute_many(
            jobs, arrivals=arrivals, observer=lambda *_: None
        )
        assert fast.makespan == slow.makespan
        assert fast.job_reports == slow.job_reports

    def test_mixed_chain_and_dag_shard_takes_dag_replay(self, framework):
        """A shard mixing chains with one DAG cannot use the chain
        replay, but no longer forces the engine either."""
        jobs = _jobs(
            framework,
            [(64, build_pipeline), (64, build_kpoint_pipeline)] * 3,
        )
        fast = framework.executor.execute_many(jobs)
        slow = framework.executor.execute_many(
            jobs, observer=lambda *_: None
        )
        assert fast.backend_jobs == {"dag_replay": len(jobs)}
        assert fast.n_superjobs == 2
        assert fast.job_reports == slow.job_reports

    def test_run_many_kpoint_toggles_identical(self):
        sizes = [64, 1024, 64, 512, 128, 64]
        fast = NdftFramework().run_many(
            sizes, pipeline_builder=build_kpoint_pipeline
        )
        slow = NdftFramework().run_many(
            sizes,
            pipeline_builder=build_kpoint_pipeline,
            backend="engine",
        )
        assert fast.makespan == slow.makespan
        assert fast.solo_times == slow.solo_times
        assert (
            fast.batch_report.job_reports == slow.batch_report.job_reports
        )


# ---------------------------------------------------------------------------
# Hand-built DAG jobs with exact round-number durations
# ---------------------------------------------------------------------------


def _toy_dag(label, stage_names, edge_spec):
    """A hand-built DAG pipeline with unit workloads, for constructing
    same-instant event ties; ``edge_spec`` is (src, dst, nbytes)."""
    stages = []
    for name in stage_names:
        workload = KernelWorkload(
            name=f"{label}{name}", flops=1.0, bytes_read=1.0, bytes_written=1.0
        )
        stages.append(
            Stage(
                name=f"{label}{name}",
                workload=workload,
                function=function_from_workload(
                    workload, live_in_bytes=1.0, live_out_bytes=1.0
                ),
            )
        )
    edges = tuple(
        Edge(src=f"{label}{src}", dst=f"{label}{dst}", nbytes=nbytes)
        for src, dst, nbytes in edge_spec
    )
    return Pipeline(
        problem=problem_size(8), stages=tuple(stages), edges=edges
    )


def _toy_schedule(pipeline, placements, durations, cost_model):
    assignments = {
        stage.name: placement
        for stage, placement in zip(pipeline.stages, placements)
    }
    crossing = [
        edge
        for edge in pipeline.edges
        if assignments[edge.src] is not assignments[edge.dst]
    ]
    overhead = sum(
        cost_model.boundary_cost(
            e.nbytes, (assignments[e.src], assignments[e.dst])
        )
        for e in crossing
    )
    stage_times = {
        stage.name: PhaseTime(
            name=stage.name, compute_time=duration, memory_time=duration
        )
        for stage, duration in zip(pipeline.stages, durations)
    }
    return Schedule(
        policy=SchedulingPolicy.COST_AWARE,
        assignments=assignments,
        stage_times=stage_times,
        crossing_bytes=tuple(e.nbytes for e in crossing),
        scheduling_overhead=overhead,
        predicted_total=sum(durations) + overhead,
        crossing_pairs=tuple(
            (assignments[e.src], assignments[e.dst]) for e in crossing
        ),
    )


def _round_cost_model(context_switch=0.25):
    return OffloadCostModel(
        host_link=HostLink(bandwidth=1.0, base_latency=0.0),
        context_switch=context_switch,
    )


def _diamond_tie_job(label, cost_model):
    """a -> (b, c) -> d where both branches complete at exactly t=3.0:
    b stays on the CPU (1.0 + 2.0), c crosses to the NDP (transfer
    0.25/1.0 + 0.25 CXT = 0.5, then 1.5) — an exact-time tie on d's
    fan-in join, resolved by the engine's cascade order."""
    pipeline = _toy_dag(
        label,
        ("a", "b", "c", "d"),
        (("a", "b", 0.0), ("a", "c", 0.25), ("b", "d", 0.0), ("c", "d", 0.25)),
    )
    schedule = _toy_schedule(
        pipeline,
        (Placement.CPU, Placement.CPU, Placement.NDP, Placement.CPU),
        (1.0, 2.0, 1.5, 1.0),
        cost_model,
    )
    return pipeline, schedule


def _branched_chain_tie_job(cost_model):
    """A :func:`branched_chain_pipeline` — ``h`` fans out into runs of 1,
    2 and 3 stages that re-join at ``j``, then ``t0 -> t1`` — with round
    durations spread over the CPU and the NDP and 0.5-byte edges
    (transfers of 0.5/1.0 + CXT).  Across replicas, the single-edge
    hand-offs the DAG replay fuses collide at integer instants with
    transfers, grants and the fan-in join."""
    pipeline = branched_chain_pipeline(edge_bytes=0.5, label="z")
    cpu, ndp = Placement.CPU, Placement.NDP
    schedule = _toy_schedule(
        pipeline,
        (cpu, cpu, ndp, ndp, ndp, cpu, ndp, cpu, ndp, ndp),
        (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0),
        cost_model,
    )
    return pipeline, schedule


def _branched_tie_batches(cost_model, chain_job):
    """``(jobs, arrivals)`` tie-storm batches of branched-chain replicas,
    alone and interleaved with ``chain_job``: closed, and with every
    arrival offset shared by two jobs."""
    branched = _branched_chain_tie_job(cost_model)
    for jobs in ([branched] * 4, [branched, chain_job] * 3):
        for arrivals in (None, [float(i // 2) for i in range(len(jobs))]):
            yield jobs, arrivals


class TestExactTimeTiesOnFanIn:
    def test_fan_in_join_tie_matches_engine(self):
        cost_model = _round_cost_model()
        executor = PipelineExecutor(cost_model=cost_model)
        jobs = [_diamond_tie_job("y", cost_model)]
        fast = executor.execute_many(jobs, backend="dag_replay")
        slow = executor.execute_many(jobs, observer=lambda *_: None)
        assert fast.backend_jobs == {"dag_replay": 1}
        assert fast.job_reports == slow.job_reports
        assert fast.makespan == slow.makespan
        # The tie is real: both branches hand d their data at t=3.0, and
        # d's transfer (0.25/1.0 + 0.25) plus 1.0 compute lands at 4.5.
        assert slow.job_reports[0].total_time == 4.5

    @pytest.mark.parametrize("order", [0, 1])
    def test_fan_in_tie_storms_across_replicas(self, order):
        """Several identical diamonds plus a round-number chain, two
        interleavings, with and without arrivals: every completion
        collides with others at integer instants, including on fan-in
        joins — the replay must grant, wake and re-request in exactly
        the engine's cascade order."""
        cost_model = _round_cost_model(context_switch=0.5)
        executor = PipelineExecutor(cost_model=cost_model)
        diamond = _diamond_tie_job("y", cost_model)
        chain = _toy_dag("x", ("0", "1", "2"), (("0", "1", 0.0), ("1", "2", 0.0)))
        chain_schedule = _toy_schedule(
            chain,
            (Placement.CPU, Placement.CPU, Placement.CPU),
            (1.0, 1.0, 1.0),
            cost_model,
        )
        jobs = [diamond, (chain, chain_schedule)] * 4
        if order:
            jobs = jobs[::-1]
        for arrivals in (None, [0.0, 1.0] * 4, [0.5] * 8):
            fast = executor.execute_many(jobs, arrivals=arrivals)
            slow = executor.execute_many(
                jobs, arrivals=arrivals, observer=lambda *_: None
            )
            assert fast.job_reports == slow.job_reports
            assert fast.makespan == slow.makespan
        for jobs, arrivals in _branched_tie_batches(
            cost_model, (chain, chain_schedule)
        ):
            if order:
                jobs = jobs[::-1]
            fast = executor.execute_many(
                jobs, arrivals=arrivals, backend="dag_replay"
            )
            slow = executor.execute_many(
                jobs, arrivals=arrivals, observer=lambda *_: None
            )
            assert fast.job_reports == slow.job_reports
            assert fast.makespan == slow.makespan

    def test_wide_fan_in_with_skipped_predecessors(self):
        """A stage joining three predecessors that finish at different
        (and partly identical) instants exercises the finished-
        predecessor skip hops of the wait loop."""
        cost_model = _round_cost_model()
        executor = PipelineExecutor(cost_model=cost_model)
        pipeline = _toy_dag(
            "w",
            ("a", "b", "c", "d", "e"),
            (
                ("a", "b", 0.0),
                ("a", "c", 0.25),
                ("a", "d", 0.25),
                ("b", "e", 0.0),
                ("c", "e", 0.25),
                ("d", "e", 0.25),
            ),
        )
        schedule = _toy_schedule(
            pipeline,
            (
                Placement.CPU,
                Placement.CPU,
                Placement.NDP,
                Placement.NDP,
                Placement.CPU,
            ),
            (1.0, 2.0, 1.5, 1.0, 1.0),
            cost_model,
        )
        jobs = [(pipeline, schedule)] * 6
        for arrivals in (None, [0.0, 1.0, 2.0] * 2):
            fast = executor.execute_many(jobs, arrivals=arrivals)
            slow = executor.execute_many(
                jobs, arrivals=arrivals, observer=lambda *_: None
            )
            assert fast.job_reports == slow.job_reports
            assert fast.makespan == slow.makespan


class TestLaneOccupancyEquivalence:
    """Per-lane busy accounting is part of the backend contract: every
    backend must record the *same* occupancy intervals — the engine's
    exact floats, in grant order — so ``lane_utilization`` is safe to
    trend whichever simulator ran."""

    @pytest.mark.parametrize("seed", [20, 21, 22, 23])
    def test_chain_batches_identical_across_all_backends(self, framework, seed):
        """Random chain batches support every backend, so all three can
        be compared pairwise on the same shard."""
        rng = random.Random(seed)
        entries = [
            (rng.choice(SIZES), build_pipeline)
            for _ in range(rng.randint(2, 16))
        ]
        jobs = _jobs(framework, entries)
        arrivals = None
        if seed % 2:
            arrivals = [round(rng.random() * 5, 3) for _ in jobs]
        chain = framework.executor.execute_many(jobs, arrivals=arrivals)
        dag = framework.executor.execute_many(
            jobs, arrivals=arrivals, backend="dag_replay"
        )
        engine = framework.executor.execute_many(
            jobs, arrivals=arrivals, backend="engine"
        )
        assert chain.backend_jobs == {"chain_replay": len(jobs)}
        assert dag.backend_jobs == {"dag_replay": len(jobs)}
        assert chain.lane_occupancy == dag.lane_occupancy
        assert chain.lane_occupancy == engine.lane_occupancy
        assert chain.lane_occupancy  # the accounting is actually on

    @pytest.mark.parametrize("seed", [30, 31, 32, 33])
    def test_kpoint_batches_identical_dag_vs_engine(self, framework, seed):
        rng = random.Random(seed)
        entries = [
            (rng.choice(SIZES), _kpoint_builder(rng.choice((2, 3, 4))))
            for _ in range(rng.randint(2, 12))
        ]
        jobs = _jobs(framework, entries)
        arrivals = None
        if seed % 2:
            arrivals = [round(rng.random() * 8, 3) for _ in jobs]
        fast = framework.executor.execute_many(jobs, arrivals=arrivals)
        slow = framework.executor.execute_many(
            jobs, arrivals=arrivals, backend="engine"
        )
        assert fast.backend_jobs == {"dag_replay": len(jobs)}
        assert fast.lane_occupancy == slow.lane_occupancy

    def test_tie_storms_record_identical_lanes(self):
        """Constructed same-instant collisions (the banded-cascade
        cases) must grant — and therefore account — identically."""
        cost_model = _round_cost_model(context_switch=0.5)
        executor = PipelineExecutor(cost_model=cost_model)
        diamond = _diamond_tie_job("y", cost_model)
        chain = _toy_dag(
            "x", ("0", "1", "2"), (("0", "1", 0.0), ("1", "2", 0.0))
        )
        chain_schedule = _toy_schedule(
            chain,
            (Placement.CPU, Placement.CPU, Placement.CPU),
            (1.0, 1.0, 1.0),
            cost_model,
        )
        jobs = [diamond, (chain, chain_schedule)] * 4
        for arrivals in (None, [0.0, 1.0] * 4, [0.5] * 8):
            fast = executor.execute_many(jobs, arrivals=arrivals)
            slow = executor.execute_many(
                jobs, arrivals=arrivals, backend="engine"
            )
            assert fast.lane_occupancy == slow.lane_occupancy
        for jobs, arrivals in _branched_tie_batches(
            cost_model, (chain, chain_schedule)
        ):
            fast = executor.execute_many(
                jobs, arrivals=arrivals, backend="dag_replay"
            )
            slow = executor.execute_many(
                jobs, arrivals=arrivals, backend="engine"
            )
            assert fast.lane_occupancy == slow.lane_occupancy

    def test_observer_path_also_accounts_lanes(self, framework):
        jobs = _jobs(framework, [(64, build_kpoint_pipeline)] * 3)
        plain = framework.executor.execute_many(jobs)
        observed = framework.executor.execute_many(
            jobs, observer=lambda *args: None
        )
        assert observed.lane_occupancy == plain.lane_occupancy

    def test_busy_and_utilization_derive_from_intervals(self, framework):
        jobs = _jobs(framework, [(64, build_pipeline), (512, build_pipeline)])
        report = framework.executor.execute_many(jobs)
        for lane, intervals in report.lane_occupancy.items():
            assert all(end > start for start, end in intervals)
            # Occupancies on one capacity-1 lane never overlap.
            assert all(
                later_start >= earlier_end
                for (_s, earlier_end), (later_start, _e) in zip(
                    intervals, intervals[1:]
                )
            )
            busy = sum(end - start for start, end in intervals)
            assert report.lane_busy_seconds[lane] == busy
            assert report.lane_utilization[lane] == busy / report.busy_span
        assert max(report.lane_utilization.values()) <= 1.0 + 1e-12


class TestBackendFallbacks:
    def test_observer_forces_engine_backend(self, framework):
        jobs = _jobs(framework, [(64, build_kpoint_pipeline)] * 4)
        observed = framework.executor.execute_many(
            jobs, observer=lambda *args: None
        )
        assert observed.backend_jobs == {"engine": 4}
        assert observed.n_shards == 1
        assert observed.n_superjobs == 0
        events = []
        framework.executor.execute_many(
            jobs,
            observer=lambda lane, label, start, end: events.append(label),
        )
        for index in range(len(jobs)):
            assert any(label.startswith(f"job{index}:") for label in events)

    def test_zero_duration_task_falls_back_to_engine(self):
        """A zero-duration stage (possible only under degenerate custom
        cost models) declines both replays; the engine still times it,
        and the numbers agree with the uncollapsed path."""
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
        fast = executor.execute_many(jobs)
        slow = executor.execute_many(jobs, observer=lambda *_: None)
        assert fast.backend_jobs == {"engine": 3}
        assert fast.n_superjobs == 0
        assert fast.job_reports == slow.job_reports
        assert fast.makespan == slow.makespan


class TestBackendRegistry:
    def test_registry_order_prefers_replays(self):
        assert backend_names() == (
            "vector_replay",
            "chain_replay",
            "dag_replay",
            "engine",
        )

    def test_unknown_backend_rejected(self, framework):
        jobs = _jobs(framework, [(64, build_pipeline)])
        with pytest.raises(SimulationError):
            framework.executor.execute_many(jobs, backend="nonsense")
        with pytest.raises(SimulationError):
            get_backend("nonsense")

    def test_forced_engine_matches_auto_selection(self, framework):
        jobs = _jobs(framework, [(64, build_kpoint_pipeline)] * 4)
        auto = framework.executor.execute_many(jobs)
        forced = framework.executor.execute_many(jobs, backend="engine")
        assert forced.backend_jobs == {"engine": 4}
        assert auto.backend_jobs == {"vector_replay": 4}
        assert auto.job_reports == forced.job_reports
        assert auto.makespan == forced.makespan

    def test_forced_chain_replay_rejects_dag_shard(self, framework):
        jobs = _jobs(framework, [(64, build_kpoint_pipeline)] * 2)
        with pytest.raises(SimulationError):
            framework.executor.execute_many(jobs, backend="chain_replay")

    def test_forced_nonengine_backend_rejects_observer(self, framework):
        jobs = _jobs(framework, [(64, build_pipeline)] * 2)
        with pytest.raises(SimulationError):
            framework.executor.execute_many(
                jobs, backend="dag_replay", observer=lambda *args: None
            )

    def test_framework_backend_stats_accumulate(self):
        framework = NdftFramework()
        stats = framework.backend_stats
        assert set(backend_names()) <= set(stats)
        assert all(count == 0 for count in stats.values())
        framework.run_many([64, 128, 512])
        framework.run_many(
            [64, 128], pipeline_builder=build_kpoint_pipeline
        )
        stats = framework.backend_stats
        assert stats["chain_replay"] == 3
        assert stats["dag_replay"] == 2
        assert stats["engine"] == 0
        framework.run_many([64], backend="engine")
        assert framework.backend_stats["engine"] == 1


class TestEventCalendar:
    def test_pop_orders_by_time_then_fifo(self):
        calendar = EventCalendar(4)
        calendar.push(2.0, "late")
        calendar.push(1.0, "early")
        calendar.push(1.0, "early-second")
        calendar.push(0.5, "first")
        drained = [calendar.pop() for _ in range(len(calendar))]
        assert drained == [
            (0.5, "first"),
            (1.0, "early"),
            (1.0, "early-second"),
            (2.0, "late"),
        ]

    def test_seed_bulk_load_is_a_valid_heap(self):
        calendar = EventCalendar(3)
        calendar.seed([(0.0, "a"), (0.0, "b"), (1.0, "c")])
        calendar.push(0.5, "d")
        drained = [calendar.pop()[1] for _ in range(len(calendar))]
        assert drained == ["a", "b", "d", "c"]

    def test_payload_grows_beyond_capacity(self):
        calendar = EventCalendar(1)
        for i in range(5):
            calendar.push(float(i), i)
        assert [calendar.pop()[1] for _ in range(len(calendar))] == list(
            range(5)
        )
