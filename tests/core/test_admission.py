"""Admission control and the open-queue latency-accounting fixes.

The admission layer (:mod:`repro.core.arrivals` ``AdmissionPolicy`` /
``plan_admission``, consumed by ``NdftFramework.run_many(admission=)``)
must be deterministic, must act only when asked (admission off is
bit-identical to the pre-admission behavior), and must actually bound
the post-shed tail on the serving mix.  This file also pins the
latency-accounting bugfixes that ride along: busy-span throughput and
batching speedup under an open queue, and graceful degenerate (empty /
fully shed) batches in both report classes.
"""

import pytest

from repro.core.arrivals import (
    AdmissionPolicy,
    plan_admission,
    poisson_arrivals,
)
from repro.core.executor import BatchExecutionReport, PipelineExecutor
from repro.core.framework import NdftFramework
from repro.errors import ConfigError

#: The serve-bench default mix, repeated into a batch.
MIX = (64, 128, 512, 1024)


def _mix(n):
    return [MIX[i % len(MIX)] for i in range(n)]


class TestAdmissionPolicyValidation:
    def test_needs_at_least_one_criterion(self):
        with pytest.raises(ConfigError):
            AdmissionPolicy()

    def test_rejects_bad_mode(self):
        with pytest.raises(ConfigError):
            AdmissionPolicy(slo_p99=1.0, mode="drop")

    def test_rejects_nonpositive_bounds(self):
        with pytest.raises(ConfigError):
            AdmissionPolicy(slo_p99=0.0)
        with pytest.raises(ConfigError):
            AdmissionPolicy(max_queue_depth=0)

    @pytest.mark.parametrize("depth", [2.5, True, "4"])
    def test_rejects_non_integer_queue_depth(self, depth):
        with pytest.raises(ConfigError, match="max_queue_depth"):
            AdmissionPolicy(max_queue_depth=depth)

    def test_json_roundtrip_shape(self):
        policy = AdmissionPolicy(slo_p99=2.0, max_queue_depth=8)
        assert policy.to_json_dict() == {
            "slo_p99": 2.0,
            "max_queue_depth": 8,
            "mode": "shed",
        }


class TestPlanAdmission:
    def test_misaligned_inputs_rejected(self):
        policy = AdmissionPolicy(slo_p99=1.0)
        with pytest.raises(ConfigError):
            plan_admission(policy, [0.0, 1.0], [1.0], [("cpu",)], ["a"])

    def test_slo_sheds_backlogged_lane(self):
        """Three unit jobs on one lane arriving together: the third's
        predicted latency (two queued solos + its own) breaches a 2.5 s
        SLO while the first two fit."""
        policy = AdmissionPolicy(slo_p99=2.5)
        decisions = plan_admission(
            policy,
            [0.0, 0.0, 0.0],
            [1.0, 1.0, 1.0],
            [("cpu",)] * 3,
            ["a", "b", "c"],
        )
        assert [d.admitted for d in decisions] == [True, True, False]
        assert decisions[2].reason == "slo_p99"
        assert decisions[2].predicted_latency == 3.0

    def test_disjoint_lanes_do_not_interfere(self):
        policy = AdmissionPolicy(slo_p99=1.5)
        decisions = plan_admission(
            policy,
            [0.0, 0.0],
            [1.0, 1.0],
            [("cpu",), ("ndp",)],
            ["a", "b"],
        )
        assert all(d.admitted for d in decisions)

    def test_queue_depth_bounds_in_flight(self):
        """With depth 1, the second simultaneous arrival is shed even
        though no SLO is set; once the first drains, later arrivals are
        admitted again."""
        policy = AdmissionPolicy(max_queue_depth=1)
        decisions = plan_admission(
            policy,
            [0.0, 0.0, 5.0],
            [1.0, 1.0, 1.0],
            [("cpu",)] * 3,
            ["a", "b", "c"],
        )
        assert [d.admitted for d in decisions] == [True, False, True]
        assert decisions[1].reason == "queue_depth"

    def test_deprioritize_defers_instead_of_shedding(self):
        policy = AdmissionPolicy(slo_p99=2.5, mode="deprioritize")
        decisions = plan_admission(
            policy,
            [0.0, 0.0, 0.0],
            [1.0, 1.0, 1.0],
            [("cpu",)] * 3,
            ["a", "b", "c"],
        )
        assert [d.deferred for d in decisions] == [False, False, True]
        # Deferred to the predicted lane drain (two admitted solos).
        assert decisions[2].release == 2.0

    def test_deprioritize_depth_violation_defers_past_a_completion(self):
        """A queue-depth violator whose lanes are idle must still be
        genuinely deferred — at least to the earliest in-flight
        completion — not re-released at its own arrival (which would
        make deprioritize a no-op for depth violations)."""
        policy = AdmissionPolicy(max_queue_depth=1, mode="deprioritize")
        decisions = plan_admission(
            policy,
            [0.0, 0.0],
            [1.0, 1.0],
            [("cpu",), ("ndp",)],  # disjoint lanes: no backlog signal
            ["a", "b"],
        )
        assert decisions[0].admitted and decisions[1].deferred
        assert decisions[1].reason == "queue_depth"
        assert decisions[1].release == 1.0  # job a's predicted completion

    def test_arrival_ties_break_by_submission_index(self):
        policy = AdmissionPolicy(max_queue_depth=1)
        decisions = plan_admission(
            policy,
            [1.0, 1.0],
            [1.0, 1.0],
            [("cpu",)] * 2,
            ["first", "second"],
        )
        assert decisions[0].admitted and not decisions[1].admitted

    def test_plan_is_deterministic(self):
        policy = AdmissionPolicy(slo_p99=1.7, max_queue_depth=5)
        arrivals = poisson_arrivals(64, 6.0, seed=3)
        solos = [0.1 + (i % 7) * 0.3 for i in range(64)]
        lanes = [("cpu", "ndp") if i % 2 else ("ndp",) for i in range(64)]
        labels = [f"job{i}" for i in range(64)]
        first = plan_admission(policy, arrivals, solos, lanes, labels)
        second = plan_admission(policy, arrivals, solos, lanes, labels)
        assert first == second


class TestRunManyAdmission:
    @pytest.fixture(scope="class")
    def overload(self):
        """The default serve-bench mix offered well past its ~3.5 jobs/s
        saturation knee."""
        sizes = _mix(128)
        return sizes, poisson_arrivals(len(sizes), 5.0, seed=0)

    def test_admission_requires_arrivals(self):
        framework = NdftFramework()
        with pytest.raises(ConfigError):
            framework.run_many(
                [64, 128], admission=AdmissionPolicy(slo_p99=1.0)
            )

    def test_post_shed_p99_meets_the_slo(self, overload):
        """The acceptance criterion: past the knee, an SLO below the
        unshed p99 is actually met after shedding, and the shed set is
        visible (counts + labels)."""
        sizes, arrivals = overload
        framework = NdftFramework()
        unshed = framework.run_many(sizes, arrivals=arrivals)
        slo = 2.0
        assert unshed.p99_latency > slo  # the SLO genuinely binds
        shed = framework.run_many(
            sizes, arrivals=arrivals, admission=AdmissionPolicy(slo_p99=slo)
        )
        admission = shed.admission
        assert admission is not None
        assert admission.shed > 0
        assert admission.admitted + admission.shed == len(sizes)
        assert admission.shed_labels
        assert len(admission.shed_labels) == admission.shed
        assert shed.n_jobs == admission.admitted
        assert shed.p99_latency <= slo
        assert shed.slo_p99_latency == shed.p99_latency  # shed mode
        assert 0.0 < admission.shed_rate < 1.0

    def test_lane_utilization_identifies_the_saturated_lane(self, overload):
        """Past the knee the NDP units are the bottleneck of the default
        mix: their lane reads near-1.0 utilization and dominates every
        other lane; shedding visibly relieves it."""
        sizes, arrivals = overload
        framework = NdftFramework()
        unshed = framework.run_many(sizes, arrivals=arrivals)
        utilization = unshed.lane_utilization
        dominant = max(utilization, key=utilization.get)
        assert dominant == "ndp"
        assert utilization["ndp"] > 0.9
        assert all(
            utilization[lane] < utilization["ndp"]
            for lane in utilization
            if lane != "ndp"
        )
        shed = framework.run_many(
            sizes, arrivals=arrivals, admission=AdmissionPolicy(slo_p99=2.0)
        )
        assert shed.lane_utilization["ndp"] < utilization["ndp"]

    def test_same_seed_and_slo_shed_the_same_set(self, overload):
        """Admission-policy determinism: the shed set is a pure function
        of (arrivals, policy), across calls and across frameworks."""
        sizes, arrivals = overload
        policy = AdmissionPolicy(slo_p99=2.0)
        first = NdftFramework().run_many(
            sizes, arrivals=arrivals, admission=policy
        )
        second = NdftFramework().run_many(
            sizes, arrivals=arrivals, admission=policy
        )
        assert first.admission.decisions == second.admission.decisions
        assert first.admission.shed_labels == second.admission.shed_labels
        assert first.completion_latencies == second.completion_latencies

    def test_admission_off_is_bit_identical(self, overload):
        """run_many without admission= must reproduce the pre-admission
        behavior exactly: same reports, same backend selection, same
        latencies."""
        sizes, arrivals = overload
        plain = NdftFramework().run_many(sizes, arrivals=arrivals)
        explicit = NdftFramework().run_many(
            sizes, arrivals=arrivals, admission=None
        )
        assert explicit.admission is None
        assert explicit.makespan == plain.makespan
        assert explicit.solo_times == plain.solo_times
        assert (
            explicit.batch_report.job_reports == plain.batch_report.job_reports
        )
        assert explicit.batch_report.backend_jobs == plain.batch_report.backend_jobs
        assert explicit.slo_latencies == explicit.completion_latencies

    def test_deprioritize_executes_everything(self, overload):
        """deprioritize mode sheds nothing: every submitted job runs,
        deferred ones at their predicted drain, and only admitted jobs
        count toward the SLO percentiles."""
        sizes, arrivals = overload
        result = NdftFramework().run_many(
            sizes,
            arrivals=arrivals,
            admission=AdmissionPolicy(slo_p99=2.0, mode="deprioritize"),
        )
        admission = result.admission
        assert admission.shed == 0
        assert admission.deferred > 0
        assert result.n_jobs == len(sizes)
        assert len(result.slo_latencies) == admission.admitted
        # Deferred releases never precede the job's arrival.
        for decision in admission.decisions:
            assert decision.release >= decision.arrival

    def test_shedding_everything_degrades_gracefully(self):
        """An SLO below every solo time sheds the whole batch: the
        result is empty but every accessor still answers."""
        sizes = _mix(8)
        arrivals = poisson_arrivals(len(sizes), 2.0, seed=0)
        result = NdftFramework().run_many(
            sizes, arrivals=arrivals, admission=AdmissionPolicy(slo_p99=1e-9)
        )
        assert result.n_jobs == 0
        assert result.admission.shed == len(sizes)
        assert result.admission.shed_rate == 1.0
        assert result.completion_latencies == ()
        assert result.p50_latency == 0.0
        assert result.p99_latency == 0.0
        assert result.slo_p99_latency == 0.0
        assert result.mean_queueing_delay == 0.0
        assert result.throughput == 0.0
        assert result.makespan == 0.0
        assert result.batching_speedup == 1.0
        assert result.lane_utilization == {}


class TestBusySpanAccounting:
    """The open-queue throughput/speedup bugfix: shared-machine time is
    the busy span (first release -> last completion), not the makespan
    with its idle arrival ramp."""

    def test_open_queue_throughput_excludes_arrival_ramp(self):
        sizes = _mix(16)
        # A long idle ramp: nothing is released before t=100.
        arrivals = [100.0 + offset for offset in poisson_arrivals(16, 2.0)]
        result = NdftFramework().run_many(sizes, arrivals=arrivals)
        span = result.makespan - min(arrivals)
        assert result.busy_span == span
        assert result.throughput == len(sizes) / span
        assert result.batching_speedup == result.serial_time / span
        # The ramp would have more than halved the reported rate.
        assert result.throughput > 2 * len(sizes) / result.makespan

    def test_closed_batch_unchanged(self):
        """The t=0 batch is the documented special case: busy span ==
        makespan, so throughput and speedup are exactly the pre-fix
        values."""
        result = NdftFramework().run_many(_mix(8))
        assert result.busy_span == result.makespan
        assert result.throughput == result.n_jobs / result.makespan
        assert (
            result.batching_speedup == result.serial_time / result.makespan
        )

    def test_executor_report_agrees(self, framework):
        from repro.core.pipeline import build_pipeline
        from repro.dft.workload import problem_size

        pipeline = framework._build_pipeline(problem_size(64), build_pipeline)
        schedule = framework._schedule_for(
            pipeline, framework.job_signature(pipeline)
        )
        jobs = [(pipeline, schedule)] * 4
        arrivals = [3.0, 3.5, 4.0, 4.5]
        report = framework.executor.execute_many(jobs, arrivals=arrivals)
        assert report.first_release == 3.0
        assert report.busy_span == report.makespan - 3.0
        assert report.throughput == 4 / report.busy_span

    def test_empty_report_degrades_gracefully(self):
        report = BatchExecutionReport(job_reports=(), makespan=0.0, arrivals=())
        assert report.n_jobs == 0
        assert report.completion_latencies == ()
        assert report.first_release == 0.0
        assert report.busy_span == 0.0
        assert report.throughput == 0.0
        assert report.lane_busy_seconds == {}
        assert report.lane_utilization == {}


class TestScheduleLanes:
    def test_lanes_cover_devices_and_wires(self, framework):
        from repro.core.pipeline import build_pipeline
        from repro.dft.workload import problem_size

        pipeline = framework._build_pipeline(problem_size(512), build_pipeline)
        schedule = framework._schedule_for(
            pipeline, framework.job_signature(pipeline)
        )
        lanes = PipelineExecutor.schedule_lanes(schedule)
        assert set(lanes) == {"cpu", "ndp", "link:cpu-ndp"}
        # Deterministic (sorted) so admission plans are reproducible.
        assert list(lanes) == sorted(lanes)
