"""The columnar batch path: batch entries are validated and grouped by
distinct job once, every per-signature derivation runs once per group,
and none of it changes a single result."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arrivals import AdmissionPolicy, poisson_arrivals
from repro.core.faults import FaultPlan, RetryPolicy, poisson_fault_plan
from repro.core.framework import NdftFramework
from repro.core.pipeline import build_kpoint_pipeline, build_pipeline
from repro.dft.workload import problem_size
from repro.errors import ConfigError, SimulationError
from repro.fleet import WorkerPool


class TestBatchEntryValidation:
    def test_bool_entry_rejected(self):
        with pytest.raises(ConfigError, match="batch entry 0"):
            NdftFramework().run_many([True])

    def test_non_integral_entry_rejected(self):
        with pytest.raises(ConfigError, match="batch entry 1"):
            NdftFramework().run_many([64, 64.5])

    def test_integral_float_entry_rejected(self):
        """64.0 == 64, but a float is not an atom count."""
        with pytest.raises(ConfigError, match="batch entry 1"):
            NdftFramework().run_many([64, 64.0])

    def test_non_int_like_entries_rejected(self):
        for entry in ("64", None, np.float64(64.0), np.True_):
            with pytest.raises(ConfigError, match="batch entry 0"):
                NdftFramework().run_many([entry])

    def test_unhashable_entry_rejected(self):
        with pytest.raises(ConfigError, match="batch entry 2"):
            NdftFramework().run_many([64, 64, [64]])

    def test_nonpositive_entry_names_its_index(self):
        with pytest.raises(ConfigError, match="batch entry 1.*n_atoms"):
            NdftFramework().run_many([64, 0])

    def test_uncached_framework_validates_too(self):
        with pytest.raises(ConfigError, match="batch entry 0"):
            NdftFramework(memoize=False).run_many([True])

    def test_job_estimates_and_run_validate(self):
        framework = NdftFramework()
        with pytest.raises(ConfigError, match="batch entry 1"):
            framework.job_estimates([64, 64.5])
        with pytest.raises(ConfigError, match="batch entry 0"):
            framework.run(n_atoms=True)

    def test_numpy_int_and_int_are_one_job(self):
        framework = NdftFramework()
        batch = framework.run_many([np.int64(64), 64, np.int32(64)])
        stats = framework.cache_stats
        assert stats["schedule_misses"] == 1
        assert stats["schedule_hits"] == 2
        first, second, third = batch.jobs
        assert first.schedule is second.schedule is third.schedule
        assert first.problem == problem_size(64)
        assert batch.batch_report.n_superjobs == 1

    def test_problem_size_and_int_are_one_job(self):
        framework = NdftFramework()
        framework.run_many([64, problem_size(64)])
        assert framework.cache_stats["pipeline_misses"] == 1
        assert framework.cache_stats["pipeline_hits"] == 1


class TestNonFiniteInputsRejected:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_run_many_arrivals(self, bad):
        with pytest.raises(ConfigError, match="arrival offset 1"):
            NdftFramework().run_many([64, 64], arrivals=[0.0, bad])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_execute_many_arrivals(self, bad):
        framework = NdftFramework()
        pipeline = framework._build_pipeline(problem_size(64), build_pipeline)
        schedule = framework._schedule_for(
            pipeline, framework.job_signature(pipeline)
        )
        with pytest.raises(SimulationError, match="arrival offset 1"):
            framework.executor.execute_many(
                [(pipeline, schedule)] * 2, arrivals=[0.0, bad]
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_admission_slo(self, bad):
        with pytest.raises(ConfigError, match="slo_p99"):
            AdmissionPolicy(slo_p99=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_poisson_rate(self, bad):
        with pytest.raises(ConfigError, match="arrival rate"):
            poisson_arrivals(4, bad)

    def test_fleet_arrivals(self):
        with WorkerPool(1, inline=True) as pool:
            with pytest.raises(ConfigError, match="arrival offset 1"):
                pool.serve([64, 64], arrivals=[0.0, math.nan])


class TestTextInputsRejected:
    """``float`` parses numeric strings, so without a type check ``"1"``
    would pass for a number wherever a boundary converts with it."""

    def test_fault_plan_windows(self):
        with pytest.raises(ConfigError, match="outage start"):
            FaultPlan(outages=(("ndp", "1", "2"),))
        with pytest.raises(ConfigError, match="outage end"):
            FaultPlan(outages=(("ndp", 1.0, b"2"),))

    def test_retry_policy(self):
        with pytest.raises(ConfigError, match="backoff_base"):
            RetryPolicy(backoff_base="0.1")
        with pytest.raises(ConfigError, match="job_timeout"):
            RetryPolicy(job_timeout="5")

    def test_run_many_arrivals(self):
        with pytest.raises(ConfigError, match="arrival offset 1"):
            NdftFramework().run_many([64, 64], arrivals=[0.0, "1.0"])

    def test_poisson_fault_plan(self):
        with pytest.raises(ConfigError, match="mtbf"):
            poisson_fault_plan(["ndp"], "1.0", 1.0, 10.0)

    def test_admission_policy(self):
        with pytest.raises(ConfigError, match="slo_p99"):
            AdmissionPolicy(slo_p99="2.0")

    def test_admission_policy_stores_the_validated_float(self):
        policy = AdmissionPolicy(slo_p99=2)
        assert type(policy.slo_p99) is float
        assert policy.to_json_dict()["slo_p99"] == 2.0


#: Prebuilt pipelines shared across examples, so batches repeat the
#: very same objects (identity groups) as well as equal sizes.
_PREBUILT = (
    build_pipeline(problem_size(64)),
    build_kpoint_pipeline(problem_size(64)),
    build_kpoint_pipeline(problem_size(128)),
)

_entries = st.one_of(
    st.sampled_from((16, 64, 128)),
    st.sampled_from((16, 64)).map(np.int64),
    st.sampled_from((64, 128)).map(problem_size),
    st.sampled_from(_PREBUILT),
)


class TestGroupingChangesNoResult:
    @settings(max_examples=25, deadline=None)
    @given(
        batch=st.lists(_entries, min_size=1, max_size=8),
        open_queue=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_grouped_matches_uncached_and_engine(self, batch, open_queue, seed):
        arrivals = (
            poisson_arrivals(len(batch), 2.0, seed=seed) if open_queue else None
        )
        grouped = NdftFramework().run_many(batch, arrivals=arrivals)
        references = (
            NdftFramework(memoize=False).run_many(batch, arrivals=arrivals),
            NdftFramework().run_many(batch, arrivals=arrivals, backend="engine"),
        )
        for reference in references:
            assert (
                grouped.batch_report.job_reports
                == reference.batch_report.job_reports
            )
            assert (
                grouped.batch_report.lane_occupancy
                == reference.batch_report.lane_occupancy
            )
            assert grouped.solo_times == reference.solo_times
            assert grouped.makespan == reference.makespan
            assert grouped.p99_latency == reference.p99_latency
            for job, ref in zip(grouped.jobs, reference.jobs):
                assert job.problem == ref.problem
                assert job.schedule == ref.schedule
                assert job.sca_reports == ref.sca_reports
                assert job.memory_footprint_gb == ref.memory_footprint_gb


class TestCacheOrder:
    def test_probe_before_fill_resists_cyclic_scans(self):
        """12 distinct sizes against 8-entry caches: the hits are
        refreshed before the misses are filled, so a repeat call misses
        only the 4 sizes that do not fit (filling in first-occurrence
        order would evict each size just before it is needed: 12 misses
        every call)."""
        sizes = [16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024]
        framework = NdftFramework(cache_size=8)
        framework.run_many(sizes)
        framework.run_many(sizes)
        before = framework.cache_stats["schedule_misses"]
        framework.run_many(sizes)
        assert framework.cache_stats["schedule_misses"] - before == 4

    def test_counters_keep_per_job_meaning(self):
        framework = NdftFramework()
        prebuilt = framework._build_pipeline(problem_size(64), build_pipeline)
        framework.run_many([64, prebuilt, 512, 64, problem_size(512)])
        stats = framework.cache_stats
        for kind in ("schedule", "solo", "sca", "signature"):
            assert stats[f"{kind}_misses"] == 2
            assert stats[f"{kind}_hits"] == 3
