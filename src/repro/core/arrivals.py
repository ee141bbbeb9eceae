"""Arrival processes, latency statistics and admission control for
open-queue serving.

The classic batch mode releases every job at t=0; a real DFT service
sees staggered arrivals.  :func:`poisson_arrivals` generates the
standard open-queue workload — exponential inter-arrival gaps at a given
offered load, from a seeded generator so every experiment is exactly
reproducible — and :func:`percentile` computes the p50/p99 completion
latencies the serving reports quote (linear interpolation between order
statistics, the numpy default, implemented locally so the core stays
dependency-free).

The arrival sampler is vectorized (one numpy draw plus a cumulative
sum) but stays *bit-compatible* with the original
``random.Random(seed).expovariate(rate)`` loop: committed benchmark
artifacts record offsets from specific seeds, and those must never
drift.  Two details make that exact rather than approximate: numpy's
``RandomState`` is seeded with the same init-by-array key CPython
derives from an int seed, so both visit the identical Mersenne Twister
stream, and the log transform goes through ``math.log`` (libm) because
numpy's SIMD ``np.log`` differs from libm by one ulp on a fraction of
inputs.  ``tests/core/test_arrivals_vectorized.py`` keeps the original
loop as the regression oracle.

Past the saturation knee an open queue grows without bound, so a served
deployment needs to *act* at admission time: :class:`AdmissionPolicy`
declares the SLO (:attr:`~AdmissionPolicy.slo_p99` on predicted
completion latency, :attr:`~AdmissionPolicy.max_queue_depth` on
in-flight jobs) and what to do with violators (``shed`` drops them,
``deprioritize`` defers them behind the backlog), and
:func:`plan_admission` applies it deterministically over a batch's
arrival order using each job's memoized solo-time estimate and a
per-lane backlog model.  :meth:`repro.core.framework.NdftFramework.run_many`
consumes the plan before simulating.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigError, finite_float, positive_int

# Re-exported from the foundation layer so existing callers keep this
# import path; the implementation lives in repro.stats, low enough for
# the simulation layer (core/faults.py) to use without importing upward.
from repro.stats import percentile

__all__ = [
    "ADMISSION_MODES",
    "AdmissionDecision",
    "AdmissionPolicy",
    "percentile",
    "plan_admission",
    "poisson_arrivals",
]


def _mt_seed_key(seed: int) -> list[int]:
    """The init-by-array key CPython derives from an int seed.

    ``random.Random(seed)`` folds ``abs(seed)`` into 32-bit
    little-endian chunks and feeds them to the Mersenne Twister's
    ``init_by_array``; ``numpy.random.RandomState`` accepts the same key
    and then produces the identical 53-bit uniform stream.
    """
    magnitude = abs(int(seed))
    if magnitude == 0:
        return [0]
    key = []
    while magnitude:
        key.append(magnitude & 0xFFFFFFFF)
        magnitude >>= 32
    return key


def poisson_arrivals(
    n_jobs: int, rate: float, seed: int = 0
) -> tuple[float, ...]:
    """Release offsets of a Poisson arrival process.

    ``rate`` is the offered load in jobs per second of virtual time;
    inter-arrival gaps are exponential with mean ``1/rate``.  The first
    job arrives after one gap (not at t=0), and offsets are
    non-decreasing — the order the open queue admits them.

    Vectorized, but bit-identical to the scalar
    ``Random(seed).expovariate(rate)`` loop for every (seed, rate): the
    uniforms come from the same Mersenne Twister stream and the
    exponential transform applies libm's log to each draw, exactly as
    ``Random.expovariate`` does.  A non-finite ``rate``, an ``n_jobs``
    that is not an integer >= 1 and a ``seed`` that is not an integer
    raise :class:`~repro.errors.ConfigError`.
    """
    n_jobs = positive_int(n_jobs, "n_jobs")
    try:
        seed = operator.index(seed)
    except TypeError:
        raise ConfigError(f"seed must be an integer, got {seed!r}") from None
    rate = finite_float(rate, "arrival rate")
    if rate <= 0:
        raise ConfigError(f"arrival rate must be > 0, got {rate}")
    uniforms = np.random.RandomState(_mt_seed_key(seed)).random_sample(n_jobs)
    np.subtract(1.0, uniforms, out=uniforms)
    # math.log, not np.log: the SIMD log differs from libm by one ulp on
    # a fraction of inputs, which would silently shift committed offsets.
    gaps = np.fromiter(
        map(math.log, uniforms.tolist()), dtype=np.float64, count=n_jobs
    )
    gaps /= -rate
    return tuple(np.add.accumulate(gaps).tolist())


#: Admission verdicts a policy can take on an over-SLO arrival.
ADMISSION_MODES = ("shed", "deprioritize")


@dataclass(frozen=True)
class AdmissionPolicy:
    """An SLO-driven admission policy for the open-queue serving path.

    ``slo_p99`` bounds the *predicted* completion latency (seconds of
    virtual time) an arrival may add to the tail: a job whose solo-time
    estimate plus the current backlog on its placement's lanes would
    exceed it is not admitted.  ``max_queue_depth`` bounds how many
    admitted jobs may be in flight (per their predicted completions)
    when a new job arrives.  Either criterion may be ``None``
    (unchecked); at least one must be set.

    ``mode`` picks the action on a violator: ``"shed"`` rejects it
    outright (it is never simulated), ``"deprioritize"`` keeps it but
    defers its release until its lanes' backlog is predicted to drain —
    it still runs, still occupies lanes, but no longer competes inside
    the SLO window and is excluded from the post-shed percentiles.

    The policy is pure data and the plan is a deterministic function of
    (policy, arrivals, solo estimates, lanes): the same seed and SLO
    always shed the same set.
    """

    slo_p99: float | None = None
    max_queue_depth: int | None = None
    mode: str = "shed"

    def __post_init__(self):
        if self.mode not in ADMISSION_MODES:
            raise ConfigError(
                f"admission mode must be one of {ADMISSION_MODES}, "
                f"got {self.mode!r}"
            )
        if self.slo_p99 is None and self.max_queue_depth is None:
            raise ConfigError(
                "an admission policy needs slo_p99 and/or max_queue_depth"
            )
        # A NaN SLO compares false against every prediction, so it
        # would silently admit everything.
        if self.slo_p99 is not None:
            finite_float(self.slo_p99, "slo_p99")
        if self.slo_p99 is not None and self.slo_p99 <= 0:
            raise ConfigError(f"slo_p99 must be > 0, got {self.slo_p99}")
        if self.max_queue_depth is not None:
            object.__setattr__(
                self,
                "max_queue_depth",
                positive_int(self.max_queue_depth, "max_queue_depth"),
            )

    def to_json_dict(self) -> dict:
        """The policy as the plain dict recorded in benchmark artifacts
        (``BENCH_serving.json``'s top-level ``admission`` key)."""
        return {
            "slo_p99": self.slo_p99,
            "max_queue_depth": self.max_queue_depth,
            "mode": self.mode,
        }


@dataclass(frozen=True)
class AdmissionDecision:
    """One arrival's verdict under an :class:`AdmissionPolicy`.

    ``admitted`` jobs run at their arrival and count toward the SLO
    percentiles.  ``deferred`` jobs (``deprioritize`` mode only) run at
    the later ``release`` and are excluded from the SLO accounting.
    Jobs that are neither are shed: never simulated.  ``reason`` names
    the violated criterion (``"slo_p99"`` / ``"queue_depth"``) and is
    ``None`` for admitted jobs."""

    index: int
    label: str
    arrival: float
    predicted_latency: float
    admitted: bool
    deferred: bool
    release: float
    reason: str | None


def plan_admission(
    policy: AdmissionPolicy,
    arrivals: Sequence[float],
    solo_times: Sequence[float],
    lanes: Sequence[tuple],
    labels: Sequence[str],
) -> tuple[AdmissionDecision, ...]:
    """Apply ``policy`` over a batch, in arrival order.

    The backlog model is deliberately conservative: an admitted job is
    charged to *every* lane its placement touches (devices and crossing
    wires) from its predicted start — ``max(arrival, its lanes' drain
    time)`` — until ``start + solo_time``, i.e. the estimate serializes
    the work shared lanes would contend over and ignores the overlap
    the real DES finds.  Over-estimating the backlog sheds early, which
    is the safe direction for an SLO.  ``solo_times`` are the memoized
    dedicated-machine makespans the framework already derives per
    distinct signature; ``lanes[i]`` is job ``i``'s lane-name tuple
    (:meth:`repro.core.executor.PipelineExecutor.schedule_lanes`).

    Ties on the arrival instant are broken by submission index, exactly
    like the simulator's release order.  Returns one decision per job,
    in submission order.
    """
    n = len(arrivals)
    if not (len(solo_times) == len(lanes) == len(labels) == n):
        raise ConfigError(
            "arrivals, solo_times, lanes and labels must align: got "
            f"{n}/{len(solo_times)}/{len(lanes)}/{len(labels)}"
        )
    lane_free: dict = {}
    in_flight: list[float] = []  # predicted completions of admitted jobs
    decisions: list[AdmissionDecision | None] = [None] * n
    for i in sorted(range(n), key=lambda j: (arrivals[j], j)):
        arrival = float(arrivals[i])
        while in_flight and in_flight[0] <= arrival:
            heapq.heappop(in_flight)
        start = arrival
        for lane in lanes[i]:
            free = lane_free.get(lane)
            if free is not None and free > start:
                start = free
        predicted_completion = start + solo_times[i]
        predicted_latency = predicted_completion - arrival
        reason = None
        if (
            policy.max_queue_depth is not None
            and len(in_flight) >= policy.max_queue_depth
        ):
            reason = "queue_depth"
        elif policy.slo_p99 is not None and predicted_latency > policy.slo_p99:
            reason = "slo_p99"
        if reason is None:
            for lane in lanes[i]:
                lane_free[lane] = predicted_completion
            heapq.heappush(in_flight, predicted_completion)
            decisions[i] = AdmissionDecision(
                index=i,
                label=labels[i],
                arrival=arrival,
                predicted_latency=predicted_latency,
                admitted=True,
                deferred=False,
                release=arrival,
                reason=None,
            )
        elif policy.mode == "shed":
            decisions[i] = AdmissionDecision(
                index=i,
                label=labels[i],
                arrival=arrival,
                predicted_latency=predicted_latency,
                admitted=False,
                deferred=False,
                release=arrival,
                reason=reason,
            )
        else:
            # Deprioritize: defer the release to the predicted drain of
            # whatever the job violated — its lanes' backlog, and (for a
            # depth violation, where the lanes may well be idle) at
            # least the earliest in-flight completion, so deferral is
            # never a no-op that re-admits the job at its own arrival.
            release = start
            if reason == "queue_depth" and in_flight and in_flight[0] > release:
                release = in_flight[0]
            completion = release + solo_times[i]
            for lane in lanes[i]:
                lane_free[lane] = completion
            decisions[i] = AdmissionDecision(
                index=i,
                label=labels[i],
                arrival=arrival,
                predicted_latency=predicted_latency,
                admitted=False,
                deferred=True,
                release=release,
                reason=reason,
            )
    return tuple(decisions)  # type: ignore[arg-type]


