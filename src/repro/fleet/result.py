"""Fleet-level aggregation of per-replica serving results.

A :class:`FleetResult` is what ``WorkerPool.serve`` returns: the
deterministic routing plan, one :class:`ReplicaSummary` per replica
(virtual-time numbers lifted from each worker's
:class:`~repro.core.framework.NdftBatchResult`, reduced to picklable
plain data for the process boundary), and the fleet rollups the serving
benchmark quotes — aggregate throughput, p50/p99 completion latency over
*all* jobs, per-replica utilization and the imbalance ratio.  Everything
except the measured wall seconds is pure virtual-time arithmetic, so two
runs with the same plan produce equal results no matter how the worker
processes interleaved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.arrivals import percentile
from repro.fleet.router import RoutingPlan


@dataclass(frozen=True)
class ReplicaSummary:
    """One replica's contribution to a served batch.

    ``job_indices`` are global submission indices in the replica's local
    submission order; ``completion_times`` align with them (virtual
    seconds on the shared t=0 timeline).  An unused replica (fewer jobs
    than replicas) has empty tuples and zero spans."""

    replica: int
    job_indices: tuple[int, ...]
    completion_times: tuple[float, ...]
    makespan: float
    busy_span: float
    lane_busy_seconds: dict[str, float] = field(default_factory=dict)
    backend_jobs: dict[str, int] = field(default_factory=dict)
    #: Host wall seconds the worker spent simulating (all rounds).
    wall_seconds: float = 0.0

    @property
    def n_jobs(self) -> int:
        return len(self.job_indices)

    @property
    def throughput(self) -> float:
        """Jobs per second of this replica's busy span (virtual)."""
        if self.busy_span <= 0:
            return 0.0
        return self.n_jobs / self.busy_span


@dataclass(frozen=True)
class FleetResult:
    """A batch served by the whole fleet.

    ``arrivals`` is the global release stream (``None`` = closed batch,
    every job at t=0 on its replica); ``rounds`` is how many times each
    worker repeated the identical simulation inside the measured wall
    (sustained-serving measurement — results are bit-identical across
    rounds, only the wall accumulates).  ``merged_entries`` counts the
    never-seen cache entries the post-run merge-back folded from the
    workers into the shared snapshot."""

    plan: RoutingPlan
    arrivals: tuple[float, ...] | None
    replicas: tuple[ReplicaSummary, ...]
    wall_seconds: float
    rounds: int = 1
    merged_entries: int = 0

    @property
    def n_replicas(self) -> int:
        return self.plan.n_replicas

    @property
    def n_jobs(self) -> int:
        return self.plan.n_jobs

    @property
    def completion_times(self) -> tuple[float, ...]:
        """Per-job virtual completion, scattered back to global
        submission order — directly comparable, job for job, with a
        single-process run of the same assignment."""
        out: list[float] = [0.0] * self.n_jobs
        for summary in self.replicas:
            for index, completion in zip(
                summary.job_indices, summary.completion_times
            ):
                out[index] = completion
        return tuple(out)

    @property
    def completion_latencies(self) -> tuple[float, ...]:
        """Per-job completion minus release, global submission order."""
        completions = self.completion_times
        if self.arrivals is None:
            return completions
        return tuple(
            completion - release
            for completion, release in zip(completions, self.arrivals)
        )

    def latency_percentile(self, q: float) -> float:
        latencies = self.completion_latencies
        if not latencies:
            return 0.0
        return percentile(latencies, q)

    @property
    def p50_latency(self) -> float:
        return self.latency_percentile(50.0)

    @property
    def p99_latency(self) -> float:
        return self.latency_percentile(99.0)

    @property
    def makespan(self) -> float:
        """Last completion across the fleet (virtual)."""
        return max((s.makespan for s in self.replicas), default=0.0)

    @property
    def busy_span(self) -> float:
        """First release to last completion across the fleet."""
        completions = self.completion_times
        if not completions:
            return 0.0
        first_release = (
            0.0 if self.arrivals is None else min(self.arrivals)
        )
        return max(completions) - first_release

    @property
    def throughput(self) -> float:
        """Fleet jobs per second of virtual busy span.  N replicas
        draining in parallel finish the span sooner, so this scales
        with the fleet — it is the virtual-time counterpart of the
        measured :attr:`jobs_per_second_wall`."""
        span = self.busy_span
        if span <= 0:
            return 0.0
        return self.n_jobs / span

    @property
    def jobs_per_second_wall(self) -> float:
        """Measured host throughput: jobs simulated (all rounds) per
        wall second of the whole serve call — routing, dispatch,
        simulation and merge-back included."""
        if self.wall_seconds <= 0:
            return 0.0
        return (self.n_jobs * self.rounds) / self.wall_seconds

    @property
    def lane_busy_seconds(self) -> dict[str, float]:
        """Virtual busy seconds per lane name, summed across replicas
        (each replica is its own machine; same-named lanes add)."""
        totals: dict[str, float] = {}
        for summary in self.replicas:
            for lane, busy in summary.lane_busy_seconds.items():
                totals[lane] = totals.get(lane, 0.0) + busy
        return totals

    @property
    def lane_utilization(self) -> dict[str, float]:
        """Fleet-average busy fraction per lane: summed busy seconds
        over ``n_replicas`` copies of the fleet busy span."""
        span = self.busy_span
        if span <= 0:
            return {}
        denominator = span * self.n_replicas
        return {
            lane: busy / denominator
            for lane, busy in sorted(self.lane_busy_seconds.items())
        }

    @property
    def replica_utilization(self) -> tuple[float, ...]:
        """Each replica's busy span as a fraction of the fleet busy
        span — how evenly the router kept the fleet working."""
        span = self.busy_span
        if span <= 0:
            return tuple(0.0 for _ in self.replicas)
        return tuple(s.busy_span / span for s in self.replicas)

    @property
    def imbalance_ratio(self) -> float:
        """Max over mean of the per-replica busy spans (1.0 = perfectly
        balanced; an idle replica drags the mean down and pushes the
        ratio up).  1.0 for a degenerate fleet with no busy time."""
        spans = [s.busy_span for s in self.replicas]
        if not spans:
            return 1.0
        mean = sum(spans) / len(spans)
        if mean <= 0:
            return 1.0
        return max(spans) / mean

    @property
    def backend_jobs(self) -> dict[str, int]:
        """Jobs simulated per backend name, summed across replicas."""
        totals: dict[str, int] = {}
        for summary in self.replicas:
            for name, count in summary.backend_jobs.items():
                totals[name] = totals.get(name, 0) + count
        return totals
