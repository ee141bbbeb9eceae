"""Pipeline executor: maps schedules onto the machine models via the DES.

The executor turns a :class:`~repro.core.scheduler.Schedule` into a
discrete-event simulation: one process per stage that (1) waits for *all*
of its DAG predecessors, (2) pays any cross-boundary transfer of its
inputs over the link serving that device pair (one transfer per crossing
in-edge; the CPU<->NDP host link by default, per-pair wires when the
cost model defines them), (3) occupies its assigned device for the
stage's modeled duration.  Devices and links are engine resources, so
independent branches placed on distinct devices genuinely overlap while
stages contending for the same device — or concurrent transfers
contending for the same wire — serialize exactly as they would on the
real hardware.

Two entry points:

- :meth:`PipelineExecutor.execute` — one job, one engine; on the paper's
  linear chain this reproduces the original serialized totals exactly
  (the Fig. 7 data).
- :meth:`PipelineExecutor.execute_many` — a batch of jobs on one shared
  set of device/link resources: the batching back-end of
  :meth:`repro.core.framework.NdftFramework.run_many`.  One shard loop
  splits the batch into contention shards and hands each to a
  simulation backend (:mod:`repro.core.backends`), or straight to the
  generator engine when an observer or a fault plan needs it; every
  route gives the floats of one engine shared by the whole batch.

An ``observer`` callback (``lane, label, start, end``) receives every
occupancy interval — device lanes are named after the placement
(``"cpu"``/``"ndp"``/``"gpu"``), transfers land on one lane per physical
wire (``"link:cpu-ndp"``, ``"link:cpu-gpu"``, ...) — which is how
:mod:`repro.core.trace` rebuilds exact Gantt timelines without a second
timing model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Sequence

import repro.core.backends as _backends
from repro.core.backends import JobTable
from repro.core.cost_model import OffloadCostModel
from repro.core.faults import FaultPlan, RunFailure
from repro.core.pipeline import Pipeline
from repro.core.scheduler import Placement, Schedule
from repro.errors import SimulationError, finite_floats
from repro.hw.engine import Engine, Resource, SimProcess
from repro.hw.timing import PhaseTime

#: Trace callback: (lane, label, start_seconds, end_seconds).
TraceObserver = Callable[[str, str, float, float], None]

#: Prefix of every trace lane carrying boundary transfers; each physical
#: wire gets its own lane ("link:cpu-ndp", "link:cpu-gpu", ...) because
#: distinct wires legitimately carry transfers concurrently.
LINK_LANE_PREFIX = "link"

#: Name of the universal-fallback backend in the registry.
_ENGINE_BACKEND = "engine"


def lane_name(key: object) -> str:
    """The trace-lane name of one simulated resource: a device lane for
    a :class:`Placement` (``"cpu"``/``"ndp"``/``"gpu"``), a wire lane
    for a placement-pair frozenset (``"link:cpu-ndp"``) — exactly the
    names the engine's resources and the trace observer use, so lane
    accounting keys agree across every backend."""
    if isinstance(key, frozenset):
        return LINK_LANE_PREFIX + ":" + "-".join(
            sorted(p.value for p in key)
        )
    return str(key)


@dataclass(frozen=True, slots=True)
class ExecutionReport:
    """Result of executing one pipeline under one schedule.

    ``total_time`` is the DES makespan: for a chain it equals the sum of
    phase times plus the scheduling overhead; for a branching DAG it can
    be smaller (branch overlap), and for a job inside a batch it includes
    any time spent queueing for shared devices.
    """

    phase_seconds: dict[str, float]
    phase_times: dict[str, PhaseTime]
    scheduling_overhead: float
    total_time: float
    assignments: dict[str, Placement] = field(default_factory=dict)

    def at(self, total_time: float) -> "ExecutionReport":
        """This report with another ``total_time`` — how a super-job's
        template report becomes each replica's (every other field is
        shared, not copied)."""
        return ExecutionReport(
            self.phase_seconds,
            self.phase_times,
            self.scheduling_overhead,
            total_time,
            self.assignments,
        )

    @property
    def overhead_fraction(self) -> float:
        if self.total_time == 0:
            return 0.0
        return self.scheduling_overhead / self.total_time

    @property
    def serial_time(self) -> float:
        """The no-overlap bound: every stage back to back plus overhead."""
        return sum(self.phase_seconds.values()) + self.scheduling_overhead

    def breakdown(self) -> dict[str, float]:
        """Per-phase seconds plus a 'scheduling' bucket (Fig. 7 bars)."""
        out = dict(self.phase_seconds)
        out["scheduling"] = self.scheduling_overhead
        return out


@dataclass(frozen=True, slots=True)
class ShardTiming:
    """Wall-clock accounting for one simulated contention shard.

    ``backend`` is the registry name of the backend that actually timed
    the shard; ``wall_seconds`` is host (not virtual) time spent
    simulating it, measured around the whole backend walk including any
    declined attempts.  The remaining fields are the shard features
    humans debug with: job count, signature-coalesced super-job count
    (0 on the uncollapsed engine path), total stage count across the
    shard's distinct templates, and whether every job is a single
    chain.
    """

    backend: str
    wall_seconds: float
    n_jobs: int
    n_superjobs: int
    n_stages: int
    is_chain: bool


@dataclass(frozen=True, slots=True)
class BatchExecutionReport:
    """Result of executing a batch of jobs on one shared machine.

    ``arrivals`` is the per-job release offset when the batch ran as an
    open queue (``None`` for the classic everyone-at-t=0 closed batch).
    ``n_shards``/``n_superjobs``/``backend_jobs`` are observability for
    the scale-out fast path: how many independent contention shards the
    batch split into, how many signature-coalesced super-jobs they
    contained (0 when every shard took the uncollapsed engine path),
    and how many jobs each simulation backend
    (:mod:`repro.core.backends`) timed.

    ``lane_occupancy`` is the per-resource busy accounting every
    backend records while simulating: for each device or wire lane
    (named as in :func:`lane_name`), the ``(start, end)`` occupancy
    intervals in grant order.  The intervals are bit-identical
    whichever backend simulated (property-tested in
    ``tests/core/test_dag_replay.py``), which makes the derived
    :attr:`lane_busy_seconds`/:attr:`lane_utilization` safe to trend
    across backend selections.
    """

    job_reports: tuple[ExecutionReport, ...]
    makespan: float
    arrivals: tuple[float, ...] | None = None
    n_shards: int = 1
    n_superjobs: int = 0
    #: Jobs simulated per backend name, e.g. ``{"dag_replay": 512}``.
    backend_jobs: dict[str, int] = field(default_factory=dict)
    #: Occupancy intervals per lane, in grant order (see class docs).
    lane_occupancy: dict[str, tuple[tuple[float, float], ...]] = field(
        default_factory=dict
    )
    #: Per-shard wall time and shard features, in shard order — the raw
    #: observability ``serve-bench``'s per-backend breakdown reads.
    backend_timings: tuple[ShardTiming, ...] = ()
    #: Runs killed by fault-plan events (:class:`repro.core.faults.
    #: RunFailure`), in deterministic fault-event order; always empty
    #: without a fault plan.  A failed run's ``job_report`` entry covers
    #: the truncated attempt (release to fail time).
    failures: tuple = ()

    @property
    def n_jobs(self) -> int:
        return len(self.job_reports)

    @property
    def completion_latencies(self) -> tuple[float, ...]:
        """Per-job completion minus release (== completion at t=0)."""
        if self.arrivals is None:
            return tuple(r.total_time for r in self.job_reports)
        return tuple(
            report.total_time - arrival
            for report, arrival in zip(self.job_reports, self.arrivals)
        )

    @property
    def first_release(self) -> float:
        """When the machine first had work: the earliest release offset
        of an open queue, 0.0 for the t=0 closed batch (and for an
        empty report)."""
        if self.arrivals:
            return min(self.arrivals)
        return 0.0

    @property
    def busy_span(self) -> float:
        """Shared-machine seconds from the first release to the last
        completion.  For the t=0 batch this *is* the makespan; under an
        open queue it excludes the idle arrival ramp before the first
        job is released, which the makespan (an absolute virtual time)
        includes."""
        return self.makespan - self.first_release

    @property
    def throughput(self) -> float:
        """Jobs per second of shared-machine time (the busy span, so an
        open queue's arrival ramp does not dilute the rate; identical
        to jobs/makespan for the t=0 batch)."""
        span = self.busy_span
        if span <= 0:
            return 0.0
        return self.n_jobs / span

    @property
    def lane_busy_seconds(self) -> dict[str, float]:
        """Busy (occupied) seconds per device/wire lane, summed over
        the occupancy intervals in grant order."""
        return {
            lane: sum(end - start for start, end in intervals)
            for lane, intervals in self.lane_occupancy.items()
        }

    @property
    def lane_utilization(self) -> dict[str, float]:
        """Busy fraction per lane over the batch's :attr:`busy_span` —
        the "where does the saturation knee come from" signal: the lane
        closest to 1.0 is the bottleneck.  Empty when the span is
        degenerate (zero jobs)."""
        span = self.busy_span
        if span <= 0:
            return {lane: 0.0 for lane in self.lane_occupancy}
        return {
            lane: busy / span
            for lane, busy in self.lane_busy_seconds.items()
        }

    @property
    def backend_wall_seconds(self) -> dict[str, float]:
        """Host wall seconds spent simulating, totalled per backend
        over :attr:`backend_timings` — the per-backend breakdown the
        serving benchmark reports per sweep point."""
        totals: dict[str, float] = {}
        for timing in self.backend_timings:
            totals[timing.backend] = (
                totals.get(timing.backend, 0.0) + timing.wall_seconds
            )
        return totals


class _RunFaultState:
    """Shared mutable fault flag for one simulated run.

    Every stage process of a job holds the same instance; the first
    fault that kills a task wins (deterministic: failures happen at
    fault-event instants processed in engine order) and later stages
    observe it and fall through.  ``completed`` collects the stages
    whose device occupancy finished — including stages already in
    service on another lane when the failure struck, whose committed
    occupancies run to completion — which is the checkpoint frontier a
    ``RetryPolicy(checkpoint=True)`` resume starts past."""

    __slots__ = ("failed_at", "lane", "kind", "completed")

    def __init__(self) -> None:
        self.failed_at: float | None = None
        self.lane: str | None = None
        self.kind: str | None = None
        self.completed: list[str] = []

    def fail(self, time: float, lane: str, kind: str) -> None:
        if self.failed_at is None:
            self.failed_at = time
            self.lane = lane
            self.kind = kind


@dataclass(slots=True)
class PipelineExecutor:
    """Runs scheduled pipelines through the discrete-event engine."""

    cost_model: OffloadCostModel

    # ------------------------------------------------------------------
    # Single job
    # ------------------------------------------------------------------
    def execute(
        self,
        pipeline: Pipeline,
        schedule: Schedule,
        observer: TraceObserver | None = None,
    ) -> ExecutionReport:
        if observer is None and self._is_single_chain(pipeline):
            return self._execute_chain_analytic(pipeline, schedule)
        engine = Engine()
        devices = self._device_resources(engine, [schedule])
        links: dict[frozenset, Resource] = {}
        plan = self._transfer_plan(engine, links, pipeline, schedule)
        processes, overhead_total = self._spawn_job(
            engine, devices, pipeline, schedule, observer, plan
        )
        engine.run()
        return self._job_report(
            pipeline, schedule, overhead_total, self._finish_time(processes)
        )

    @staticmethod
    def _is_single_chain(pipeline: Pipeline) -> bool:
        """One connected chain: the only shape where a solo job's DES run
        is fully serialized regardless of placement (every stage waits on
        its unique predecessor before touching any resource), so the
        makespan can be computed without the event loop.  ``is_chain``
        alone also admits forests of disjoint chains, which genuinely
        overlap on distinct devices — those must go through the DES."""
        return pipeline.is_chain and len(pipeline.entry_stages) == 1

    def _eq1_overhead(self, pipeline: Pipeline, schedule: Schedule) -> float:
        """The job's total Eq. 1 overhead, summed in ``pipeline.edges``
        order — the float-summation order is load-bearing: it must match
        the scheduler's exactly (and does, cross-checked here against
        ``schedule.scheduling_overhead``), so every executor path prices
        boundaries through this one helper."""
        overhead_total = 0.0
        for edge in pipeline.edges:
            src = schedule.assignments[edge.src]
            dst = schedule.assignments[edge.dst]
            if src is not dst:
                overhead_total += self.cost_model.boundary_cost(
                    edge.nbytes, (src, dst)
                )
        self._check_overhead(overhead_total, schedule)
        return overhead_total

    def _execute_chain_analytic(
        self, pipeline: Pipeline, schedule: Schedule
    ) -> ExecutionReport:
        """O(stages) fast path for one uncontended chain job.

        Accumulates virtual time in exactly the order the DES would (each
        boundary transfer, then the stage duration, stage by stage down
        the chain), so the resulting floats are bit-identical to
        :class:`~repro.hw.engine.Engine`'s makespan — the Fig. 7 totals
        do not move.  Passing any ``observer`` (even a no-op) forces the
        full DES, which is how the tests cross-check the two paths.
        """
        overhead_total = self._eq1_overhead(pipeline, schedule)
        # Virtual-time accrual in chain order: transfer(s), then compute.
        now = 0.0
        for name in pipeline.topological_order:
            placement = schedule.assignments[name]
            for edge in pipeline.in_edges(name):
                src = schedule.assignments[edge.src]
                if src is not placement:
                    now += self.cost_model.boundary_cost(
                        edge.nbytes, (src, placement)
                    )
            now += schedule.stage_times[name].total
        return self._job_report(pipeline, schedule, overhead_total, now)

    # ------------------------------------------------------------------
    # Batched jobs on one shared machine
    # ------------------------------------------------------------------
    def execute_many(
        self,
        jobs: Sequence[tuple[Pipeline, Schedule]],
        observer: TraceObserver | None = None,
        arrivals: Sequence[float] | None = None,
        backend: str | None = None,
        faults: "FaultPlan | None" = None,
    ) -> BatchExecutionReport:
        """Execute every (pipeline, schedule) job concurrently on one
        shared set of devices.

        ``jobs`` is any sequence of pairs; a :class:`JobTable` (what the
        framework passes) is used as is, anything else is grouped by
        pipeline/schedule object identity once, up front.  Sharding,
        super-job grouping and the backends' capability checks then run
        once per distinct pair, not once per job.

        ``arrivals`` turns the closed batch into an open queue: job ``i``
        is released at offset ``arrivals[i]`` (seconds of virtual time,
        non-negative) instead of t=0.  The DES arbitrates device and link
        contention between the released jobs exactly as before.

        The batch is partitioned by contention (jobs whose placements
        touch disjoint device/link sets share no events, so each shard
        runs on its own simulation), and each shard goes to the first
        registered backend (:mod:`repro.core.backends`) that supports
        it and does not decline it; the replays fold jobs with
        identical pipeline/schedule objects into weighted super-jobs.
        Results are bit-identical to one engine shared by the whole
        batch, whichever backend runs (cross-checked in tests).
        Per-shard wall time and shard features land in
        :attr:`BatchExecutionReport.backend_timings`.

        ``backend`` names one registered backend to force for every
        shard (the serving benchmark's A/B switch); a forced backend
        that cannot simulate a shard raises :class:`SimulationError`
        naming the reason instead of silently falling back.

        Passing any ``observer`` makes the whole batch one shard on the
        generator engine: trace consumers see the exact event stream of
        one shared engine.

        ``faults`` injects a :class:`repro.core.faults.FaultPlan`: shards
        whose lanes carry fault events run on the fault-aware engine
        (replay backends decline them —
        :data:`repro.core.backends.FAULTED_SHARD_REASON`), runs killed by
        an outage or permanent failure land in
        :attr:`BatchExecutionReport.failures`, and unaffected shards take
        the exact unmodified code path — an *empty* plan is bit-identical
        to no plan for every backend.
        """
        if not jobs:
            raise SimulationError("execute_many needs at least one job")
        table = JobTable.of(jobs)
        n = len(table)
        if faults is not None and faults.is_empty:
            faults = None
        if arrivals is not None:
            arrivals = finite_floats(arrivals, "arrival offset", SimulationError)
            if len(arrivals) != n:
                raise SimulationError(
                    f"{n} jobs but {len(arrivals)} arrival offsets"
                )
            if min(arrivals) < 0:
                raise SimulationError(
                    f"negative arrival offset: {min(arrivals)}"
                )
        forced = None if backend is None else _backends.get_backend(backend)
        replay_forced = forced is not None and forced.name != _ENGINE_BACKEND
        if observer is not None and replay_forced:
            raise SimulationError(
                "a trace observer forces the uncollapsed engine DES; "
                f"it cannot be combined with backend={backend!r}"
            )
        lane_log: dict[str, list[tuple[float, float]]] = {}

        def record(lane, label, start, end):
            lane_log.setdefault(lane, []).append((start, end))
            if observer is not None:
                observer(lane, label, start, end)

        shards = (
            [range(n)] if observer is not None else self._contention_shards(table)
        )
        # One shard covering the whole batch (the common case: every
        # job touches the same devices) needs no per-job split/scatter.
        whole = len(shards) == 1
        reports: list = [None] * n
        makespan = 0.0
        n_superjobs = 0
        backend_jobs: dict[str, int] = {}
        timings: list[ShardTiming] = []
        failures: list = []
        for indices in shards:
            shard_jobs = (
                table if whole else JobTable.of(map(table.__getitem__, indices))
            )
            shard_arrivals = (
                arrivals
                if whole or arrivals is None
                else [arrivals[i] for i in indices]
            )
            shard_faults = None
            if faults is not None:
                lanes = {
                    lane
                    for _pipeline, schedule in shard_jobs.templates
                    for lane in self.schedule_lanes(schedule)
                }
                if faults.affects(lanes):
                    if replay_forced:
                        reason = (
                            _backends.FAULTED_SHARD_REASON
                            if faults.affects_lethally(lanes)
                            else _backends.SLOWDOWN_SHARD_REASON
                        )
                        raise SimulationError(
                            f"backend {backend!r} cannot simulate a "
                            f"{len(shard_jobs)}-job shard ({reason}) and "
                            "no fallback is allowed"
                        )
                    shard_faults = faults
            wall_start = perf_counter()
            if observer is not None or shard_faults is not None:
                # The generator engine is the only simulator that streams
                # occupancies to an observer or understands fault windows;
                # failures are keyed by batch-global submission index.
                shard_reports, shard_makespan = self._execute_batch_engine(
                    shard_jobs,
                    indices,
                    record,
                    shard_arrivals,
                    fault_plan=shard_faults,
                    failures=failures,
                )
                chosen, shard_groups = _ENGINE_BACKEND, 0
            else:
                chosen, shard_reports, shard_makespan, shard_groups = (
                    self._simulate_shard(
                        shard_jobs, shard_arrivals, forced, lane_log
                    )
                )
            timings.append(
                ShardTiming(
                    backend=chosen,
                    wall_seconds=perf_counter() - wall_start,
                    n_jobs=len(indices),
                    n_superjobs=shard_groups,
                    n_stages=self._shard_stage_count(shard_jobs),
                    is_chain=self._is_chain_shard(shard_jobs),
                )
            )
            n_superjobs += shard_groups
            backend_jobs[chosen] = backend_jobs.get(chosen, 0) + len(indices)
            if whole:
                reports = shard_reports
            else:
                for index, report in zip(indices, shard_reports):
                    reports[index] = report
            if shard_makespan > makespan:
                makespan = shard_makespan
        return BatchExecutionReport(
            job_reports=tuple(reports),
            makespan=makespan,
            arrivals=None if arrivals is None else tuple(arrivals),
            n_shards=len(shards),
            n_superjobs=n_superjobs,
            backend_jobs=backend_jobs,
            lane_occupancy={lane: tuple(ivs) for lane, ivs in lane_log.items()},
            backend_timings=tuple(timings),
            failures=tuple(failures),
        )

    @staticmethod
    def _shard_stage_count(shard_jobs: JobTable) -> int:
        """Total stages across the shard's *distinct* pipeline objects
        (replicas coalesce by identity, so a 16k-replica super-job
        counts its template once)."""
        distinct = {
            id(pipeline): pipeline for pipeline, _schedule in shard_jobs.templates
        }
        return sum(
            len(pipeline.stage_names) for pipeline in distinct.values()
        )

    @classmethod
    def _is_chain_shard(cls, shard_jobs: JobTable) -> bool:
        """Whether every job of the shard is a single connected chain."""
        return all(
            cls._is_single_chain(pipeline)
            for pipeline, _schedule in shard_jobs.templates
        )

    # ------------------------------------------------------------------
    # Batch internals: sharding, coalescing, the engine path
    # ------------------------------------------------------------------
    @staticmethod
    def _contention_shards(table: JobTable) -> list:
        """Partition job indices into contention components.

        Two jobs land in the same shard iff their placements share a
        device or a boundary wire (transitively).  Disjoint resource
        sets mean disjoint event graphs: no acquire of one shard can
        ever delay — or reorder a grant of — another, so running each
        shard on its own engine reproduces the shared engine's floats
        exactly.  Shards preserve submission order.

        Resource sets are a pure function of the schedule, so the
        union-find runs over the table's distinct templates; jobs are
        only touched to split a batch that really is several shards.
        """
        templates = table.templates
        parent = list(range(len(templates)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        owner: dict[object, int] = {}
        for t, (_pipeline, schedule) in enumerate(templates):
            keys: set = set(schedule.assignments.values())
            for pair in schedule.crossing_pairs:
                keys.add(frozenset(pair))
            for key in keys:
                claimant = owner.get(key)
                if claimant is None:
                    owner[key] = t
                else:
                    root_a, root_b = find(t), find(claimant)
                    if root_a != root_b:
                        parent[root_b] = root_a
        roots = [find(t) for t in range(len(templates))]
        if len(set(roots)) == 1:
            return [range(len(table))]
        shards: dict[int, list[int]] = {}
        for i, t in enumerate(table.job_template):
            shards.setdefault(roots[t], []).append(i)
        return list(shards.values())

    def _simulate_shard(
        self,
        shard_jobs: JobTable,
        shard_arrivals: list[float] | None,
        forced: "_backends.SimulationBackend | None",
        lane_log: dict[str, list[tuple[float, float]]],
    ) -> tuple[str, list[ExecutionReport], float, int]:
        """Time one contention shard through the backend layer.

        The default walk tries every registered backend in its static
        capability order (vector replay, chain replay, DAG replay,
        engine) and takes the first that supports the shard and does
        not decline it; the engine backend supports everything, so the
        walk always terminates.  ``forced`` pins one named backend and
        raises — naming the backend's reason — when it cannot simulate
        the shard.
        ``lane_log`` collects the shard's per-lane occupancy intervals
        (shards touch disjoint resource sets, so the per-shard entries
        never interleave).  Returns the chosen backend's name, the
        per-job reports in shard order, the shard makespan, and the
        super-job count.
        """
        candidates = (
            _backends.iter_backends() if forced is None else (forced,)
        )
        for candidate in candidates:
            if not candidate.supports(self, shard_jobs):
                continue
            result = candidate.simulate(
                self, shard_jobs, shard_arrivals, lane_log
            )
            if result is not None:
                reports, makespan, groups = result
                return candidate.name, reports, makespan, groups
        refused = candidates[-1]
        describe = getattr(refused, "unsupported_reason", None)
        reason = (
            describe(self, shard_jobs)
            if describe is not None
            else "unsupported shape or zero-duration task"
        )
        raise SimulationError(
            f"backend {refused.name!r} cannot simulate a "
            f"{len(shard_jobs)}-job shard ({reason}) and no fallback "
            "is allowed"
        )

    def _flatten_stage(
        self,
        pipeline: Pipeline,
        schedule: Schedule,
        name: str,
        resource_ids: dict[object, int],
    ) -> tuple[tuple[int, float], ...]:
        """One stage as FIFO-replay tasks: ``(resource index, duration)``
        pairs — each boundary-crossing in-edge's transfer on the owning
        wire (in-edge order), then the stage on its device — exactly the
        acquire sequence :meth:`_spawn_job`'s stage processes perform.
        ``resource_ids`` interns devices (:class:`Placement`) and wires
        (placement-pair frozensets) shard-wide, so replicas and distinct
        groups contend on the same indices.  The single pricing/interning
        walk every replay backend flattens through — change boundary
        pricing here and the event replay, the wave replay and the engine
        (via :meth:`_eq1_overhead`'s cross-check) stay in lockstep."""
        placement = schedule.assignments[name]
        tasks: list[tuple[int, float]] = []
        for edge in pipeline.in_edges(name):
            src = schedule.assignments[edge.src]
            if src is not placement:
                pair = frozenset((src, placement))
                wire = resource_ids.get(pair)
                if wire is None:
                    wire = resource_ids[pair] = len(resource_ids)
                tasks.append(
                    (
                        wire,
                        self.cost_model.boundary_cost(
                            edge.nbytes, (src, placement)
                        ),
                    )
                )
        device = resource_ids.get(placement)
        if device is None:
            device = resource_ids[placement] = len(resource_ids)
        tasks.append((device, schedule.stage_times[name].total))
        return tuple(tasks)

    def _execute_batch_engine(
        self,
        shard_jobs: Sequence[tuple[Pipeline, Schedule]],
        labels: Sequence[int],
        observer: TraceObserver | None,
        shard_arrivals: Sequence[float] | None,
        fault_plan: "FaultPlan | None" = None,
        failures: list | None = None,
    ) -> tuple[list[ExecutionReport], float]:
        """The uncollapsed path: every job of ``shard_jobs`` as stage
        processes on one shared engine (the pre-coalescing semantics,
        and the reference the fast paths are verified against).
        ``labels`` carries the submission indices for trace prefixes.

        With a ``fault_plan``, each job gets a shared mutable fault
        state: the first task of the job hit by an outage window or a
        permanent lane death marks the whole job failed at that instant,
        remaining stages fall through (holding nothing past their
        current occupancy), and the run lands in ``failures`` under its
        submission index from ``labels``.  ``fault_plan=None`` takes the
        exact pre-fault generator — bit-identity with the replay
        backends depends on it."""
        engine = Engine()
        devices = self._device_resources(
            engine,
            [schedule for _pipeline, schedule in JobTable.of(shard_jobs).templates],
        )
        links: dict[frozenset, Resource] = {}
        # Deduplicated batch setup: jobs sharing the same pipeline and
        # schedule *objects* (what the framework's signature caches hand
        # out for duplicate jobs) share one transfer plan instead of
        # re-pricing every boundary per copy.  Keyed by identity — the
        # ``jobs`` sequence keeps the objects alive for the whole call —
        # because value-equality would be as expensive as rebuilding.
        plans: dict[tuple[int, int], tuple] = {}
        spawned = []
        states = (
            None
            if fault_plan is None
            else [_RunFaultState() for _ in shard_jobs]
        )
        for position, (pipeline, schedule) in enumerate(shard_jobs):
            plan_key = (id(pipeline), id(schedule))
            plan = plans.get(plan_key)
            if plan is None:
                plan = self._transfer_plan(engine, links, pipeline, schedule)
                plans[plan_key] = plan
            processes, overhead_total = self._spawn_job(
                engine,
                devices,
                pipeline,
                schedule,
                observer,
                plan,
                label_prefix=f"job{labels[position]}:",
                release=(
                    None if shard_arrivals is None
                    else shard_arrivals[position]
                ),
                fault_plan=fault_plan,
                fault_state=None if states is None else states[position],
            )
            spawned.append((pipeline, schedule, processes, overhead_total))
        makespan = engine.run()
        job_reports = [
            self._job_report(
                pipeline, schedule, overhead_total, self._finish_time(processes)
            )
            for pipeline, schedule, processes, overhead_total in spawned
        ]
        if states is not None and failures is not None:
            for position, state in enumerate(states):
                if state.failed_at is not None:
                    failures.append(
                        RunFailure(
                            job=labels[position],
                            time=state.failed_at,
                            lane=state.lane,
                            kind=state.kind,
                            completed_stages=tuple(sorted(state.completed)),
                        )
                    )
        return job_reports, makespan

    @staticmethod
    def schedule_lanes(schedule: Schedule) -> tuple[str, ...]:
        """The device/wire lane names one scheduled job occupies — the
        keys its occupancies land under in ``lane_occupancy``, and the
        resources an admission controller charges its backlog to."""
        lanes = {lane_name(p) for p in schedule.assignments.values()}
        for pair in schedule.crossing_pairs:
            lanes.add(lane_name(frozenset(pair)))
        return tuple(sorted(lanes))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _device_resources(
        engine: Engine, schedules: Sequence[Schedule]
    ) -> dict[Placement, Resource]:
        # Occupancy intervals reach the trace via the observer callback,
        # never via Resource.usage_log, so sampling stays off.
        placements = sorted(
            {p for schedule in schedules for p in schedule.assignments.values()},
            key=lambda p: p.value,
        )
        return {
            p: engine.resource(1, str(p), log_usage=False) for p in placements
        }

    def _transfer_plan(
        self,
        engine: Engine,
        links: dict[frozenset, Resource],
        pipeline: Pipeline,
        schedule: Schedule,
    ) -> tuple[dict[str, list[tuple[str, Resource, float]]], float]:
        """Price every boundary-crossing in-edge of one job: per-stage
        transfer lists plus the job's total Eq. 1 overhead.

        ``links`` maps each device pair to its capacity-1 wire resource
        (created on first use and shared across every job in the engine),
        so CPU<->NDP and CPU<->GPU transfers ride distinct wires while
        transfers on the same wire serialize.  The job total comes from
        :meth:`_eq1_overhead` (the one scheduler-order summation).
        """
        overhead_total = self._eq1_overhead(pipeline, schedule)
        transfers: dict[str, list[tuple[str, Resource, float]]] = {
            name: [] for name in pipeline.stage_names
        }
        for edge in pipeline.edges:
            src_placement = schedule.assignments[edge.src]
            dst_placement = schedule.assignments[edge.dst]
            if src_placement is not dst_placement:
                pair = frozenset((src_placement, dst_placement))
                if pair not in links:
                    wire_name = "link:" + "-".join(sorted(p.value for p in pair))
                    links[pair] = engine.resource(1, wire_name, log_usage=False)
                cost = self.cost_model.boundary_cost(
                    edge.nbytes, (src_placement, dst_placement)
                )
                transfers[edge.dst].append(
                    (f"{edge.src}->{edge.dst}", links[pair], cost)
                )
        return transfers, overhead_total

    def _spawn_job(
        self,
        engine: Engine,
        devices: dict[Placement, Resource],
        pipeline: Pipeline,
        schedule: Schedule,
        observer: TraceObserver | None,
        plan: tuple[dict[str, list[tuple[str, Resource, float]]], float],
        label_prefix: str = "",
        release: float | None = None,
        fault_plan: FaultPlan | None = None,
        fault_state: "_RunFaultState | None" = None,
    ) -> tuple[dict[str, SimProcess], float]:
        """Spawn one process per stage (in topological order, so every
        predecessor process exists before its dependents) and return the
        processes plus the job's total Eq. 1 overhead.  ``plan`` is the
        job's :meth:`_transfer_plan` (shareable between jobs that run
        the same pipeline/schedule objects in the same engine).
        ``release`` delays the job's entry stages to that arrival offset
        (downstream stages inherit it through the predecessor waits).

        ``fault_plan``/``fault_state`` switch to the fault-aware stage
        generator.  The healthy generator below stays byte-for-byte what
        it was before faults existed: the empty-plan bit-identity
        contract requires the no-fault event stream to be untouched."""
        transfers, overhead_total = plan

        def stage_process(name: str, predecessors: list[SimProcess]):
            placement = schedule.assignments[name]
            device = devices[placement]
            duration = schedule.stage_times[name].total
            if release is not None and not predecessors:
                yield engine.timeout(release)
            for predecessor in predecessors:
                yield predecessor
            for label, wire, cost in transfers[name]:
                yield wire.acquire()
                start = engine.now
                yield engine.timeout(cost)
                if observer is not None:
                    observer(wire.name, label_prefix + label, start, engine.now)
                yield wire.release()
            yield device.acquire()
            start = engine.now
            yield engine.timeout(duration)
            if observer is not None:
                observer(
                    str(placement), label_prefix + name, start, engine.now
                )
            yield device.release()

        def faulty_stage_process(name: str, predecessors: list[SimProcess]):
            # Mirrors stage_process, but every occupancy runs through the
            # fault plan, and once any stage of the job fails, the
            # remaining stages fall through: they still pass their
            # acquire/release pairs (so FIFO queues drain and nothing
            # deadlocks) but occupy no time on the lane.
            placement = schedule.assignments[name]
            device = devices[placement]
            duration = schedule.stage_times[name].total
            if release is not None and not predecessors:
                yield engine.timeout(release)
            for predecessor in predecessors:
                yield predecessor
            for label, wire, cost in transfers[name]:
                yield wire.acquire()
                alive = fault_state.failed_at is None and (
                    yield from self._occupy_faulted(
                        engine,
                        fault_plan,
                        fault_state,
                        wire.name,
                        cost,
                        observer,
                        label_prefix + label,
                    )
                )
                yield wire.release()
                if not alive:
                    return
            yield device.acquire()
            alive = fault_state.failed_at is None and (
                yield from self._occupy_faulted(
                    engine,
                    fault_plan,
                    fault_state,
                    str(placement),
                    duration,
                    observer,
                    label_prefix + name,
                )
            )
            if alive:
                # The stage's device work finished — even if another
                # stage of the job failed mid-flight, this occupancy was
                # committed and ran to completion, so it belongs to the
                # checkpoint frontier a resume may start past.
                fault_state.completed.append(name)
            yield device.release()
            if not alive:
                return

        factory = stage_process if fault_state is None else faulty_stage_process
        processes: dict[str, SimProcess] = {}
        for name in pipeline.topological_order:
            predecessors = [processes[p] for p in pipeline.predecessors(name)]
            processes[name] = engine.spawn(
                factory(name, predecessors), name=label_prefix + name
            )
        return processes, overhead_total

    @staticmethod
    def _occupy_faulted(
        engine: Engine,
        fault_plan: FaultPlan,
        fault_state: "_RunFaultState",
        lane: str,
        duration: float,
        observer: TraceObserver | None,
        label: str,
    ):
        """Occupy ``lane`` for ``duration`` under the fault plan.

        The caller already holds the lane's resource.  A task granted
        inside an outage window waits the window out (no failure); a
        window starting mid-service — or the lane's permanent death —
        kills the job at that instant and marks ``fault_state``.
        Slowdown windows never kill: they inflate the occupancy to the
        piecewise wall time the fault plan resolved.  Yields engine
        commands; returns True when the occupancy completed, False when
        the job failed (the caller releases and bails out).
        """
        grant = engine.now
        service, wall, fail_time, kind = fault_plan.resolve_service(
            lane, grant, duration
        )
        if fail_time is None:
            if service > grant:
                yield engine.timeout(service - grant)
            start = engine.now
            yield engine.timeout(wall)
            if observer is not None:
                observer(lane, label, start, engine.now)
            return True
        if fail_time > grant:
            yield engine.timeout(fail_time - grant)
        if observer is not None and engine.now > service:
            # The truncated occupancy [service, fail): real busy time the
            # lane spent on work that was then thrown away.
            observer(lane, label, service, engine.now)
        fault_state.fail(engine.now, lane, kind)
        return False

    @staticmethod
    def _check_overhead(overhead_total: float, schedule: Schedule) -> None:
        expected_overhead = schedule.scheduling_overhead
        if abs(overhead_total - expected_overhead) > 1e-9 * max(
            1.0, expected_overhead
        ):
            raise SimulationError(
                "executor and scheduler disagree on Eq. 1 overhead: "
                f"{overhead_total} vs {expected_overhead}"
            )

    @staticmethod
    def _finish_time(processes: dict[str, SimProcess]) -> float:
        finishes = [p.finish_time for p in processes.values()]
        if any(f is None for f in finishes):
            raise SimulationError("job finished with unfinished stages")
        return max(finishes)

    @staticmethod
    def _job_report(
        pipeline: Pipeline,
        schedule: Schedule,
        overhead_total: float,
        total_time: float,
    ) -> ExecutionReport:
        phase_seconds = {
            name: schedule.stage_times[name].total
            for name in pipeline.stage_names
        }
        return ExecutionReport(
            phase_seconds=phase_seconds,
            phase_times=dict(schedule.stage_times),
            scheduling_overhead=overhead_total,
            total_time=total_time,
            assignments=dict(schedule.assignments),
        )
