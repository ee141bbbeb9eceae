"""The end-to-end NDFT framework (the paper's headline system).

:class:`NdftFramework` wires everything together for one Si_N problem:

1. build the LR-TDDFT pipeline (the Fig. 1 chain by default, any DAG on
   request) and its function IR;
2. run the SCA over every function (boundedness + consistency);
3. schedule with the cost-aware offloader (Eq. 1) over the registered
   execution targets (CPU + NDP, plus the discrete GPU when
   ``enable_gpu=True``);
4. execute on the machine models through the DES engine;
5. account pseudopotential memory under the shared-block layout.

The result carries everything the evaluation section reports: per-phase
breakdown (Fig. 7), scheduling-overhead fraction (§VI-A), and memory
footprints (Table I / §VI-A discussion).

Beyond the paper, :meth:`NdftFramework.run_many` is the batching
front-end: it schedules a batch of heterogeneous problem sizes and
executes them concurrently through one shared machine, reporting per-job
completion times plus aggregate makespan and throughput — the serving
mode a DFT-as-a-service deployment runs in.  Passing ``arrivals``
(deterministic offsets or :func:`repro.core.arrivals.poisson_arrivals`)
turns the batch into an open queue and the result additionally reports
p50/p99 completion latency and per-job queueing delay.

Serving fast path: every artifact the framework derives per job — the
built pipeline, the cost-aware schedule, the SCA reports, and the
standalone (solo) DES report — is a pure function of the job's
content-addressed :class:`~repro.core.signature.JobSignature`, so the
framework memoizes all four in bounded LRU caches
(``cache_size`` entries each, eviction counted in ``cache_stats``).

Batches take the columnar path: entries are validated and grouped by
distinct job once, at the boundary (atom counts and problems by
problem, prebuilt pipelines by identity), and every derivation that is
a pure function of the signature — build, sign, schedule, solo time,
SCA, footprint, and the executor's sharding and super-job grouping —
runs once per group.  Per-job work is list indexing plus one
constructor call per result.  ``run_many([512] * 256)`` schedules,
analyzes and solo-times the 512-atom job exactly once.  Each cache is
probed for every group before any miss is filled, so a batch with more
distinct jobs than ``cache_size`` evicts only the overflow, and the
counters keep their per-job meaning (on a batch that fits: misses =
distinct jobs, hits = the rest).  The shared batch simulation is scaled
out by the executor (signature-coalesced super-jobs, contention-sharded
engines — bit-identical to the plain shared engine), and a
never-seen size is placed by the exact DP searched cold.  The caches
live on the framework, compose across calls, and are dropped whenever
:meth:`NdftFramework.register_target` changes the machine registry.
``NdftFramework(memoize=False)`` is the degenerate grouping where every
job is its own group and nothing is cached — the serving benchmark
(:mod:`repro.experiments.scale_serving`) uses it as the "before"
measurement and asserts the results are identical either way.
"""

from __future__ import annotations

import operator
import pickle
from collections import Counter
from dataclasses import dataclass, replace
from operator import itemgetter
from pathlib import Path
from typing import Callable, Sequence

from repro.core.arrivals import (
    AdmissionDecision,
    AdmissionPolicy,
    percentile,
    plan_admission,
)
from repro.core.backends import backend_names
from repro.core.cost_model import OffloadCostModel, serial_links
from repro.core.executor import (
    BatchExecutionReport,
    ExecutionReport,
    JobTable,
    PipelineExecutor,
)
from repro.core.faults import (
    AttemptRecord,
    FaultPlan,
    ResilienceReport,
    RetryPolicy,
)
from repro.core.lru import LruCache
from repro.core.pipeline import Pipeline, build_pipeline
from repro.core.sca import ScaReport, StaticCodeAnalyzer
from repro.core.scheduler import (
    CostAwareScheduler,
    ExecutionTarget,
    Placement,
    Schedule,
    SchedulingPolicy,
)
from repro.core.signature import (
    JobSignature,
    cost_model_fingerprint,
    job_signature,
    target_registry_fingerprint,
)
from repro.errors import ConfigError, finite_floats
from repro.dft.workload import ProblemSize, problem_size
from repro.hw.config import SystemConfig, gpu_baseline_config, ndft_system_config
from repro.hw.cpu import CpuModel
from repro.hw.gpu import GpuModel
from repro.hw.interconnect import HostLink
from repro.hw.ndp import NdpSystemModel
from repro.hw.roofline import RooflineModel
from repro.model import AccessPattern
from repro.shmem.footprint import (
    NDP_RANKS,
    NDP_STACKS,
    footprint_ndft,
    footprint_replicated,
)


@dataclass(frozen=True, slots=True)
class NdftRunResult:
    """Everything one NDFT run produces."""

    problem: ProblemSize
    schedule: Schedule
    report: ExecutionReport
    sca_reports: dict[str, ScaReport]
    memory_footprint_gb: float
    replicated_footprint_gb: float

    @property
    def total_time(self) -> float:
        return self.report.total_time

    @property
    def scheduling_overhead_fraction(self) -> float:
        return self.report.overhead_fraction

    @property
    def memory_reduction_percent(self) -> float:
        """Footprint saving vs the replicated NDP layout (§VI-A: 57.8 %)."""
        if self.replicated_footprint_gb == 0:
            return 0.0
        return 100.0 * (
            1.0 - self.memory_footprint_gb / self.replicated_footprint_gb
        )

    def breakdown(self) -> dict[str, float]:
        return self.report.breakdown()


@dataclass(frozen=True)
class AdmissionResult:
    """What the admission controller did to one submitted batch.

    ``decisions`` covers *every submitted job* in submission order —
    including shed jobs, which never reach the simulator and therefore
    have no entry in the result's ``jobs``.  ``counted_indices`` maps
    into the *executed* jobs tuple: the positions whose latencies count
    toward the post-shed SLO percentiles (admitted jobs; deprioritized
    jobs execute but are excluded)."""

    policy: AdmissionPolicy
    decisions: tuple[AdmissionDecision, ...]
    counted_indices: tuple[int, ...]

    @property
    def admitted(self) -> int:
        """Jobs admitted inside the SLO window."""
        return sum(1 for d in self.decisions if d.admitted)

    @property
    def shed(self) -> int:
        """Jobs rejected outright (never simulated)."""
        return sum(
            1 for d in self.decisions if not d.admitted and not d.deferred
        )

    @property
    def deferred(self) -> int:
        """Jobs deprioritized: executed at a deferred release."""
        return sum(1 for d in self.decisions if d.deferred)

    @property
    def shed_rate(self) -> float:
        """Fraction of submitted jobs rejected outright."""
        if not self.decisions:
            return 0.0
        return self.shed / len(self.decisions)

    @property
    def shed_labels(self) -> tuple[str, ...]:
        """Labels of the shed jobs, in submission order (a batch may
        shed several jobs of the same size, so labels can repeat)."""
        return tuple(
            d.label for d in self.decisions if not d.admitted and not d.deferred
        )


@dataclass(frozen=True)
class NdftBatchResult:
    """A batch of jobs executed concurrently on one shared machine.

    When the batch ran as an open queue (``run_many(..., arrivals=...)``)
    the latency properties report completion latency — finish minus
    release — and queueing delay — latency minus the job's unloaded solo
    makespan; at t=0 they degrade to the closed-batch completion times.

    Under an admission policy (``run_many(..., admission=...)``)
    ``jobs``/``solo_times``/the latency properties cover the *executed*
    jobs only; :attr:`admission` records what happened to every
    submitted job, and the ``slo_*`` accessors give the post-shed
    percentiles (admitted jobs only — identical to ``p50``/``p99`` in
    ``shed`` mode, excluding deferred jobs in ``deprioritize`` mode).

    Degenerate batches (everything shed) degrade gracefully: empty
    latency tuples, 0.0 percentiles/means, 0.0 throughput — matching
    the executor's empty-report conventions rather than raising.
    """

    jobs: tuple[NdftRunResult, ...]
    batch_report: BatchExecutionReport
    #: What the same jobs cost run one at a time on a dedicated machine
    #: (the sum of standalone DES makespans).
    solo_times: tuple[float, ...]
    #: The admission controller's record (``None`` when admission was
    #: not requested).
    admission: AdmissionResult | None = None
    #: The resilience record under fault injection
    #: (``run_many(..., faults=...)``): every attempt of the final
    #: retry round, availability, goodput vs throughput, post-fault
    #: latency percentiles.  ``None`` when no fault plan was passed.
    resilience: ResilienceReport | None = None

    @property
    def n_jobs(self) -> int:
        return len(self.jobs)

    @property
    def arrivals(self) -> tuple[float, ...] | None:
        """Per-job release offsets, or ``None`` for the t=0 batch.
        Under ``deprioritize`` admission these are the *actual*
        (possibly deferred) releases the simulation used."""
        return self.batch_report.arrivals

    @property
    def completion_latencies(self) -> tuple[float, ...]:
        """Per-job completion minus release, in submission order."""
        return self.batch_report.completion_latencies

    def latency_percentile(self, q: float) -> float:
        """The ``q``-th completion-latency percentile over the executed
        jobs; 0.0 for an empty (fully shed) batch."""
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
    def slo_latencies(self) -> tuple[float, ...]:
        """Latencies of the jobs counted toward the SLO: everything
        executed when admission is off, the admitted subset under a
        policy (shed jobs never execute; deferred jobs are excluded)."""
        latencies = self.completion_latencies
        if self.admission is None:
            return latencies
        return tuple(latencies[i] for i in self.admission.counted_indices)

    def slo_latency_percentile(self, q: float) -> float:
        """Post-shed percentile over :attr:`slo_latencies` (0.0 when
        nothing was admitted)."""
        latencies = self.slo_latencies
        if not latencies:
            return 0.0
        return percentile(latencies, q)

    @property
    def slo_p50_latency(self) -> float:
        return self.slo_latency_percentile(50.0)

    @property
    def slo_p99_latency(self) -> float:
        return self.slo_latency_percentile(99.0)

    @property
    def queueing_delays(self) -> tuple[float, ...]:
        """How much longer each job took than it would have alone —
        time spent waiting for contended devices and wires."""
        return tuple(
            latency - solo
            for latency, solo in zip(self.completion_latencies, self.solo_times)
        )

    @property
    def mean_queueing_delay(self) -> float:
        """Average queueing delay; 0.0 for an empty (fully shed) batch,
        matching :attr:`throughput`'s degenerate convention."""
        delays = self.queueing_delays
        if not delays:
            return 0.0
        return sum(delays) / len(delays)

    @property
    def makespan(self) -> float:
        """Aggregate completion time of the whole batch."""
        return self.batch_report.makespan

    @property
    def busy_span(self) -> float:
        """First release to last completion (== makespan at t=0)."""
        return self.batch_report.busy_span

    @property
    def throughput(self) -> float:
        """Jobs per second of shared-machine time — the busy span, so
        an open queue's idle arrival ramp does not dilute the rate.
        For the t=0 batch the busy span *is* the makespan, so the
        closed-batch numbers are unchanged."""
        return self.batch_report.throughput

    @property
    def lane_busy_seconds(self) -> dict[str, float]:
        """Busy seconds per device/wire lane (see the executor's
        ``lane_occupancy``)."""
        return self.batch_report.lane_busy_seconds

    @property
    def lane_utilization(self) -> dict[str, float]:
        """Busy fraction per lane over the busy span — which device or
        wire the batch actually saturated."""
        return self.batch_report.lane_utilization

    @property
    def serial_time(self) -> float:
        """Back-to-back baseline: the sum of standalone single-job runs."""
        return sum(self.solo_times)

    @property
    def batching_speedup(self) -> float:
        """Busy-span advantage of sharing the machine across the batch.
        Computed over the busy span (first release to last completion)
        so an open queue's arrival ramp — idle time before the first
        job exists — does not count as shared-machine time; for the
        t=0 batch the busy span is the makespan and the speedup is
        unchanged."""
        span = self.busy_span
        if span <= 0:
            return 1.0
        return self.serial_time / span

    def job_completion_times(self) -> tuple[tuple[str, float], ...]:
        """Per-job ``(label, completion seconds)`` in submission order
        (completion includes queueing for shared devices).  A batch may
        contain several jobs of the same size, so labels can repeat."""
        return tuple(
            (result.problem.label, result.report.total_time)
            for result in self.jobs
        )


#: Every global a :meth:`NdftFramework.save_caches` snapshot names
#: (with or without ``enable_gpu``), by module; containers, numbers and
#: strings need none.  :class:`_SnapshotUnpickler` refuses anything else.
_SNAPSHOT_GLOBALS = {
    "repro.core.executor": {"ExecutionReport"},
    "repro.core.sca": {"ScaReport"},
    "repro.core.scheduler": {"Placement", "Schedule", "SchedulingPolicy"},
    "repro.core.signature": {"JobSignature"},
    "repro.hw.config": {"CacheConfig", "CpuConfig", "NdpConfig", "SystemConfig"},
    "repro.hw.timing": {"PhaseTime"},
}


class _SnapshotUnpickler(pickle.Unpickler):
    """Unpickles only the types a snapshot holds, so a tampered file
    cannot name a callable (``os.system``, ...) for the load to run."""

    def find_class(self, module: str, name: str):
        if name not in _SNAPSHOT_GLOBALS.get(module, ()):
            raise ConfigError(
                f"refusing cache snapshot: it references {module}.{name}, "
                "which no snapshot contains"
            )
        return super().find_class(module, name)


def _batch_item(position: int, entry) -> ProblemSize | Pipeline:
    """Validate one batch entry: a prebuilt :class:`Pipeline` or a
    :class:`ProblemSize` as is, an atom count as its problem.  Atom
    counts are normalised through :func:`operator.index`, so
    ``np.int64(64)`` and ``64`` are the same job, while ``True``,
    ``64.5`` and anything else not integer-like raise
    :class:`ConfigError` naming the entry's index."""
    if isinstance(entry, (Pipeline, ProblemSize)):
        return entry
    if not isinstance(entry, bool):
        try:
            n_atoms = operator.index(entry)
        except TypeError:
            pass
        else:
            try:
                return problem_size(n_atoms)
            except ConfigError as exc:
                raise ConfigError(f"batch entry {position}: {exc}") from None
    raise ConfigError(
        f"batch entry {position} must be an integer atom count, a "
        f"ProblemSize or a Pipeline; got {type(entry).__name__} {entry!r}"
    )


def _weights(job_group: list[int], n_groups: int) -> list[int]:
    """How many jobs each group stands for."""
    weights = [0] * n_groups
    for group, count in Counter(job_group).items():
        weights[group] = count
    return weights


@dataclass(slots=True)
class _JobGroups:
    """A resolved batch, grouped by distinct job.

    The columns hold one entry per group, in first-occurrence order;
    ``job_group[j]`` is job ``j``'s group and ``weights[g]`` how many
    jobs group ``g`` stands for.  Everything that is a pure function of
    a job's signature is derived once per group; per-job work is list
    indexing."""

    problems: list[ProblemSize]
    pipelines: list[Pipeline]
    signatures: list[JobSignature | None]
    schedules: list[Schedule]
    job_group: list[int]
    weights: list[int]

    @classmethod
    def from_rows(cls, rows) -> "_JobGroups":
        """Group per-job ``(problem, pipeline, schedule, signature)``
        rows by the identity of their problem, pipeline and schedule."""
        index: dict[tuple[int, int, int], int] = {}
        columns: list[tuple] = []
        job_group: list[int] = []
        for row in rows:
            key = (id(row[0]), id(row[1]), id(row[2]))
            group = index.get(key)
            if group is None:
                group = index[key] = len(columns)
                columns.append(row)
            job_group.append(group)
        problems, pipelines, schedules, signatures = (
            [row[k] for row in columns] for k in range(4)
        )
        return cls(
            problems,
            pipelines,
            signatures,
            schedules,
            job_group,
            _weights(job_group, len(columns)),
        )

    def per_job(self, values: list) -> tuple:
        """A per-group column expanded to one entry per job."""
        return tuple(map(values.__getitem__, self.job_group))

    def rows(self) -> tuple[tuple, ...]:
        """Per-job ``(problem, pipeline, schedule, signature)`` rows —
        the form the admission and fault/retry loops work on."""
        return self.per_job(
            list(
                zip(self.problems, self.pipelines, self.schedules, self.signatures)
            )
        )

    def select(self, indices) -> "_JobGroups":
        """The jobs at ``indices`` (e.g. the ones admission kept)."""
        rows = self.rows()
        return _JobGroups.from_rows(rows[i] for i in indices)

    def table(self) -> JobTable:
        """The executor's view: one template per distinct
        pipeline/schedule object pair (two groups can resolve to the
        same pair, e.g. an atom count and the very pipeline the cache
        built for it)."""
        distinct = JobTable.of(zip(self.pipelines, self.schedules))
        return JobTable(
            distinct.templates,
            list(map(distinct.job_template.__getitem__, self.job_group)),
        )


class NdftFramework:
    """NDFT on the Table III CPU-NDP system.

    ``enable_gpu=True`` additionally registers the discrete-GPU baseline
    machine as a third schedulable target, letting the cost-aware
    scheduler mix all three device kinds.  The default keeps the paper's
    two-sided system (and its published numbers) intact.
    """

    #: Default bound on every signature cache: ample for realistic size
    #: mixes, finite under adversarial variety (each entry is small, but
    #: a public service should not grow state per unique request).
    DEFAULT_CACHE_SIZE = 1024

    def __init__(
        self,
        system: SystemConfig | None = None,
        policy: SchedulingPolicy = SchedulingPolicy.COST_AWARE,
        enable_gpu: bool = False,
        memoize: bool = True,
        cache_size: int | None = DEFAULT_CACHE_SIZE,
    ):
        self.system = system or ndft_system_config()
        self.policy = policy
        #: Serving fast path: memoize pipelines/schedules/SCA/solo reports
        #: by content-addressed job signature.  ``False`` re-derives
        #: everything per job (the benchmark's uncached baseline).
        self.memoize = memoize
        #: LRU bound per cache (``None`` = unbounded).  Eviction is a
        #: capacity decision only: evicted entries are re-derived with
        #: identical values on the next miss.
        self.cache_size = cache_size
        self._pipeline_cache = LruCache(cache_size)
        self._schedule_cache = LruCache(cache_size)
        self._solo_report_cache = LruCache(cache_size)
        self._sca_cache = LruCache(cache_size)
        #: Minted signatures keyed by pipeline object identity (the value
        #: pins the pipeline so a recycled ``id`` can never alias): batch
        #: entries resolved through ``_pipeline_cache`` share one object,
        #: so duplicate jobs skip re-fingerprinting the registry per job.
        self._signature_cache = LruCache(cache_size)
        #: Memory footprints are pure functions of the size (and fixed
        #: NDP geometry) — computed once per distinct n_atoms, not per
        #: batch member; bounded for the same reason as the caches.
        self._footprint_cache: LruCache = LruCache(cache_size)
        #: Memoized ``(registry, cost model)`` fingerprint pair and the
        #: fault-lane catalog: pure functions of the target registry,
        #: recomputed only after ``register_target`` invalidates them
        #: (``None`` = not yet derived).  Unlike the LRU caches these are
        #: kept even under ``memoize=False`` — they are identity digests,
        #: not derived results, so staleness is the only hazard and
        #: ``clear_caches`` drops them with everything else.
        self._fingerprints: tuple[tuple, tuple] | None = None
        self._fault_lanes: tuple[str, ...] | None = None
        #: Jobs simulated per backend name across every ``run_many``
        #: call (see :attr:`backend_stats`).
        self._backend_jobs: dict[str, int] = {}
        #: Host wall seconds spent simulating per backend name across
        #: every ``run_many`` call (see :attr:`backend_stats`).
        self._backend_wall: dict[str, float] = {}
        self.host = CpuModel(self.system.host)
        self.ndp = NdpSystemModel(self.system.ndp)
        self.gpu = GpuModel(gpu_baseline_config()) if enable_gpu else None
        # Offload handovers run at half the raw link rate: the releasing
        # side flushes dirty lines before the consuming side can pull
        # (flush + copy, serialized).
        cpu_ndp_link = HostLink(
            bandwidth=self.system.ndp.host_link_bandwidth / 2.0
        )
        device_links: dict[frozenset, HostLink] = {}
        if self.gpu is not None:
            # GPU boundaries ride PCIe, not the CPU<->NDP host link; an
            # NDP<->GPU handover stages through host memory, traversing
            # both wires in series.
            pcie = HostLink(
                bandwidth=self.gpu.config.aggregate_pcie_bandwidth,
                base_latency=1e-6,
            )
            device_links[frozenset({"cpu", "gpu"})] = pcie
            device_links[frozenset({"ndp", "gpu"})] = serial_links(
                cpu_ndp_link, pcie
            )
        self.cost_model = OffloadCostModel(
            host_link=cpu_ndp_link,
            context_switch=self.system.context_switch_overhead,
            device_links=device_links,
        )
        self.scheduler = CostAwareScheduler(
            host=self.host,
            ndp=self.ndp,
            cost_model=self.cost_model,
            gpu=self.gpu,
        )
        self.executor = PipelineExecutor(cost_model=self.cost_model)
        self.sca = StaticCodeAnalyzer(
            cpu_roofline=RooflineModel(
                name=self.system.host.name,
                peak_flops=self.system.host.peak_flops,
                peak_bandwidth=self.host.memory.effective_bandwidth(
                    AccessPattern.SEQUENTIAL
                ),
            ),
            ndp_roofline=RooflineModel(
                name=self.system.ndp.name,
                peak_flops=self.system.ndp.peak_flops,
                peak_bandwidth=self.system.ndp.aggregate_internal_bandwidth
                * 0.86,
            ),
        )

    @property
    def cache_stats(self) -> dict[str, int]:
        """Per-cache hit/miss/eviction counters (observability for the
        serving benchmark and the memoization tests).  Counters survive
        cache clears."""
        stats: dict[str, int] = {}
        for kind, cache in (
            ("pipeline", self._pipeline_cache),
            ("schedule", self._schedule_cache),
            ("solo", self._solo_report_cache),
            ("sca", self._sca_cache),
            ("signature", self._signature_cache),
        ):
            stats[f"{kind}_hits"] = cache.hits
            stats[f"{kind}_misses"] = cache.misses
            stats[f"{kind}_evictions"] = cache.evictions
        # Always 0: the placement DP has no warm start; the key stays for
        # readers of the old stats layout (the benchmark's cache tracer).
        stats["warm_start_hits"] = 0
        return stats

    @property
    def backend_stats(self) -> dict[str, int | float]:
        """Per-backend observability across every ``run_many`` call —
        the ``cache_stats``-style counters for the executor's backend
        layer (:mod:`repro.core.backends`): jobs simulated under each
        registered backend's name, plus host wall seconds under
        ``"<name>_wall_seconds"``.  Every registered backend appears,
        zero-counted until used."""
        stats: dict[str, int | float] = {
            name: 0 for name in backend_names()
        }
        stats.update(self._backend_jobs)
        for name in backend_names():
            stats[f"{name}_wall_seconds"] = self._backend_wall.get(
                name, 0.0
            )
        return stats

    # ------------------------------------------------------------------
    # Target registry + caches
    # ------------------------------------------------------------------
    def register_target(
        self, placement: Placement, machine: ExecutionTarget
    ) -> None:
        """Add (or replace) an execution target and invalidate every
        memoized artifact: schedules, solo reports and built pipelines
        minted against the old registry must not survive it.

        Link pricing caveat: the cost model's per-pair ``device_links``
        are fixed at construction, so boundaries to a machine registered
        here are priced on the default CPU<->NDP host link unless the
        framework was built with the matching wires (e.g. a GPU should
        be enabled via ``NdftFramework(enable_gpu=True)``, which installs
        the PCIe and serial NDP<->GPU links, rather than registered after
        the fact)."""
        self.scheduler.register_target(placement, machine)
        self.clear_caches()

    def clear_caches(self) -> None:
        """Drop every memoized pipeline/schedule/SCA/solo-report entry,
        minted signature, footprint, and the memoized
        registry/cost-model fingerprints and fault-lane catalog
        (hit/miss/eviction counters are preserved)."""
        self._pipeline_cache.clear()
        self._schedule_cache.clear()
        self._solo_report_cache.clear()
        self._sca_cache.clear()
        self._signature_cache.clear()
        self._footprint_cache.clear()
        self._fingerprints = None
        self._fault_lanes = None

    def fingerprints(self) -> tuple[tuple, tuple]:
        """The ``(registry, cost model)`` fingerprint pair every minted
        signature embeds, derived once per registry version instead of
        re-walking the target registry and link table per job
        (:meth:`register_target` invalidates via :meth:`clear_caches`)."""
        if self._fingerprints is None:
            self._fingerprints = (
                target_registry_fingerprint(self.scheduler),
                cost_model_fingerprint(self.cost_model),
            )
        return self._fingerprints

    # ------------------------------------------------------------------
    # Cache snapshots (serving deployments surviving process restarts)
    # ------------------------------------------------------------------
    #: Snapshot payload version; bumped whenever the persisted layout
    #: changes so stale files are refused instead of misread.
    CACHE_SNAPSHOT_FORMAT = 1


    def cache_fingerprint(self) -> tuple:
        """The identity the persisted caches are sound under: policy,
        the full :class:`~repro.hw.config.SystemConfig` (the machine
        parameters every stage time derives from — a
        :class:`~repro.core.signature.JobSignature` can omit them only
        because its registry fingerprint is process-local), the target
        registry, and the cost-model parameters.  Two frameworks with
        equal fingerprints provably derive identical schedules/reports
        for equal jobs, so loading one's snapshot into the other never
        changes results.

        Soundness caveat the snapshot paths enforce: the registry
        fingerprint stands in for machine identity with a *per-process*
        registration counter, which distinguishes nothing across a
        process boundary — two processes that each ``register_target`` a
        *different* machine under the same name would fingerprint equal.
        Within one process the constructor-built registries (the Table
        III system, ``enable_gpu=True``) are pure functions of the
        constructor arguments, so snapshots are only allowed while the
        registry is untouched (:meth:`save_caches`/:meth:`load_caches`
        refuse after any ``register_target``)."""
        registry_fp, cost_fp = self.fingerprints()
        return (self.policy, self.system, registry_fp, cost_fp)

    def _check_snapshot_registry(self, action: str) -> None:
        """Refuse snapshot traffic once ``register_target`` has run:
        custom-registered machine objects cannot be fingerprinted across
        processes, so persisted entries derived under them cannot be
        proven valid in another process."""
        if self.scheduler.registry_version != 0:
            raise ConfigError(
                f"cannot {action} a cache snapshot after register_target: "
                "custom-registered machines have no cross-process "
                "fingerprint, so snapshot soundness cannot be checked"
            )

    def _snapshot_caches(self) -> dict[str, LruCache]:
        """The caches a snapshot persists (save and load both iterate
        this one mapping): exactly the derivation work worth saving
        across processes — the placement DP, the SCA pass, the solo DES
        run, the footprint closed forms.  The pipeline and signature
        caches stay out deliberately: their keys embed builder callables
        and object ids, which do not survive a process boundary, and
        rebuilding a pipeline is cheap."""
        return {
            "schedule": self._schedule_cache,
            "solo": self._solo_report_cache,
            "sca": self._sca_cache,
            "footprint": self._footprint_cache,
        }

    def save_caches(self, path: Path | str) -> Path:
        """Snapshot the signature-keyed caches to ``path`` so a restarted
        serving process can :meth:`load_caches` instead of re-deriving
        its working set cold.  The snapshot embeds
        :meth:`cache_fingerprint`; loading refuses a mismatch."""
        self._check_snapshot_registry("save")
        payload = {
            "format": self.CACHE_SNAPSHOT_FORMAT,
            "fingerprint": self.cache_fingerprint(),
            "caches": {
                name: cache.items()
                for name, cache in self._snapshot_caches().items()
            },
        }
        path = Path(path)
        with path.open("wb") as handle:
            pickle.dump(payload, handle)
        return path

    def load_caches(self, path: Path | str) -> int:
        """Merge a :meth:`save_caches` snapshot into this framework's
        caches and return the number of entries loaded.

        Soundness gate: the snapshot's fingerprint (policy + target
        registry + cost model) must equal this framework's — memoized
        schedules and reports are only valid under the exact machine
        parameters they were derived with, so a mismatch raises
        :class:`~repro.errors.ConfigError` rather than serving stale
        numbers.  Entries land via normal puts (LRU bounds and eviction
        counters apply); entries under equal keys are overwritten with
        provably identical values.  Payload keys and sections outside
        the cache table (the backend-tuner rows and warm-start index
        older versions wrote) are ignored, so their snapshots still
        load.

        Trust caveat: the snapshot is a pickle, deserialized *before*
        the format/fingerprint checks can reject it.  The unpickler
        admits only the types :meth:`save_caches` writes, so a file
        naming any other global (``os.system``, ...) raises
        :class:`~repro.errors.ConfigError` before anything runs; the
        admitted types can still carry wrong numbers, so load only this
        service's own output.  A truncated or corrupt file raises
        :class:`~repro.errors.ConfigError` too, never a raw
        ``EOFError``/``UnpicklingError``."""
        payload = self._read_snapshot(path, "load")
        loaded = 0
        for name, cache in self._snapshot_caches().items():
            for key, value in payload["caches"].get(name, ()):
                cache.put(key, value)
                loaded += 1
        return loaded

    def _read_snapshot(self, path: Path | str, action: str) -> dict:
        """Read and vet a :meth:`save_caches` payload: registry still
        pristine, readable pickle, known format, matching
        :meth:`cache_fingerprint`.  Shared by :meth:`load_caches` and
        :meth:`merge_caches` so both enforce identical refusal rules."""
        self._check_snapshot_registry(action)
        path = Path(path)
        try:
            with path.open("rb") as handle:
                payload = _SnapshotUnpickler(handle).load()
        except (EOFError, pickle.UnpicklingError, AttributeError) as exc:
            raise ConfigError(
                f"{path} is not a readable cache snapshot (truncated or "
                f"corrupt pickle: {exc})"
            ) from exc
        if (
            not isinstance(payload, dict)
            or payload.get("format") != self.CACHE_SNAPSHOT_FORMAT
        ):
            raise ConfigError(
                f"{path} is not a cache snapshot this version understands "
                f"(expected format {self.CACHE_SNAPSHOT_FORMAT})"
            )
        fingerprint = self.cache_fingerprint()
        if payload.get("fingerprint") != fingerprint:
            raise ConfigError(
                "refusing cache snapshot: it was taken under a different "
                "policy/target-registry/cost-model fingerprint "
                f"({payload.get('fingerprint')!r} vs {fingerprint!r}); "
                "re-derive instead of serving stale schedules"
            )
        return payload

    def merge_caches(self, path: Path | str) -> int:
        """Fleet merge-back: union a worker's snapshot into this
        framework's caches, counting only *never-seen* entries.

        :meth:`load_caches` is the restart direction (overwrite-equal
        semantics are fine because equal keys prove equal values); this
        is the reverse direction — a fleet parent folding what each
        worker replica learned back into the shared snapshot — and it
        must be *idempotent*: a worker's snapshot contains everything
        the parent shipped plus whatever the worker derived, so the
        parent skips keys it already holds and adds only the novel
        schedules/solo/SCA/footprint entries.  Merging the same snapshot
        twice therefore reports 0 new entries the second time (up to LRU
        capacity pressure).  The same refusal rules as loading apply:
        format, fingerprint, pristine registry; sections outside the
        cache table are ignored, as on load."""
        payload = self._read_snapshot(path, "merge")
        merged = 0
        for name, cache in self._snapshot_caches().items():
            for key, value in payload["caches"].get(name, ()):
                if key in cache:
                    continue
                cache.put(key, value)
                merged += 1
        return merged

    def job_signature(self, pipeline: Pipeline) -> JobSignature:
        """The content-addressed key this framework memoizes ``pipeline``
        under (problem + structure + policy + targets + cost model).

        Minting reuses the framework's memoized :meth:`fingerprints`
        (derived once per registry version), and with memoization on the
        signature itself is cached by pipeline object identity (entries
        resolved through the pipeline cache share one object).  The
        cached value pins the pipeline, so its ``id`` cannot be recycled
        while the entry lives, and registry changes clear the cache
        through :meth:`register_target`."""
        if not self.memoize:
            return self._mint_signature(pipeline)
        return self._signatures([pipeline], [1])[0]

    def _mint_signature(self, pipeline: Pipeline) -> JobSignature:
        registry_fp, cost_fp = self.fingerprints()
        return job_signature(
            pipeline,
            self.policy,
            self.scheduler,
            self.cost_model,
            registry_fp=registry_fp,
            cost_fp=cost_fp,
        )

    def _signatures(
        self, pipelines: list[Pipeline], weights: list[int]
    ) -> list[JobSignature | None]:
        """One signature per pipeline through the signature cache
        (``None`` each under ``memoize=False``: nothing is keyed)."""
        if not self.memoize:
            return [None] * len(pipelines)
        signed = self._signature_cache.lookup_many(
            [id(pipeline) for pipeline in pipelines],
            weights,
            lambda i: (pipelines[i], self._mint_signature(pipelines[i])),
        )
        return [signature for _pinned, signature in signed]

    # ------------------------------------------------------------------
    # Single job
    # ------------------------------------------------------------------
    def run(
        self,
        n_atoms: int | None = None,
        problem: ProblemSize | None = None,
        pipeline: Pipeline | None = None,
    ) -> NdftRunResult:
        """Schedule + execute LR-TDDFT for Si_{n_atoms} on the CPU-NDP
        system and account its memory.  A batch of one: the same
        validation, caches and assembly as :meth:`run_many`'s entries
        (a ``problem`` passed with a prebuilt ``pipeline`` labels it)."""
        entry = next(
            (e for e in (pipeline, problem, n_atoms) if e is not None), None
        )
        if entry is None:
            raise ConfigError("pass n_atoms, problem or pipeline")
        groups = self._resolve_batch([entry], build_pipeline)
        if problem is not None:
            groups.problems[0] = problem
        return self._assemble(groups, self._group_solo_reports(groups))[0]

    # ------------------------------------------------------------------
    # Batched jobs
    # ------------------------------------------------------------------
    def fault_lanes(self) -> tuple[str, ...]:
        """Every lane name the configured system exposes to fault plans:
        one device lane per registered scheduler target plus the
        pairwise ``link:a-b`` wire lanes the executor creates between
        them.  A fault window on any other lane name can never fire —
        the CLI validates ``--fault-lanes`` against this set.  Memoized
        per registry version (:meth:`register_target` invalidates), so
        per-call validation in serving loops costs a tuple fetch."""
        if self._fault_lanes is None:
            targets = sorted(self.scheduler.targets, key=lambda p: p.value)
            lanes = [p.value for p in targets]
            for i, a in enumerate(targets):
                for b in targets[i + 1 :]:
                    lanes.append(
                        "link:" + "-".join(sorted((a.value, b.value)))
                    )
            self._fault_lanes = tuple(sorted(lanes))
        return self._fault_lanes

    def run_many(
        self,
        batch: Sequence[int | ProblemSize | Pipeline],
        pipeline_builder: Callable[[ProblemSize], Pipeline] | None = None,
        arrivals: Sequence[float] | None = None,
        backend: str | None = None,
        admission: AdmissionPolicy | None = None,
        faults: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
    ) -> NdftBatchResult:
        """Schedule and execute a batch of heterogeneous jobs through one
        shared machine.

        ``batch`` entries may be atom counts, :class:`ProblemSize` records
        or prebuilt pipelines (mixed freely).  Every job is scheduled
        independently under the framework policy, then all jobs execute
        concurrently on the shared device/link resources, so jobs whose
        placements use different devices at different times genuinely
        overlap.  ``pipeline_builder`` overrides the Fig. 1 chain for
        entries given as sizes (e.g. ``build_kpoint_pipeline``).

        ``arrivals`` releases job ``i`` at virtual-time offset
        ``arrivals[i]`` instead of t=0 — the open-queue serving model
        (see :func:`repro.core.arrivals.poisson_arrivals` for the
        standard generator); the result then reports completion-latency
        percentiles and queueing delays.

        With memoization on (the default), duplicate jobs in the batch
        are grouped at the boundary: each distinct job is built,
        scheduled, analyzed and solo-timed once, and only the
        shared-machine simulation sees every submitted job.  Entries
        that are not a ``Pipeline``, a ``ProblemSize`` or a non-bool
        integer (``np.int64`` included), and non-finite ``arrivals``,
        raise :class:`~repro.errors.ConfigError` naming the index.
        ``backend`` forces one named simulation backend for every shard
        (:mod:`repro.core.backends`; by default each shard takes the
        first backend in the registry's static capability order that
        accepts it).  Results are bit-identical whichever backend
        simulates.

        ``admission`` applies an SLO-driven
        :class:`~repro.core.arrivals.AdmissionPolicy` to the open queue
        (it requires ``arrivals``): each arrival's completion is
        predicted from its memoized solo-time estimate plus the current
        backlog on its placement's lanes, violators are shed (never
        simulated) or deprioritized (released after the predicted
        drain), and the result's :attr:`NdftBatchResult.admission`
        records every decision.  The plan is deterministic — the same
        arrivals and policy always shed the same set.

        ``faults`` injects a deterministic
        :class:`~repro.core.faults.FaultPlan`; ``retry`` (default
        :class:`~repro.core.faults.RetryPolicy`) governs recovery: a job
        killed by a lane outage re-enters the open queue at its
        backoff-delayed release, and jobs whose base placement touches a
        *permanently* dead lane are re-placed through the exact DP with
        the dead target excluded (graceful degradation, e.g. NDP→CPU).
        The result's ``jobs``/latency properties then cover the jobs
        that eventually completed, and :attr:`NdftBatchResult.resilience`
        records every attempt, availability, goodput vs throughput, and
        post-fault latency percentiles.  Plans may also carry correlated
        shock outages (:func:`~repro.core.faults.shock_fault_plan`) and
        non-lethal :class:`~repro.core.faults.SlowdownWindow` degradation
        (service times inflate piecewise, jobs survive), and
        ``RetryPolicy(checkpoint=True)`` turns retries into resumes:
        the failed run's completed-stage frontier re-enters as the
        residual suffix pipeline, and the report surfaces
        ``resumed_stages``/``work_saved_seconds``.  An *empty* plan is
        bit-identical to no plan across every backend.
        """
        if not batch:
            raise ConfigError("run_many needs at least one job")
        if retry is not None and faults is None:
            raise ConfigError(
                "retry= only makes sense under fault injection: pass "
                "faults= (a FaultPlan) alongside it"
            )
        if arrivals is not None:
            arrivals = finite_floats(arrivals, "arrival offset")
        builder = pipeline_builder or build_pipeline
        groups = self._resolve_batch(batch, builder)

        # Solo (dedicated-machine) makespans first: the admission
        # controller's completion estimates need them, and they are
        # pure per-signature derivations — computing them before or
        # after the shared simulation changes nothing.
        solo_times = groups.per_job(
            [report.total_time for report in self._group_solo_reports(groups)]
        )
        admission_result = None
        if admission is not None:
            executed, arrivals, admission_result = self._admit(
                admission, groups, arrivals, solo_times
            )
            if not executed:  # everything shed: nothing to simulate
                return NdftBatchResult(
                    jobs=(),
                    batch_report=BatchExecutionReport(
                        job_reports=(),
                        makespan=0.0,
                        arrivals=(),
                        n_shards=0,
                        n_superjobs=0,
                    ),
                    solo_times=(),
                    admission=admission_result,
                    resilience=(
                        None
                        if faults is None
                        else ResilienceReport(
                            plan=faults, retry=retry or RetryPolicy()
                        )
                    ),
                )
            groups = groups.select(executed)
            solo_times = tuple(solo_times[i] for i in executed)

        if faults is not None:
            return self._run_resilient(
                groups.rows(),
                arrivals,
                solo_times,
                faults,
                retry or RetryPolicy(),
                backend,
                admission_result,
            )

        batch_report = self.executor.execute_many(
            groups.table(),
            arrivals=arrivals,
            backend=backend,
        )
        self._count_backends(batch_report)
        return NdftBatchResult(
            jobs=self._assemble(groups, batch_report.job_reports),
            batch_report=batch_report,
            solo_times=solo_times,
            admission=admission_result,
        )

    def _resolve_batch(
        self,
        batch: Sequence[int | ProblemSize | Pipeline],
        builder: Callable[[ProblemSize], Pipeline],
    ) -> _JobGroups:
        """Validate, group and resolve batch entries (atom counts,
        problems, pipelines): each distinct job is built, signed and
        scheduled once, through the signature caches when memoization
        is on.  Shared by :meth:`run`, :meth:`run_many` and
        :meth:`job_estimates` so all see identical jobs."""
        items, job_group = self._group_batch(batch)
        weights = _weights(job_group, len(items))
        problems = [
            item.problem if isinstance(item, Pipeline) else item
            for item in items
        ]
        pipelines = list(items)
        sized = [
            g for g, item in enumerate(items) if not isinstance(item, Pipeline)
        ]
        built = self._memo(
            self._pipeline_cache,
            [(problems[g], builder) for g in sized] if self.memoize else None,
            [weights[g] for g in sized],
            lambda i: builder(problems[sized[i]]),
        )
        for g, pipeline in zip(sized, built):
            pipelines[g] = pipeline
        signatures = self._signatures(pipelines, weights)
        schedules = self._schedules(
            pipelines, signatures if self.memoize else None, weights, frozenset()
        )
        return _JobGroups(
            problems, pipelines, signatures, schedules, job_group, weights
        )

    def _group_batch(
        self, batch: Sequence[int | ProblemSize | Pipeline]
    ) -> tuple[list[ProblemSize | Pipeline], list[int]]:
        """Validate the entries and group them by distinct job, in
        first-occurrence order: the distinct items (problems or
        prebuilt pipelines) and each job's group index.

        Atom counts and :class:`ProblemSize` entries group by problem,
        prebuilt pipelines by object identity.  Each distinct raw entry
        is validated once; every other job costs one dict lookup.
        Under ``memoize=False`` every job is its own group."""
        batch = list(batch)
        if not self.memoize:
            return (
                [_batch_item(i, entry) for i, entry in enumerate(batch)],
                list(range(len(batch))),
            )
        # The type is part of the key: True == 1 and 64.0 == 64, but
        # neither is the atom count it equals.  Pipelines key by
        # identity, never by (deep) value.
        kinds = list(map(type, batch))
        if any(issubclass(kind, Pipeline) for kind in set(kinds)):
            keys = [
                (Pipeline, id(entry)) if issubclass(kind, Pipeline) else (kind, entry)
                for kind, entry in zip(kinds, batch)
            ]
        else:
            keys = list(zip(kinds, batch))
        n = len(keys)
        try:
            # key -> its first position (later positions are overwritten
            # by earlier ones, walking backwards).
            first = dict(zip(reversed(keys), range(n - 1, -1, -1)))
        except TypeError:  # an unhashable entry, which no valid one is
            for position, entry in enumerate(batch):
                _batch_item(position, entry)
            raise
        groups: dict = {}
        key_group: dict = {}
        items: list[ProblemSize | Pipeline] = []
        for key, position in sorted(first.items(), key=itemgetter(1)):
            item = _batch_item(position, batch[position])
            merged = key if isinstance(item, Pipeline) else item
            group = groups.get(merged)
            if group is None:
                group = groups[merged] = len(items)
                items.append(item)
            key_group[key] = group
        return items, list(map(key_group.__getitem__, keys))

    def job_estimates(
        self,
        batch: Sequence[int | ProblemSize | Pipeline],
        pipeline_builder: Callable[[ProblemSize], Pipeline] | None = None,
    ) -> tuple[tuple[float, ...], tuple[tuple, ...]]:
        """Per-job ``(solo_times, lanes)`` — the memoized backlog-model
        inputs :func:`~repro.core.arrivals.plan_admission` consumes:
        each job's dedicated-machine DES makespan and the device/wire
        lane names its placement occupies.  The admission controller
        and the fleet router (:mod:`repro.fleet`) share exactly these
        estimates, so routing and shedding predict with one model, and
        every derivation rides the ordinary signature caches (a size
        seen before costs a lookup)."""
        if not batch:
            raise ConfigError("job_estimates needs at least one job")
        builder = pipeline_builder or build_pipeline
        groups = self._resolve_batch(batch, builder)
        solo_times = groups.per_job(
            [report.total_time for report in self._group_solo_reports(groups)]
        )
        lanes = groups.per_job(
            [PipelineExecutor.schedule_lanes(s) for s in groups.schedules]
        )
        return solo_times, lanes

    def _count_backends(self, report: BatchExecutionReport) -> None:
        """Fold one batch's per-backend jobs and wall seconds into
        :attr:`backend_stats`."""
        for name, count in report.backend_jobs.items():
            self._backend_jobs[name] = self._backend_jobs.get(name, 0) + count
        for name, wall in report.backend_wall_seconds.items():
            self._backend_wall[name] = self._backend_wall.get(name, 0.0) + wall

    def _run_resilient(
        self,
        jobs: Sequence[tuple],
        arrivals: Sequence[float] | None,
        solo_times: tuple[float, ...],
        faults: FaultPlan,
        retry: RetryPolicy,
        backend: str | None,
        admission_result,
    ) -> NdftBatchResult:
        """The fault-injected serving loop: simulate, retry, re-place.

        Runs rounds of the full shared-machine simulation to a fixpoint:
        each round's *run list* is the base submission plus, for every
        run the fault plan killed, its retry released at
        ``fail_time + backoff(attempt)`` (while attempts and the per-job
        timeout allow).  Because a retry always releases strictly after
        the failure that caused it, and failures only happen at the
        plan's fault-event instants, the run list stabilizes after at
        most one round per (event, attempt) pair — the final round *is*
        the consistent execution, and everything reported comes from it.

        Runs released at-or-after a lane's permanent death whose base
        placement touches the dead target are re-placed through the
        exact DP with every dead-at-release target excluded
        (:meth:`_schedule_for` with ``exclude=``), reusing the degraded
        schedule across runs via the composite cache keys.

        Under ``retry.checkpoint`` a failed run's completed-stage
        frontier rides along with its retry, which re-enters as the
        *residual* pipeline (:meth:`Pipeline.residual`): the suffix past
        the frontier, scheduled through the same exact DP under its own
        content-derived signature, so residual and full schedules
        coexist in every cache.  Frontiers accumulate across attempts,
        and each resumed attempt's skipped work — valued at the base
        schedule's stage times — surfaces as
        :attr:`ResilienceReport.work_saved_seconds`.
        """
        n = len(jobs)
        releases0 = (
            [0.0] * n if arrivals is None else [float(a) for a in arrivals]
        )
        dead_at: dict[Placement, float] = {}
        for lane, death in faults.dead_lanes().items():
            try:
                placement = Placement(lane)
            except ValueError as exc:
                raise ConfigError(
                    f"permanent failure on {lane!r} does not name a known "
                    f"device lane"
                ) from exc
            dead_at[placement] = death

        # Residual (pipeline, signature, schedule) per checkpoint
        # frontier, built once per (job, frontier) within this call; the
        # residual's schedule and solo numbers persist across calls via
        # the ordinary content-derived signature caches.
        residuals: dict[tuple[int, tuple[str, ...]], tuple] = {}

        def resolve_run(job_index: int, release: float, frontier: tuple):
            """The (pipeline, signature, schedule, exclusion, degraded?,
            work_saved) for one run.  A non-empty ``frontier`` swaps in
            the residual pipeline past the checkpointed stages; dead-at-
            release targets are excluded iff the run's placement touches
            one (a placement clear of every dead lane cannot suffer a
            permanent failure, so re-solving would change nothing)."""
            _problem, pipeline, schedule, signature = jobs[job_index]
            work_saved = 0.0
            if frontier:
                base_times = schedule.stage_times
                work_saved = sum(
                    base_times[name].total for name in frontier
                )
                key = (job_index, frontier)
                cached = residuals.get(key)
                if cached is None:
                    residual = pipeline.residual(frontier)
                    r_signature = (
                        self.job_signature(residual) if self.memoize else None
                    )
                    cached = (
                        residual,
                        r_signature,
                        self._schedule_for(residual, r_signature),
                    )
                    residuals[key] = cached
                pipeline, signature, schedule = cached
            excl = frozenset(
                p for p, death in dead_at.items() if death <= release
            )
            if not excl or not (excl & set(schedule.assignments.values())):
                return pipeline, signature, schedule, frozenset(), False, work_saved
            degraded = self._schedule_for(pipeline, signature, exclude=excl)
            return pipeline, signature, degraded, excl, True, work_saved

        base_runs = [(i, 1, releases0[i], ()) for i in range(n)]
        runs = base_runs
        max_rounds = (len(faults.event_times()) + 1) * retry.max_attempts + 2
        report = None
        run_meta: list = []
        failed_runs: dict[int, object] = {}
        for _round in range(max_rounds):
            sim_jobs = []
            run_meta = []
            for job_index, _attempt, release, frontier in runs:
                resolved = resolve_run(job_index, release, frontier)
                sim_jobs.append((resolved[0], resolved[2]))
                run_meta.append(resolved)
            # The base round of a closed batch must be the exact no-plan
            # submission (arrivals=None, not explicit zeros): the empty-
            # plan bit-identity contract covers the event stream, and a
            # zero release still costs a timeout event.
            sim_arrivals = (
                None
                if arrivals is None and runs == base_runs
                else [release for _job, _attempt, release, _f in runs]
            )
            report = self.executor.execute_many(
                sim_jobs,
                arrivals=sim_arrivals,
                backend=backend,
                faults=faults,
            )
            failed_runs = {failure.job: failure for failure in report.failures}
            new_runs = list(base_runs)
            for position, (job_index, attempt, _release, frontier) in enumerate(
                runs
            ):
                failure = failed_runs.get(position)
                if failure is None:
                    continue
                next_attempt = attempt + 1
                if next_attempt > retry.max_attempts:
                    continue
                next_release = failure.time + retry.backoff(attempt)
                if (
                    retry.job_timeout is not None
                    and next_release - releases0[job_index]
                    > retry.job_timeout
                ):
                    continue
                next_frontier = frontier
                if retry.checkpoint and failure.completed_stages:
                    # The frontier accumulates: stages the residual run
                    # completed join the stages earlier attempts banked.
                    next_frontier = tuple(
                        sorted(set(frontier) | set(failure.completed_stages))
                    )
                new_runs.append(
                    (job_index, next_attempt, next_release, next_frontier)
                )
            if new_runs == runs:
                break
            runs = new_runs
        else:  # pragma: no cover - the per-(event, attempt) bound holds
            raise ConfigError(
                "fault retry loop did not reach a fixpoint within "
                f"{max_rounds} rounds"
            )

        self._count_backends(report)

        # Outcomes: each job has at most one non-failed run (its last
        # attempt); every run of the converged round becomes an
        # AttemptRecord.
        completed: dict[int, int] = {}
        records = []
        for position, (job_index, attempt, release, frontier) in enumerate(
            runs
        ):
            failure = failed_runs.get(position)
            degraded = run_meta[position][4]
            work_saved = run_meta[position][5]
            if failure is None:
                completed[job_index] = position
            records.append(
                AttemptRecord(
                    job_index=job_index,
                    attempt=attempt,
                    release=release,
                    completed=failure is None,
                    failure_time=None if failure is None else failure.time,
                    failure_lane=None if failure is None else failure.lane,
                    failure_kind=None if failure is None else failure.kind,
                    degraded=degraded,
                    frontier=frontier,
                    work_saved=work_saved,
                )
            )
        abandoned = tuple(
            job_index for job_index in range(n) if job_index not in completed
        )
        end_to_end: list[float | None] = []
        for job_index in range(n):
            position = completed.get(job_index)
            if position is None:
                end_to_end.append(None)
            else:
                end_to_end.append(
                    report.job_reports[position].total_time
                    - releases0[job_index]
                )
        resilience = ResilienceReport(
            plan=faults,
            retry=retry,
            attempts=tuple(records),
            submitted=n,
            abandoned_jobs=abandoned,
            end_to_end_latencies=tuple(end_to_end),
            busy_span=report.busy_span,
        )

        # The surfaced batch covers the jobs that completed, in
        # submission order, with their *final-attempt* releases — the
        # convention deprioritized admission set (latencies count from
        # the release the simulation actually used; end-to-end latency
        # from the original arrival lives on the resilience report).
        kept = sorted(completed)
        kept_reports = tuple(report.job_reports[completed[i]] for i in kept)
        kept_releases = tuple(runs[completed[i]][2] for i in kept)
        out_arrivals = (
            None
            if arrivals is None and runs == base_runs
            else kept_releases
        )
        batch_report = BatchExecutionReport(
            job_reports=kept_reports,
            makespan=report.makespan,
            arrivals=out_arrivals,
            n_shards=report.n_shards,
            n_superjobs=report.n_superjobs,
            backend_jobs=report.backend_jobs,
            lane_occupancy=report.lane_occupancy,
            backend_timings=report.backend_timings,
            failures=report.failures,
        )
        kept_rows = []
        kept_solo = []
        for job_index in kept:
            position = completed[job_index]
            problem = jobs[job_index][0]
            pipeline, signature, schedule, excl, degraded, _saved = run_meta[
                position
            ]
            resumed = pipeline is not jobs[job_index][1]
            if degraded or resumed:
                solo_key = (
                    None
                    if signature is None
                    else (signature, _exclusion_key(excl))
                )
                solo = self._solo_report(
                    pipeline, schedule, signature, cache_key=solo_key
                ).total_time
            else:
                solo = solo_times[job_index]
            kept_solo.append(solo)
            kept_rows.append((problem, pipeline, schedule, signature))
        if admission_result is not None and abandoned:
            # Abandoned jobs shift the surviving jobs' positions; the
            # admitted-only percentile indices must follow them.
            remap = {job_index: new for new, job_index in enumerate(kept)}
            admission_result = replace(
                admission_result,
                counted_indices=tuple(
                    remap[i]
                    for i in admission_result.counted_indices
                    if i in remap
                ),
            )
        return NdftBatchResult(
            jobs=self._assemble(_JobGroups.from_rows(kept_rows), kept_reports),
            batch_report=batch_report,
            solo_times=tuple(kept_solo),
            admission=admission_result,
            resilience=resilience,
        )

    def _admit(
        self,
        admission: AdmissionPolicy,
        groups: _JobGroups,
        arrivals: list[float] | None,
        solo_times: tuple[float, ...],
    ) -> tuple[list[int], list[float], AdmissionResult]:
        """Run the admission controller over a resolved batch and
        return the executed job indices, their (possibly deferred)
        releases, and the full decision record."""
        if arrivals is None:
            raise ConfigError(
                "admission control acts on an open queue: pass arrivals= "
                "(e.g. poisson_arrivals) alongside admission="
            )
        if len(arrivals) != len(solo_times):
            raise ConfigError(
                f"{len(solo_times)} jobs but {len(arrivals)} arrival offsets"
            )
        decisions = plan_admission(
            admission,
            arrivals,
            solo_times,
            groups.per_job(
                [PipelineExecutor.schedule_lanes(s) for s in groups.schedules]
            ),
            groups.per_job([problem.label for problem in groups.problems]),
        )
        executed = [
            i
            for i, decision in enumerate(decisions)
            if decision.admitted or decision.deferred
        ]
        counted = tuple(
            position
            for position, i in enumerate(executed)
            if decisions[i].admitted
        )
        admission_result = AdmissionResult(
            policy=admission,
            decisions=decisions,
            counted_indices=counted,
        )
        return (
            executed,
            [decisions[i].release for i in executed],
            admission_result,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _memo(
        self,
        cache: LruCache,
        keys: list | None,
        weights: list[int],
        derive: Callable[[int], object],
    ) -> list:
        """``derive(i)`` for every position, through ``cache`` under
        ``keys[i]`` (probe every key, then fill the misses — see
        :meth:`LruCache.lookup_many`), or uncached when ``keys`` is
        ``None``."""
        if keys is None:
            return [derive(i) for i in range(len(weights))]
        return cache.lookup_many(keys, weights, derive)

    def _build_pipeline(
        self,
        problem: ProblemSize,
        builder: Callable[[ProblemSize], Pipeline],
    ) -> Pipeline:
        """Build (or reuse) the pipeline for one problem/builder pair.
        Sharing the built object also shares its cached structural hash,
        so duplicate batch entries hash once."""
        keys = [(problem, builder)] if self.memoize else None
        return self._memo(
            self._pipeline_cache, keys, [1], lambda _i: builder(problem)
        )[0]

    def _schedule_for(
        self,
        pipeline: Pipeline,
        signature: JobSignature | None,
        exclude: frozenset[Placement] | None = None,
    ) -> Schedule:
        """Schedule (or fetch the memoized schedule of) one job.

        ``exclude`` is the degraded-placement path after a permanent
        lane failure: the exact DP re-solves over the surviving targets,
        and the schedule cache keys the exclusion set alongside the
        signature — a degraded schedule must never shadow (or be
        shadowed by) the healthy one.
        """
        excl = frozenset(exclude) if exclude else frozenset()
        keys = None
        if signature is not None:
            keys = [signature if not excl else (signature, _exclusion_key(excl))]
        return self._schedules([pipeline], keys, [1], excl)[0]

    def _schedules(
        self,
        pipelines: list[Pipeline],
        keys: list | None,
        weights: list[int],
        excl: frozenset[Placement],
    ) -> list[Schedule]:
        """One schedule per pipeline, through the schedule cache under
        ``keys`` (uncached when ``None``); misses run the exact
        placement DP."""
        return self._memo(
            self._schedule_cache,
            keys,
            weights,
            lambda i: self.scheduler.schedule(
                pipelines[i], self.policy, exclude=excl or None
            ),
        )

    def _solo_report(
        self,
        pipeline: Pipeline,
        schedule: Schedule,
        signature: JobSignature | None,
        cache_key=None,
    ) -> ExecutionReport:
        """The job's standalone (dedicated-machine) DES report.

        ``cache_key`` overrides the cache key (default: the signature)
        — the degraded-placement path keys solo reports by
        ``(signature, exclusion)`` so they never collide with the
        healthy schedule's numbers."""
        keys = None
        if signature is not None:
            keys = [signature if cache_key is None else cache_key]
        return self._memo(
            self._solo_report_cache,
            keys,
            [1],
            lambda _i: self.executor.execute(pipeline, schedule),
        )[0]

    def _group_solo_reports(self, groups: _JobGroups) -> list[ExecutionReport]:
        """One standalone DES report per group of a resolved batch."""
        pipelines, schedules = groups.pipelines, groups.schedules
        return self._memo(
            self._solo_report_cache,
            groups.signatures if self.memoize else None,
            groups.weights,
            lambda g: self.executor.execute(pipelines[g], schedules[g]),
        )

    def _assemble(
        self, groups: _JobGroups, reports: Sequence[ExecutionReport]
    ) -> tuple[NdftRunResult, ...]:
        """One :class:`NdftRunResult` per job, ``reports[j]`` being job
        ``j``'s.  SCA verdicts and memory footprints are derived once
        per group: SCA keyed by structural hash alone (the analyzer sees
        only the pipeline and the rooflines fixed at construction, never
        the target registry), footprints by atom count (pure functions
        of the size and the fixed NDP geometry)."""
        pipelines, problems = groups.pipelines, groups.problems
        memo = self.memoize
        sca_reports = self._memo(
            self._sca_cache,
            [p.structural_hash for p in pipelines] if memo else None,
            groups.weights,
            lambda g: self.sca.analyze_all(
                [stage.function for stage in pipelines[g].stages]
            ),
        )
        footprints = self._memo(
            self._footprint_cache,
            [p.n_atoms for p in problems] if memo else None,
            groups.weights,
            lambda g: (
                footprint_ndft(problems[g].n_atoms, NDP_RANKS, NDP_STACKS),
                footprint_replicated(problems[g].n_atoms, NDP_RANKS),
            ),
        )
        rows = groups.per_job(
            [
                (problem, schedule, sca, ndft_gb, replicated_gb)
                for problem, schedule, sca, (ndft_gb, replicated_gb) in zip(
                    problems, groups.schedules, sca_reports, footprints
                )
            ]
        )
        return tuple(
            NdftRunResult(problem, schedule, report, sca, ndft_gb, replicated_gb)
            for (problem, schedule, sca, ndft_gb, replicated_gb), report in zip(
                rows, reports
            )
        )


def _exclusion_key(excl: frozenset[Placement]) -> tuple[str, ...]:
    """The cache-key form of a set of excluded (dead) targets."""
    return tuple(sorted(p.value for p in excl))
