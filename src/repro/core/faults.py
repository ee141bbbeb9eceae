"""Deterministic fault injection and retry policies for the serving stack.

A :class:`FaultPlan` describes *when lanes break* in virtual time:

- **transient outages** — half-open windows ``[start, end)`` during which
  a lane (a device lane such as ``"ndp"`` or a wire lane such as
  ``"link:cpu-ndp"``) is unavailable.  A task granted the lane inside a
  window waits the window out; a window that *starts* while a task is in
  service kills the whole job at the window start (advance-knowledge,
  preemption-free semantics — see
  :func:`repro.hw.engine.resolve_degraded_service`).
- **permanent failures** — a device lane dies at time ``t`` and never
  comes back.  Jobs released after the death are re-placed through the
  exact scheduling DP with the dead target excluded (graceful
  degradation, e.g. NDP → CPU).
- **slowdown windows** (:class:`SlowdownWindow`) — partial degradation:
  during ``[start, end)`` the lane serves at ``1/factor`` of its
  nominal rate, so services overlapping the window accrue piecewise-
  inflated durations instead of dying (see
  :func:`repro.hw.engine.inflate_service`).  Slowdowns never kill a
  job on their own, but the inflated span *is* what the outage and
  permanent-death checks run against.

Plans compose: :meth:`FaultPlan.merge` unions two plans' timelines
(re-normalizing per lane), which is how the correlated-shock process of
:func:`shock_fault_plan` — one shared seeded clock striking whole lane
*groups* at once — layers on top of independent per-lane
:func:`poisson_fault_plan` windows and :func:`slowdown_fault_plan`
degradation.

Plans are plain data and deterministic: the same plan (or the same
``seed`` via the drawing helpers) always yields the same failure set,
retry schedule, and final report.  An *empty* plan is contractually
bit-identical to passing no plan at all — the executor never enters the
fault-aware code path, so all four simulation backends keep producing
the exact same floats.

:class:`RetryPolicy` governs what happens after a failure: a failed job
re-enters the open queue at ``fail_time + backoff(attempt)`` with
exponential backoff in virtual time (clamped at ``backoff_max`` when
set), up to ``max_attempts`` tries and an optional per-job timeout.
``checkpoint=True`` additionally records each failed run's completed-
stage frontier, so the retry re-enters as a *residual pipeline* (the
suffix past the checkpoint) instead of redoing finished work.
:class:`ResilienceReport` is the per-batch summary surfaced on
``NdftBatchResult.resilience``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from repro.errors import ConfigError, finite_float
from repro.hw.engine import resolve_degraded_service
from repro.stats import percentile

__all__ = [
    "FaultPlan",
    "SlowdownWindow",
    "RetryPolicy",
    "RunFailure",
    "AttemptRecord",
    "ResilienceReport",
    "poisson_fault_plan",
    "shock_fault_plan",
    "slowdown_fault_plan",
]

_WIRE_PREFIX = "link:"


def _normalize_outages(
    outages: tuple[tuple[str, float, float], ...],
    dead: dict[str, float],
) -> tuple[tuple[str, float, float], ...]:
    """Sort, merge, and clamp transient windows per lane."""
    by_lane: dict[str, list[tuple[float, float]]] = {}
    for entry in outages:
        try:
            lane, start, end = entry
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"outage entries must be (lane, start, end) triples, got {entry!r}"
            ) from exc
        lane = str(lane)
        start = finite_float(start, f"outage start on lane {lane!r}")
        end = finite_float(end, f"outage end on lane {lane!r}")
        if not (start >= 0.0 and end > start):
            raise ConfigError(
                f"outage window on lane {lane!r} must satisfy 0 <= start < end, "
                f"got [{start}, {end})"
            )
        by_lane.setdefault(lane, []).append((start, end))
    normalized: list[tuple[str, float, float]] = []
    for lane in sorted(by_lane):
        dead_at = dead.get(lane)
        merged: list[list[float]] = []
        for start, end in sorted(by_lane[lane]):
            if dead_at is not None:
                # Windows at or past the permanent death are redundant:
                # the lane is already gone.
                if start >= dead_at:
                    continue
                end = min(end, dead_at)
                if end <= start:
                    continue
            if merged and start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        normalized.extend((lane, start, end) for start, end in merged)
    return tuple(normalized)


@dataclass(frozen=True)
class SlowdownWindow:
    """Partial degradation of one lane: during ``[start, end)`` the lane
    serves at ``1/factor`` of its nominal rate.

    Unlike an outage, a slowdown never kills a job — a service
    overlapping the window accrues a piecewise-inflated wall duration
    (:func:`repro.hw.engine.inflate_service`) and completes late.
    ``factor`` must be > 1.0: a factor of 1.0 is a no-op that would
    still route its shard off the replay backends, and a factor below
    1.0 would be a speedup, not a degradation.
    """

    lane: str
    start: float
    end: float
    factor: float

    def __post_init__(self) -> None:
        lane = str(self.lane)
        object.__setattr__(self, "lane", lane)
        for name in ("start", "end", "factor"):
            value = finite_float(
                getattr(self, name), f"slowdown {name} on lane {lane!r}"
            )
            object.__setattr__(self, name, value)
        if not (self.start >= 0.0 and self.end > self.start):
            raise ConfigError(
                f"slowdown window on lane {self.lane!r} must satisfy "
                f"0 <= start < end, got [{self.start}, {self.end})"
            )
        if not self.factor > 1.0:
            raise ConfigError(
                f"slowdown factor on lane {self.lane!r} must be > 1.0 "
                f"(an inflation), got {self.factor}"
            )


def _normalize_slowdowns(
    slowdowns,
    dead: dict[str, float],
) -> tuple[SlowdownWindow, ...]:
    """Sort and clamp slowdown windows per lane; reject overlaps.

    Overlapping slowdowns on one lane have no defined composite rate
    (factors do not merge the way outage windows union), so they are a
    configuration error rather than silently combined.  Windows at or
    past the lane's permanent death are dropped; windows spanning it
    are clamped — a dead lane cannot be slow.
    """
    by_lane: dict[str, list[SlowdownWindow]] = {}
    for entry in slowdowns:
        if not isinstance(entry, SlowdownWindow):
            try:
                lane, start, end, factor = entry
            except (TypeError, ValueError) as exc:
                raise ConfigError(
                    "slowdown entries must be SlowdownWindow or "
                    f"(lane, start, end, factor), got {entry!r}"
                ) from exc
            entry = SlowdownWindow(lane, start, end, factor)
        by_lane.setdefault(entry.lane, []).append(entry)
    normalized: list[SlowdownWindow] = []
    for lane in sorted(by_lane):
        dead_at = dead.get(lane)
        previous_end = None
        for window in sorted(
            by_lane[lane], key=lambda w: (w.start, w.end)
        ):
            if dead_at is not None:
                if window.start >= dead_at:
                    continue
                if window.end > dead_at:
                    window = SlowdownWindow(
                        lane, window.start, dead_at, window.factor
                    )
            if previous_end is not None and window.start < previous_end:
                raise ConfigError(
                    f"slowdown windows on lane {lane!r} overlap at "
                    f"{window.start}: overlapping factors have no "
                    "defined composite rate"
                )
            previous_end = window.end
            normalized.append(window)
    return tuple(normalized)


def _merged_meta(a, b):
    """Provenance metadata of a merged plan: kept when unambiguous
    (one side unset, or both agree), dropped otherwise — the composed
    timeline is still fully described by the digest."""
    if a is None:
        return b
    if b is None:
        return a
    return a if a == b else None


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of lane outages and permanent failures.

    ``outages`` holds ``(lane, start, end)`` transient windows over device
    or wire lanes; ``permanent`` holds ``(lane, dead_at)`` pairs over
    *device* lanes only (a dead wire would partition the machine rather
    than degrade it, so permanent wire failures are rejected);
    ``slowdowns`` holds :class:`SlowdownWindow` partial-degradation
    windows (plain ``(lane, start, end, factor)`` tuples are accepted
    too).  Everything is normalized on construction: sorted, merged
    (outages) or overlap-rejected (slowdowns) per lane, and clamped at
    the lane's permanent death time.  ``seed``/``mtbf``/``mttr``/
    ``horizon``/``shock_rate``/``shock_groups`` are provenance metadata
    recorded by the drawing helpers and carried into benchmark
    descriptors; :meth:`merge` keeps each field only when unambiguous.
    """

    outages: tuple[tuple[str, float, float], ...] = ()
    permanent: tuple[tuple[str, float], ...] = ()
    slowdowns: tuple[SlowdownWindow, ...] = ()
    seed: int | None = None
    mtbf: float | None = None
    mttr: float | None = None
    horizon: float | None = None
    shock_rate: float | None = None
    shock_groups: tuple[tuple[str, ...], ...] | None = None

    def __post_init__(self) -> None:
        dead: dict[str, float] = {}
        for entry in self.permanent:
            try:
                lane, dead_at = entry
            except (TypeError, ValueError) as exc:
                raise ConfigError(
                    f"permanent entries must be (lane, dead_at) pairs, got {entry!r}"
                ) from exc
            lane = str(lane)
            dead_at = finite_float(
                dead_at, f"permanent failure time for lane {lane!r}"
            )
            if lane.startswith(_WIRE_PREFIX):
                raise ConfigError(
                    f"permanent failure on wire lane {lane!r} is not supported: "
                    "a dead link partitions the machine instead of degrading it "
                    "(use a transient outage window instead)"
                )
            if dead_at < 0.0:
                raise ConfigError(
                    f"permanent failure time for lane {lane!r} must be >= 0, "
                    f"got {dead_at}"
                )
            if lane in dead:
                dead_at = min(dead_at, dead[lane])
            dead[lane] = dead_at
        object.__setattr__(
            self,
            "permanent",
            tuple(sorted(dead.items())),
        )
        object.__setattr__(
            self,
            "outages",
            _normalize_outages(tuple(self.outages), dead),
        )
        object.__setattr__(
            self,
            "slowdowns",
            _normalize_slowdowns(tuple(self.slowdowns), dead),
        )
        windows: dict[str, list[tuple[float, float]]] = {}
        for lane, start, end in self.outages:
            windows.setdefault(lane, []).append((start, end))
        object.__setattr__(
            self,
            "_windows",
            {lane: tuple(spans) for lane, spans in windows.items()},
        )
        object.__setattr__(self, "_dead", dict(self.permanent))
        slow: dict[str, list[tuple[float, float, float]]] = {}
        for window in self.slowdowns:
            slow.setdefault(window.lane, []).append(
                (window.start, window.end, window.factor)
            )
        object.__setattr__(
            self,
            "_slow",
            {lane: tuple(spans) for lane, spans in slow.items()},
        )
        if self.shock_groups is not None:
            object.__setattr__(
                self,
                "shock_groups",
                tuple(
                    tuple(str(lane) for lane in group)
                    for group in self.shock_groups
                ),
            )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """True when the plan carries no fault events at all."""
        return not self.outages and not self.permanent and not self.slowdowns

    @property
    def lanes(self) -> frozenset[str]:
        """All lanes with at least one fault event (slowdowns included)."""
        return (
            frozenset(self._windows)
            | frozenset(self._dead)
            | frozenset(self._slow)
        )

    def affects(self, lanes) -> bool:
        """True when any of ``lanes`` carries a fault event — an outage
        window, a permanent death, or a slowdown window.  This is the
        executor's routing predicate: an affected shard must run on the
        fault-aware engine path."""
        windows = self._windows
        dead = self._dead
        slow = self._slow
        return any(
            lane in windows or lane in dead or lane in slow for lane in lanes
        )

    def affects_lethally(self, lanes) -> bool:
        """True when any of ``lanes`` carries a *job-killing* event (an
        outage window or a permanent death).  Slowdown-only lanes
        inflate services but never fail them — the distinction picks
        which named reason the replay backends decline with."""
        windows = self._windows
        dead = self._dead
        return any(lane in windows or lane in dead for lane in lanes)

    def windows_for(self, lane: str) -> tuple[tuple[float, float], ...]:
        return self._windows.get(lane, ())

    def slowdowns_for(
        self, lane: str
    ) -> tuple[tuple[float, float, float], ...]:
        """The lane's ``(start, end, factor)`` slowdown spans, sorted
        and non-overlapping."""
        return self._slow.get(lane, ())

    def slowdown_lanes(self) -> frozenset[str]:
        """Lanes with at least one slowdown window."""
        return frozenset(self._slow)

    def dead_lanes(self) -> dict[str, float]:
        """Mapping of device lane -> permanent failure time."""
        return dict(self._dead)

    def event_times(self) -> tuple[float, ...]:
        """Sorted distinct fault event times (window starts + deaths).

        Job failures can only be triggered at these instants, which
        bounds the retry fixpoint iteration in the framework.  Slowdown
        boundaries are deliberately absent: a slowdown inflates a
        service but never kills it, so it cannot create a retry.
        """
        times = {start for _lane, start, _end in self.outages}
        times.update(self._dead.values())
        return tuple(sorted(times))

    def resolve_service(
        self, lane: str, grant: float, duration: float
    ) -> tuple[float, float, float | None, str | None]:
        """Resolve a task on ``lane`` granted at ``grant`` for ``duration``.

        Delegates to :func:`repro.hw.engine.resolve_degraded_service`;
        returns ``(service_start, wall_duration, fail_time_or_None,
        kind)`` — ``wall_duration`` is the slowdown-inflated service
        span (exactly ``duration`` when no slowdown overlaps).
        """
        return resolve_degraded_service(
            self._windows.get(lane, ()),
            self._slow.get(lane, ()),
            self._dead.get(lane),
            grant,
            duration,
        )

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------
    def merge(self, other: "FaultPlan") -> "FaultPlan":
        """Union of two plans' fault timelines, re-normalized per lane.

        Outage windows concatenate and re-merge; permanent deaths keep
        the earliest per lane; slowdown windows concatenate (overlaps
        across the two plans are rejected, as within one plan).  This
        is how a correlated-shock plan (:func:`shock_fault_plan`)
        composes with independent :func:`poisson_fault_plan` windows.
        Provenance metadata survives only where unambiguous; the digest
        and JSON descriptor always describe the composed timeline.
        """
        return FaultPlan(
            outages=self.outages + other.outages,
            permanent=self.permanent + other.permanent,
            slowdowns=self.slowdowns + other.slowdowns,
            seed=_merged_meta(self.seed, other.seed),
            mtbf=_merged_meta(self.mtbf, other.mtbf),
            mttr=_merged_meta(self.mttr, other.mttr),
            horizon=_merged_meta(self.horizon, other.horizon),
            shock_rate=_merged_meta(self.shock_rate, other.shock_rate),
            shock_groups=_merged_meta(self.shock_groups, other.shock_groups),
        )

    # ------------------------------------------------------------------
    # Descriptors
    # ------------------------------------------------------------------
    def digest(self) -> str:
        """Stable content hash of the normalized fault timeline.

        Slowdown-free plans hash exactly what they did before slowdowns
        existed, so pre-existing digests (committed benchmark
        descriptors) stay valid; any slowdown folds the normalized
        ``(lane, start, end, factor)`` spans into the payload.
        """
        timeline: tuple = (self.outages, self.permanent)
        if self.slowdowns:
            timeline = (
                self.outages,
                self.permanent,
                tuple(
                    (w.lane, w.start, w.end, w.factor)
                    for w in self.slowdowns
                ),
            )
        payload = repr(timeline).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()[:16]

    def to_json_dict(self) -> dict:
        """JSON-safe descriptor for benchmark reports.

        Two plans compare equal through this descriptor iff their
        normalized fault timelines match — ``bench_compare`` uses it to
        refuse trending across mismatched plans, and to gate
        availability/goodput only at matching descriptors.  A composed
        plan (:meth:`merge`) is fully described: the digest covers the
        merged timeline and the shock/slowdown fields say which shapes
        contributed.
        """
        return {
            "seed": self.seed,
            "mtbf": self.mtbf,
            "mttr": self.mttr,
            "horizon": self.horizon,
            "shock_rate": self.shock_rate,
            "shock_groups": (
                None
                if self.shock_groups is None
                else [list(group) for group in self.shock_groups]
            ),
            "lanes": sorted(self.lanes),
            "n_outages": len(self.outages),
            "n_permanent": len(self.permanent),
            "n_slowdowns": len(self.slowdowns),
            "slowdown_lanes": sorted(self.slowdown_lanes()),
            "digest": self.digest(),
        }


@dataclass(frozen=True)
class RetryPolicy:
    """What happens after a fault kills a job.

    A failed job re-enters the open queue at
    ``fail_time + backoff(attempt)`` where
    ``backoff(k) = backoff_base * backoff_factor ** (k - 1)`` (exponential
    backoff in *virtual* time), for up to ``max_attempts`` total attempts.
    ``backoff_max`` (optional) caps the delay: the uncapped geometric
    series grows without bound, so a large ``max_attempts`` would release
    late retries at absurd virtual times — or overflow the power to
    ``inf`` outright.  ``job_timeout`` (optional) abandons a job once its
    next attempt would start more than ``job_timeout`` seconds after its
    original arrival.  ``backoff_base`` must be strictly positive:
    retries releasing strictly after the failure that caused them is what
    makes the retry fixpoint converge.

    ``checkpoint=True`` turns retries into *resumes*: the frontier of
    stages the failed run had already completed is recorded at failure
    time, and the retry re-enters as the residual pipeline past that
    frontier (see :meth:`repro.core.framework.NdftFramework.run_many`),
    so finished work is never redone and ``job_timeout`` abandonment
    becomes far rarer.
    """

    max_attempts: int = 3
    backoff_base: float = 0.1
    backoff_factor: float = 2.0
    backoff_max: float | None = None
    job_timeout: float | None = None
    checkpoint: bool = False

    def __post_init__(self) -> None:
        if int(self.max_attempts) != self.max_attempts or self.max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be an integer >= 1, got {self.max_attempts!r}"
            )
        # A NaN or infinite field slips past the range checks below and
        # turns every backoff(k) into nan/inf.
        for name in ("backoff_base", "backoff_factor", "backoff_max", "job_timeout"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, finite_float(value, name))
        if not self.backoff_base > 0.0:
            raise ConfigError(
                f"backoff_base must be > 0 (retries must release strictly after "
                f"the failure), got {self.backoff_base!r}"
            )
        if self.backoff_factor < 1.0:
            raise ConfigError(
                f"backoff_factor must be >= 1, got {self.backoff_factor!r}"
            )
        if self.backoff_max is not None and not (
            self.backoff_max >= self.backoff_base
        ):
            raise ConfigError(
                f"backoff_max must be >= backoff_base "
                f"({self.backoff_base!r}) or None, got {self.backoff_max!r}"
            )
        if self.job_timeout is not None and not self.job_timeout > 0.0:
            raise ConfigError(
                f"job_timeout must be > 0 or None, got {self.job_timeout!r}"
            )

    def backoff(self, attempt: int) -> float:
        """Backoff delay after the ``attempt``-th (1-based) try failed,
        clamped at ``backoff_max`` when set (the clamp also absorbs a
        power that would otherwise overflow — CPython raises
        ``OverflowError`` for a float power past ~1e308 rather than
        returning ``inf``)."""
        try:
            delay = self.backoff_base * self.backoff_factor ** (attempt - 1)
        except OverflowError:
            delay = float("inf")
        if self.backoff_max is not None and delay > self.backoff_max:
            return self.backoff_max
        return delay

    def to_json_dict(self) -> dict:
        return {
            "max_attempts": self.max_attempts,
            "backoff_base": self.backoff_base,
            "backoff_factor": self.backoff_factor,
            "backoff_max": self.backoff_max,
            "job_timeout": self.job_timeout,
            "checkpoint": self.checkpoint,
        }


@dataclass(frozen=True)
class RunFailure:
    """One simulated run killed by a fault event.

    ``job`` is the run's position in the ``execute_many`` submission
    list; ``time`` is the virtual fail time (a window start or the lane's
    permanent death); ``kind`` is ``"outage"`` or ``"permanent"``.
    ``completed_stages`` is the sorted frontier of stages the run had
    fully finished before (or concurrently with) the failure — the
    checkpoint a ``RetryPolicy(checkpoint=True)`` resume starts past.
    """

    job: int
    time: float
    lane: str
    kind: str
    completed_stages: tuple[str, ...] = ()


@dataclass(frozen=True)
class AttemptRecord:
    """One attempt of one job in a resilient batch.

    ``frontier`` is the checkpointed completed-stage set this attempt
    resumed past (empty for a fresh run or without
    ``RetryPolicy(checkpoint=True)``); ``work_saved`` is the summed
    healthy solo duration of those skipped stages — virtual seconds of
    work the resume did not redo."""

    job_index: int
    attempt: int
    release: float
    completed: bool
    failure_time: float | None = None
    failure_lane: str | None = None
    failure_kind: str | None = None
    degraded: bool = False
    frontier: tuple[str, ...] = ()
    work_saved: float = 0.0


@dataclass(frozen=True)
class ResilienceReport:
    """Per-batch resilience summary (``NdftBatchResult.resilience``).

    ``attempts`` lists every simulated attempt of the final fixpoint
    round; ``end_to_end_latencies`` maps each submitted job to its
    original-arrival→final-completion latency (``None`` when abandoned);
    ``busy_span`` covers *all* attempts of the final round, so
    ``goodput`` (completed jobs over the span) is directly comparable to
    ``throughput_all_attempts`` (work attempted over the same span).
    """

    plan: FaultPlan
    retry: RetryPolicy
    attempts: tuple[AttemptRecord, ...] = ()
    submitted: int = 0
    abandoned_jobs: tuple[int, ...] = ()
    end_to_end_latencies: tuple[float | None, ...] = field(default=())
    busy_span: float = 0.0

    @property
    def completed(self) -> int:
        return self.submitted - len(self.abandoned_jobs)

    @property
    def abandoned(self) -> int:
        return len(self.abandoned_jobs)

    @property
    def total_attempts(self) -> int:
        return len(self.attempts)

    @property
    def failed_attempts(self) -> int:
        return sum(1 for record in self.attempts if not record.completed)

    @property
    def recovered(self) -> int:
        """Jobs that completed on a retry (attempt > 1)."""
        return sum(
            1 for record in self.attempts if record.completed and record.attempt > 1
        )

    @property
    def degraded_attempts(self) -> int:
        return sum(1 for record in self.attempts if record.degraded)

    @property
    def resumed_attempts(self) -> int:
        """Attempts that re-entered past a checkpointed frontier."""
        return sum(1 for record in self.attempts if record.frontier)

    @property
    def resumed_stages(self) -> int:
        """Total checkpointed stages skipped across the final round's
        resumed attempts (``RetryPolicy(checkpoint=True)``)."""
        return sum(len(record.frontier) for record in self.attempts)

    @property
    def work_saved_seconds(self) -> float:
        """Virtual seconds of completed-stage work the checkpoint
        resumes did not redo, summed over the final round's attempts."""
        return sum(record.work_saved for record in self.attempts)

    @property
    def availability(self) -> float:
        """Fraction of submitted jobs that eventually completed."""
        if self.submitted == 0:
            return 1.0
        return self.completed / self.submitted

    @property
    def goodput(self) -> float:
        """Completed jobs per second over the final round's busy span."""
        if self.busy_span <= 0.0:
            return 0.0
        return self.completed / self.busy_span

    @property
    def throughput_all_attempts(self) -> float:
        """All simulated attempts per second over the same busy span."""
        if self.busy_span <= 0.0:
            return 0.0
        return self.total_attempts / self.busy_span

    @property
    def post_fault_latencies(self) -> tuple[float, ...]:
        """End-to-end latencies of the jobs that completed."""
        return tuple(
            latency for latency in self.end_to_end_latencies if latency is not None
        )

    def _latency_percentile(self, q: float) -> float:
        latencies = self.post_fault_latencies
        if not latencies:
            return 0.0
        return percentile(latencies, q)

    @property
    def post_fault_p50(self) -> float:
        return self._latency_percentile(50.0)

    @property
    def post_fault_p99(self) -> float:
        return self._latency_percentile(99.0)

    def to_json_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "recovered": self.recovered,
            "abandoned": self.abandoned,
            "failed_attempts": self.failed_attempts,
            "total_attempts": self.total_attempts,
            "degraded_attempts": self.degraded_attempts,
            "resumed_attempts": self.resumed_attempts,
            "resumed_stages": self.resumed_stages,
            "work_saved_seconds": self.work_saved_seconds,
            "availability": self.availability,
            "goodput": self.goodput,
            "throughput_all_attempts": self.throughput_all_attempts,
            "post_fault_p50": self.post_fault_p50,
            "post_fault_p99": self.post_fault_p99,
        }


def _drawer_clocks(
    spacing, mttr, horizon, spacing_name: str = "mtbf"
) -> tuple[float, float, float]:
    """A drawer's event spacing (``mtbf``, or a shock ``rate``), repair
    time and horizon as finite positive floats.  An infinite horizon
    would draw forever, and an infinite mean time makes the drawers'
    exponential rate ``1/inf`` zero."""
    clocks = []
    named = ((spacing, spacing_name), (mttr, "mttr"), (horizon, "horizon"))
    for value, name in named:
        number = finite_float(value, name)
        if not number > 0.0:
            raise ConfigError(f"{name} must be > 0, got {value!r}")
        clocks.append(number)
    return tuple(clocks)


def poisson_fault_plan(
    lanes,
    mtbf: float,
    mttr: float,
    horizon: float,
    seed: int = 0,
    permanent_after: float | None = None,
) -> FaultPlan:
    """Draw a seeded fault plan from exponential failure/repair clocks.

    Per lane (in sorted order, so the draw is independent of input
    ordering), outage starts arrive with mean spacing ``mtbf`` and last
    ``Exp(mttr)`` each, truncated at ``horizon``.  ``permanent_after``
    (optional) additionally kills each *device* lane permanently at its
    first outage start past that time.  Deterministic given ``seed``.
    """
    mtbf, mttr, horizon = _drawer_clocks(mtbf, mttr, horizon)
    generator = random.Random(seed)
    outages: list[tuple[str, float, float]] = []
    permanent: list[tuple[str, float]] = []
    for lane in sorted(str(lane) for lane in lanes):
        now = 0.0
        while True:
            now += generator.expovariate(1.0 / mtbf)
            if now >= horizon:
                break
            if (
                permanent_after is not None
                and now >= permanent_after
                and not lane.startswith(_WIRE_PREFIX)
            ):
                permanent.append((lane, now))
                break
            duration = generator.expovariate(1.0 / mttr)
            outages.append((lane, now, now + duration))
            now += duration
    return FaultPlan(
        outages=tuple(outages),
        permanent=tuple(permanent),
        seed=seed,
        mtbf=mtbf,
        mttr=mttr,
        horizon=horizon,
    )


def _normalize_groups(groups) -> tuple[tuple[str, ...], ...]:
    """Canonical shock-group form: per-group lanes deduplicated and
    sorted, groups sorted — so the seeded draw is independent of input
    ordering, like :func:`poisson_fault_plan`'s per-lane walk."""
    normalized = []
    for group in groups:
        if isinstance(group, str):
            group = (group,)
        lanes = tuple(sorted({str(lane) for lane in group}))
        if not lanes:
            raise ConfigError("shock groups must not be empty")
        normalized.append(lanes)
    if not normalized:
        raise ConfigError("shock_fault_plan needs at least one lane group")
    return tuple(sorted(normalized))


def shock_fault_plan(
    groups,
    rate: float,
    mttr: float,
    horizon: float,
    seed: int = 0,
) -> FaultPlan:
    """Draw a seeded *correlated-shock* fault plan.

    Unlike :func:`poisson_fault_plan`'s independent per-lane clocks,
    shocks arrive on **one shared clock** — fleet-level events with mean
    spacing ``1/rate`` (``rate`` shocks per virtual second) — and each
    shock strikes every lane of one *group* (chosen uniformly from
    ``groups``) with the **same** outage window: same start, same
    ``Exp(mttr)`` repair time.  That shared window is the correlation —
    a rack power event takes the whole NDP device+wire group down at
    once instead of each lane failing on its own schedule.

    ``groups`` is an iterable of lane groups (a bare string counts as a
    one-lane group); groups and their lanes are canonicalized (sorted,
    deduplicated) before the draw so the plan is independent of input
    ordering.  Deterministic given ``seed``.  Compose with independent
    background noise via :meth:`FaultPlan.merge`::

        plan = poisson_fault_plan(["ndp"], mtbf=20, mttr=1, horizon=60)
        plan = plan.merge(shock_fault_plan(
            [("ndp", "link:cpu-ndp")], rate=0.05, mttr=2, horizon=60))
    """
    rate, mttr, horizon = _drawer_clocks(rate, mttr, horizon, "shock rate")
    group_list = _normalize_groups(groups)
    generator = random.Random(seed)
    outages: list[tuple[str, float, float]] = []
    now = 0.0
    while True:
        now += generator.expovariate(rate)
        if now >= horizon:
            break
        group = group_list[generator.randrange(len(group_list))]
        duration = generator.expovariate(1.0 / mttr)
        for lane in group:
            outages.append((lane, now, now + duration))
    return FaultPlan(
        outages=tuple(outages),
        seed=seed,
        mttr=mttr,
        horizon=horizon,
        shock_rate=rate,
        shock_groups=group_list,
    )


def slowdown_fault_plan(
    lanes,
    mtbf: float,
    mttr: float,
    horizon: float,
    factor: float,
    seed: int = 0,
) -> FaultPlan:
    """Draw a seeded *partial-degradation* plan: the same per-lane
    exponential failure/repair clocks as :func:`poisson_fault_plan`,
    but each drawn window is a :class:`SlowdownWindow` at ``factor``
    instead of an outage — the lane keeps serving, ``factor``× slower,
    and nothing is killed.  Deterministic given ``seed``; compose with
    outage plans via :meth:`FaultPlan.merge`.
    """
    mtbf, mttr, horizon = _drawer_clocks(mtbf, mttr, horizon)
    factor = finite_float(factor, "slowdown factor")
    if not factor > 1.0:
        raise ConfigError(
            f"slowdown factor must be > 1.0 (an inflation), got {factor!r}"
        )
    generator = random.Random(seed)
    slowdowns: list[SlowdownWindow] = []
    for lane in sorted(str(lane) for lane in lanes):
        now = 0.0
        while True:
            now += generator.expovariate(1.0 / mtbf)
            if now >= horizon:
                break
            duration = generator.expovariate(1.0 / mttr)
            slowdowns.append(SlowdownWindow(lane, now, now + duration, factor))
            now += duration
    return FaultPlan(
        slowdowns=tuple(slowdowns),
        seed=seed,
        mtbf=mtbf,
        mttr=mttr,
        horizon=horizon,
    )
