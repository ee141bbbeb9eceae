"""Pluggable simulation backends for the batched DES executor.

Every contention shard of a batch (see
:meth:`repro.core.executor.PipelineExecutor.execute_many`) can be timed
by any simulator that reproduces the generator engine's floats exactly —
the engine itself, or one of the slim FIFO replays.  This module makes
that choice an explicit *backend layer* instead of shape checks
scattered through the executor:

- :class:`SimulationBackend` is the protocol — a capability query
  (:meth:`~SimulationBackend.supports`) plus
  :meth:`~SimulationBackend.simulate`, which returns per-job reports,
  the shard makespan and the super-job count, or ``None`` to decline a
  shard it only discovers to be ineligible while flattening it (e.g. a
  zero-duration task under a degenerate cost model).
- Four backends ship registered, in fallback-preference order:

  =================  ==================================================
  name               simulates
  =================  ==================================================
  ``chain_replay``   all-single-chain shards via
                     :func:`repro.hw.engine.replay_chain_batch` — one
                     cursor per job, the leanest event loop.
  ``dag_replay``     any DAG shard via
                     :func:`repro.hw.engine.replay_dag_batch` — per-
                     replica join counters on fan-in stages, so k-point
                     and other branching pipelines still get the
                     one-event-per-occupancy replay.
  ``vector_replay``  single-signature (fully coalesced) shards via
                     :func:`repro.hw.vector_replay.replay_vector_batch`
                     — the whole grant/finish timetable as numpy
                     recurrences over the (replica, stage-occupancy)
                     grid, no per-occupancy Python event at all.
                     Declines cross-signature shards, zero durations
                     and tie patterns that need the engine's banded
                     hop cascade.
  ``engine``         anything, through the generator
                     :class:`repro.hw.engine.Engine` — the universal
                     fallback and the reference the replays are
                     verified against.
  =================  ==================================================

The static walk takes the first backend that supports the shard and
does not decline it; results are bit-identical whichever backend runs
(property-tested in ``tests/core/test_coalesce_shard.py``,
``tests/core/test_dag_replay.py`` and
``tests/core/test_vector_replay.py``) — which is also why the
framework's measured auto-tuner
(:class:`repro.core.executor.BackendTuner`) may freely reorder the
walk by observed wall time: ``vector_replay`` sits *after*
``dag_replay`` in the static order, so it is reached by measurement
(or by forcing), never by default on an unmeasured shard.  Any trace
observer bypasses the registry entirely — trace consumers need the
uncollapsed engine's exact event stream.  Additional backends (e.g. a
C-accelerated calendar) plug in via :func:`register_backend`.

Backends may also expose ``unsupported_reason(executor, shard_jobs)``
returning a human-readable reason a shard cannot be simulated — the
executor quotes it in the forced-backend error so callers learn *why*
(non-chain shape, zero-duration task, cross-signature interleaving,
...) instead of getting a bare refusal.

Fault injection (:mod:`repro.core.faults`) extends the same contract:
a shard whose lanes carry fault-plan events is declined by *every*
replay backend with :data:`FAULTED_SHARD_REASON` — the replays model
the healthy machine only, and the decline-not-approximate rule means
they must never silently ignore an outage window.  A shard whose lanes
carry only *slowdown* windows (partial degradation, nothing killed) is
declined with its own :data:`SLOWDOWN_SHARD_REASON`: inflated service
times break the FIFO hop-cascade equivalence the replays rest on, so
they must not approximate those either.  Affected shards always run on
the fault-aware generator engine path; an *empty* fault plan never
triggers either decline, so it stays bit-identical to no plan across
all four backends.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.errors import SimulationError
from repro.hw.engine import replay_chain_batch, replay_dag_batch
from repro.hw.vector_replay import replay_vector_batch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.executor import ExecutionReport, PipelineExecutor
    from repro.core.pipeline import Pipeline
    from repro.core.scheduler import Schedule

#: What ``simulate`` hands back: per-job reports in shard order, the
#: shard makespan, and the number of signature-coalesced super-jobs.
ShardResult = tuple[list["ExecutionReport"], float, int]


@runtime_checkable
class SimulationBackend(Protocol):
    """One way of timing a contention shard, bit-identical to the
    generator engine."""

    #: Registry key (also what ``BatchExecutionReport.backend_jobs`` and
    #: the ``serve-bench --backend`` override call it).
    name: str

    def supports(
        self,
        executor: "PipelineExecutor",
        shard_jobs: Sequence[tuple["Pipeline", "Schedule"]],
    ) -> bool:
        """Cheap structural capability check (shape only — a backend may
        still decline in :meth:`simulate`).  The executor passes each
        shard as a :class:`JobTable`; reading its ``templates`` keeps
        the check once per distinct job."""
        ...

    def simulate(
        self,
        executor: "PipelineExecutor",
        shard_jobs: Sequence[tuple["Pipeline", "Schedule"]],
        shard_arrivals: list[float] | None,
        lane_log: dict[str, list[tuple[float, float]]],
    ) -> ShardResult | None:
        """Time the shard, or return ``None`` to decline it late.

        A backend that simulates the shard must also append every
        resource occupancy it grants — ``(start, end)`` in grant order
        — to ``lane_log`` under the lane's
        :func:`repro.core.executor.lane_name`; the intervals must be
        the engine's exact floats (``end = grant + duration``), which
        is what makes ``BatchExecutionReport.lane_occupancy``
        backend-independent.  A late decline must leave ``lane_log``
        untouched."""
        ...


class JobTable(Sequence):
    """A batch of ``(pipeline, schedule)`` jobs stored by distinct
    template: ``templates[t]`` is one distinct pair of pipeline and
    schedule *objects* (first-occurrence order — what the framework's
    signature caches hand out for duplicate jobs), and
    ``job_template[j]`` is job ``j``'s template.

    Indexing and iteration yield per-job pairs, so a table stands in
    wherever a job list does (third-party backends keep working).  The
    executor and the built-in backends read the columns instead, so
    sharding, super-job grouping, capability checks and report
    templates cost once per template, not once per job.  Each template
    is one signature-coalesced super-job."""

    __slots__ = ("templates", "job_template")

    def __init__(self, templates: list, job_template: list[int]):
        self.templates = templates
        self.job_template = job_template

    @classmethod
    def of(cls, jobs) -> "JobTable":
        """``jobs`` as a table (returned as is when it already is one),
        grouping pairs by pipeline/schedule object identity."""
        if isinstance(jobs, JobTable):
            return jobs
        index: dict[tuple[int, int], int] = {}
        templates: list = []
        job_template: list[int] = []
        for pipeline, schedule in jobs:
            key = (id(pipeline), id(schedule))
            template = index.get(key)
            if template is None:
                template = index[key] = len(templates)
                templates.append((pipeline, schedule))
            job_template.append(template)
        return cls(templates, job_template)

    def __len__(self) -> int:
        return len(self.job_template)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self.templates[t] for t in self.job_template[index]]
        return self.templates[self.job_template[index]]

    def __iter__(self):
        return map(self.templates.__getitem__, self.job_template)


def _replay_shard(
    executor,
    shard_jobs,
    shard_arrivals,
    flatten,
    replay,
    lane_log,
) -> ShardResult | None:
    """The shared replay scaffold both slim backends run: coalesce the
    shard into super-jobs (its :class:`JobTable` templates), ``flatten``
    each template once into its replay input (returning
    ``(None, overhead)`` to decline the whole shard, e.g. on a
    zero-duration task), ``replay`` the per-replica input lists,
    rebuild per-job reports from the template reports, and file the
    replay's per-resource occupancy intervals into ``lane_log`` under
    the interned resources' lane names."""
    table = JobTable.of(shard_jobs)
    resource_ids: dict[object, int] = {}
    template_inputs: list = []
    template_reports: list = []
    for pipeline, schedule in table.templates:
        flattened, overhead_total = flatten(
            executor, pipeline, schedule, resource_ids
        )
        if flattened is None:  # degenerate zero-duration task
            return None
        template_inputs.append(flattened)
        template_reports.append(
            executor._job_report(pipeline, schedule, overhead_total, 0.0)
        )
    finish, makespan, occupancy = replay(
        [template_inputs[t] for t in table.job_template],
        [0.0] * len(table) if shard_arrivals is None else shard_arrivals,
        len(resource_ids),
    )
    _file_occupancy(resource_ids, occupancy, lane_log)
    reports = [
        template_reports[t].at(time)
        for t, time in zip(table.job_template, finish)
    ]
    return reports, makespan, len(table.templates)


def _file_occupancy(resource_ids, occupancy, lane_log) -> None:
    """File a replay's per-resource occupancy intervals into
    ``lane_log`` under the interned resources' lane names."""
    from repro.core.executor import lane_name

    for key, index in resource_ids.items():
        if occupancy[index]:
            lane_log.setdefault(lane_name(key), []).extend(occupancy[index])


class EngineBackend:
    """The generator-engine reference path: supports everything.

    Lane accounting rides the executor's occupancy callback (the same
    hook the trace observer uses): every device/wire occupancy lands in
    ``lane_log`` with the engine's own start/end floats, which is the
    reference the replays' grant-time recording is verified against."""

    name = "engine"

    def supports(self, executor, shard_jobs) -> bool:
        return True

    def simulate(self, executor, shard_jobs, shard_arrivals, lane_log):
        def record(lane, _label, start, end):
            lane_log.setdefault(lane, []).append((start, end))

        reports, makespan = executor._execute_batch_engine(
            shard_jobs, range(len(shard_jobs)), record, shard_arrivals
        )
        return reports, makespan, 0


#: Why the slim replays decline degenerate shards — quoted verbatim in
#: the forced-backend error (and matched by the UX tests).
_ZERO_DURATION_REASON = (
    "a task has non-positive duration, which the replays' banded "
    "tie-handling cannot represent"
)

#: Why every replay backend declines a shard whose lanes carry
#: fault-plan events — quoted verbatim in the forced-backend error.
#: The replays model the healthy machine; under the
#: decline-not-approximate contract they must hand faulted shards to
#: the fault-aware engine rather than silently ignore outage windows.
FAULTED_SHARD_REASON = (
    "the shard's lanes carry fault-plan events, which only the "
    "fault-aware engine path can simulate"
)

#: Why every replay backend declines a shard whose lanes carry only
#: *slowdown* windows — quoted verbatim in the forced-backend error.
#: The replays' FIFO hop-cascade equivalence argument assumes every
#: occupancy's duration is the schedule's nominal one; a slowdown
#: window inflates services piecewise, so grant orders can differ from
#: the healthy timetable in ways the replays cannot prove equivalent.
#: Decline, never approximate.
SLOWDOWN_SHARD_REASON = (
    "the shard's lanes carry slowdown windows, whose piecewise-"
    "inflated service times break the replays' FIFO hop-cascade "
    "equivalence; only the fault-aware engine path can simulate them"
)


#: Why ``chain_replay`` declines shards with branching pipelines —
#: quoted verbatim in the forced-backend error.
NON_CHAIN_SHARD_REASON = (
    "the shard contains a non-chain pipeline and "
    "chain_replay only handles all-single-chain shards"
)

#: Why ``vector_replay`` declines multi-signature shards — formatted
#: with the shard's super-job count and quoted verbatim in the
#: forced-backend error.
CROSS_SIGNATURE_REASON_TEMPLATE = (
    "cross-signature interleaving: the shard coalesces "
    "into {count} super-jobs contending on "
    "shared lanes, and vector_replay needs exactly one "
    "signature"
)

#: Why ``vector_replay`` declines shards whose wave recurrence cannot
#: prove the engine's grant order — quoted verbatim in the
#: forced-backend error.
UNPROVABLE_TIE_REASON = (
    "a same-instant tie (across a wave boundary or a fan-in "
    "join) requires the engine's banded hop cascade, which "
    "the wave recurrence cannot reproduce"
)


class ChainReplayBackend:
    """Slim FIFO replay for shards of single connected chains."""

    name = "chain_replay"

    def supports(self, executor, shard_jobs) -> bool:
        return all(
            executor._is_single_chain(pipeline)
            for pipeline, _schedule in JobTable.of(shard_jobs).templates
        )

    def simulate(self, executor, shard_jobs, shard_arrivals, lane_log):
        return _replay_shard(
            executor,
            shard_jobs,
            shard_arrivals,
            flatten=lambda ex, p, s, ids: ex._chain_tasks(p, s, ids),
            replay=replay_chain_batch,
            lane_log=lane_log,
        )

    def unsupported_reason(self, executor, shard_jobs) -> str:
        if not self.supports(executor, shard_jobs):
            return NON_CHAIN_SHARD_REASON
        return _ZERO_DURATION_REASON


class DagReplayBackend:
    """Slim FIFO replay for arbitrary DAG shards: per-replica join
    counters on the fan-in stages keep branching pipelines (k-point
    DAGs, super-job replicas) on the one-event-per-occupancy loop."""

    name = "dag_replay"

    def supports(self, executor, shard_jobs) -> bool:
        return True

    def simulate(self, executor, shard_jobs, shard_arrivals, lane_log):
        return _replay_shard(
            executor,
            shard_jobs,
            shard_arrivals,
            flatten=self._dag_program,
            replay=replay_dag_batch,
            lane_log=lane_log,
        )

    @staticmethod
    def _dag_program(executor, pipeline, schedule, resource_ids):
        """Flatten one job into a :func:`repro.hw.engine.replay_dag_batch`
        program: per-stage task lists
        (:meth:`~repro.core.executor.PipelineExecutor._flatten_stage`,
        the same pricing/interning walk the chain replay uses) plus
        predecessor indices, all in topological order.  Returns
        ``(None, overhead)`` when any duration is non-positive: the
        replay's banded tie-handling assumes time strictly advances per
        occupancy, so zero-cost tasks fall back to the generator
        engine."""
        overhead_total = executor._eq1_overhead(pipeline, schedule)
        topo = pipeline.topological_order
        position_of = {name: i for i, name in enumerate(topo)}
        stage_tasks: list[list[tuple[int, float]]] = []
        stage_preds: list[tuple[int, ...]] = []
        for name in topo:
            tasks = executor._flatten_stage(
                pipeline, schedule, name, resource_ids
            )
            if any(duration <= 0.0 for _res, duration in tasks):
                return None, overhead_total
            stage_tasks.append(tasks)
            stage_preds.append(
                tuple(position_of[p] for p in pipeline.predecessors(name))
            )
        return (stage_tasks, stage_preds), overhead_total

    def unsupported_reason(self, executor, shard_jobs) -> str:
        return _ZERO_DURATION_REASON


class VectorReplayBackend:
    """Numpy wave replay for single-signature coalesced shards.

    When every job of a contention shard is a replica of *one*
    super-job template, :func:`repro.hw.vector_replay.
    replay_vector_batch` computes the entire FIFO timetable as
    recurrences over the (replica, stage-occupancy) grid — no
    per-occupancy Python event.  The backend supports exactly the
    single-signature shards (two signatures sharing a lane interleave
    in arrival order, which only the event-driven replays reproduce)
    and declines late when the wave recurrence cannot prove it matches
    the engine's grant order (zero durations, cross-wave or fan-in
    same-instant ties): bit-identical or fall back, never approximate.
    """

    name = "vector_replay"

    def supports(self, executor, shard_jobs) -> bool:
        return len(JobTable.of(shard_jobs).templates) == 1

    def simulate(self, executor, shard_jobs, shard_arrivals, lane_log):
        table = JobTable.of(shard_jobs)
        if len(table.templates) != 1:
            return None
        pipeline, schedule = table.templates[0]
        resource_ids: dict[object, int] = {}
        program, overhead_total = DagReplayBackend._dag_program(
            executor, pipeline, schedule, resource_ids
        )
        if program is None:  # degenerate zero-duration task
            return None
        result = replay_vector_batch(
            program,
            [0.0] * len(table) if shard_arrivals is None else shard_arrivals,
            len(resource_ids),
        )
        if result is None:  # wave order unprovable: tie/interleaving
            return None
        finish, makespan, occupancy = result
        _file_occupancy(resource_ids, occupancy, lane_log)
        template = executor._job_report(
            pipeline, schedule, overhead_total, 0.0
        )
        return list(map(template.at, finish)), makespan, 1

    def unsupported_reason(self, executor, shard_jobs) -> str:
        templates = JobTable.of(shard_jobs).templates
        if len(templates) != 1:
            return CROSS_SIGNATURE_REASON_TEMPLATE.format(
                count=len(templates)
            )
        pipeline, schedule = templates[0]
        program, _overhead = DagReplayBackend._dag_program(
            executor, pipeline, schedule, {}
        )
        if program is None:
            return _ZERO_DURATION_REASON
        return UNPROVABLE_TIE_REASON


#: The registry, in selection-preference order.  ``engine`` must stay
#: last: it is the universal fallback every selection walk ends on.
_REGISTRY: dict[str, SimulationBackend] = {}


def register_backend(backend: SimulationBackend) -> None:
    """Add (or replace) a backend.  New backends are preferred over the
    ``engine`` fallback but tried after the existing replays."""
    if _REGISTRY and backend.name != "engine" and "engine" in _REGISTRY:
        engine = _REGISTRY.pop("engine")
        _REGISTRY[backend.name] = backend
        _REGISTRY["engine"] = engine
    else:
        _REGISTRY[backend.name] = backend


register_backend(ChainReplayBackend())
register_backend(DagReplayBackend())
register_backend(VectorReplayBackend())
register_backend(EngineBackend())


def backend_names() -> tuple[str, ...]:
    """Registered backend names in selection-preference order."""
    return tuple(_REGISTRY)


def get_backend(name: str) -> SimulationBackend:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SimulationError(
            f"unknown simulation backend {name!r}; registered: "
            f"{', '.join(_REGISTRY)}"
        ) from None


def iter_backends() -> tuple[SimulationBackend, ...]:
    return tuple(_REGISTRY.values())
