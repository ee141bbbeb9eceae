"""Spans recorded from outside the program, for the traced run.

:class:`Tracer` wraps the public entry points of each layer, patching
each name where the caller looks it up (class attributes for methods,
module globals for the pipeline builders and the fleet router), and
restores every original on :meth:`Tracer.uninstall`.  A span's self time
is its duration minus the time covered by the spans it encloses.  Only
totals per span name are kept; :meth:`Tracer.reset` starts a new call.

:func:`layer_metrics` turns one call's span totals, counters and result
into the per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import os
from time import perf_counter_ns

from workloads import backend_jobs

NS = 1e-9
#: Span names that open a framework call; their self time is the
#: framework's resolve glue, solo lookups and result assembly.
FRAMEWORK_SPANS = ("run_many", "job_estimates")
PIPELINE_SPANS = ("build_pipeline", "build_kpoint_pipeline")
CACHE_KINDS = ("pipeline", "schedule", "solo", "sca", "signature")


class Tracer:
    def __init__(self):
        #: span name -> [calls, total ns, self ns]
        self.spans: dict[str, list[int]] = {}
        #: counter name -> count
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def _span(self, name: str, fn):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                entry = spans.get(name)
                if entry is None:
                    spans[name] = [1, elapsed, elapsed - inner]
                else:
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += elapsed - inner

        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, wrapper)

    def _patch_span(self, owner, attr: str) -> None:
        self._patch(owner, attr, self._span(attr, getattr(owner, attr)))

    def _count(self, key: str) -> None:
        self.counts[key] = self.counts.get(key, 0) + 1

    def install(self) -> None:
        import repro.core.framework as framework
        import repro.core.pipeline as pipeline
        import repro.fleet.pool as pool
        from repro.core import backends
        from repro.core.executor import PipelineExecutor
        from repro.core.sca import StaticCodeAnalyzer
        from repro.core.scheduler import CostAwareScheduler

        for attr in (*FRAMEWORK_SPANS, "job_signature", "merge_caches"):
            self._patch_span(framework.NdftFramework, attr)
        self._patch_span(framework, "build_pipeline")
        self._patch_span(pipeline, "build_kpoint_pipeline")
        self._patch_span(CostAwareScheduler, "schedule")
        self._patch_span(StaticCodeAnalyzer, "analyze_all")
        self._patch_span(PipelineExecutor, "execute_many")
        self._patch_span(PipelineExecutor, "execute")
        self._patch_span(pool.WorkerPool, "serve")
        self._patch_span(pool, "route_jobs")
        self._patch_saves(framework.NdftFramework)
        for backend in backends.iter_backends():
            self._patch_backend(type(backend), backend.name)

    def _patch_saves(self, cls) -> None:
        save = self._span("save_caches", cls.save_caches)
        counts = self.counts

        def traced_save(fw, path, *args, **kwargs):
            written = save(fw, path, *args, **kwargs)
            counts["snapshot_bytes"] = counts.get(
                "snapshot_bytes", 0
            ) + os.path.getsize(written)
            return written

        self._patch(cls, "save_caches", traced_save)

    def _patch_backend(self, cls, name: str) -> None:
        supports = cls.supports
        simulate = self._span(f"simulate.{name}", cls.simulate)
        count = self._count
        key = f"declines.{name}"

        def traced_supports(backend, executor, shard_jobs):
            ok = supports(backend, executor, shard_jobs)
            if not ok:
                count(key)
            return ok

        def traced_simulate(backend, executor, *args, **kwargs):
            result = simulate(backend, executor, *args, **kwargs)
            if result is None:
                count(key)
            return result

        self._patch(cls, "supports", traced_supports)
        self._patch(cls, "simulate", traced_simulate)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- reading one call ------------------------------------------------
    def total_s(self, *names: str) -> float:
        return sum(self.spans.get(n, (0, 0, 0))[1] for n in names) * NS

    def self_s(self, *names: str) -> float:
        return sum(self.spans.get(n, (0, 0, 0))[2] for n in names) * NS

    def calls(self, *names: str) -> int:
        return sum(self.spans.get(n, (0, 0, 0))[0] for n in names)


def cache_deltas(before: dict, after: dict) -> dict[str, float]:
    """Hit ratio, evictions and warm starts between two ``cache_stats``."""
    delta = {key: after[key] - before.get(key, 0) for key in after}
    hits = sum(delta[f"{kind}_hits"] for kind in CACHE_KINDS)
    misses = sum(delta[f"{kind}_misses"] for kind in CACHE_KINDS)
    return {
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.evictions": sum(
            delta[f"{kind}_evictions"] for kind in CACHE_KINDS
        ),
        "cache.warm_start_hits": delta["warm_start_hits"],
    }


def layer_metrics(
    tracer: Tracer, result, call_wall: float, backend_names
) -> dict[str, float]:
    """Per-layer metrics of one traced call (cache metrics are added by
    the caller from :func:`cache_deltas`)."""
    fleet = hasattr(result, "replicas")
    m: dict[str, float] = {
        "framework.self_s": tracer.self_s(*FRAMEWORK_SPANS),
        "framework.calls": tracer.calls(*FRAMEWORK_SPANS),
        "signature.s": tracer.total_s("job_signature"),
        "signature.calls": tracer.calls("job_signature"),
        "pipeline.build_s": tracer.total_s(*PIPELINE_SPANS),
        "pipeline.builds": tracer.calls(*PIPELINE_SPANS),
        "scheduler.schedule_s": tracer.total_s("schedule"),
        "scheduler.schedules": tracer.calls("schedule"),
        "sca.analyze_s": tracer.total_s("analyze_all"),
        "sca.analyses": tracer.calls("analyze_all"),
        "executor.self_s": tracer.self_s("execute_many"),
        "executor.solo_s": tracer.total_s("execute"),
        "executor.shards": 0 if fleet else result.batch_report.n_shards,
        "executor.superjobs": 0 if fleet else result.batch_report.n_superjobs,
    }
    jobs = backend_jobs(result)
    for name in backend_names:
        m[f"backend.{name}.s"] = tracer.total_s(f"simulate.{name}")
        m[f"backend.{name}.jobs"] = jobs.get(name, 0)
        m[f"backend.{name}.declines"] = tracer.counts.get(f"declines.{name}", 0)
    parent = tracer.total_s(
        "job_estimates", "route_jobs", "save_caches", "merge_caches"
    )
    worker_max = (
        max(r.wall_seconds for r in result.replicas) if fleet else 0.0
    )
    m.update(
        {
            "fleet.estimate_s": tracer.total_s("job_estimates"),
            "fleet.route_s": tracer.total_s("route_jobs"),
            "fleet.snapshot_write_s": tracer.total_s("save_caches"),
            "fleet.snapshot_bytes": tracer.counts.get("snapshot_bytes", 0),
            "fleet.worker_s_max": worker_max,
            "fleet.merge_s": tracer.total_s("merge_caches"),
            "fleet.wait_s": tracer.total_s("serve") - parent - worker_max,
            "fleet.imbalance": result.imbalance_ratio if fleet else 0.0,
        }
    )
    util = result.lane_utilization
    m["lane.ndp.util"] = util.get("ndp", 0.0)
    m["lane.cpu.util"] = util.get("cpu", 0.0)
    m["lane.link.util"] = max(
        (v for lane, v in util.items() if lane.startswith("link:")), default=0.0
    )
    root_ns = sum(entry[2] for entry in tracer.spans.values())
    m["trace.span_cover"] = root_ns * NS / call_wall
    return m


def winner_share(walls: dict[str, float], jobs: dict[str, int]) -> float:
    """Share of all simulated jobs that the backend with the lowest
    measured seconds per job simulated; 0.0 when nothing was simulated
    in the traced process (the fleet simulates in its workers)."""
    measured = {
        n: walls[n] / jobs[n] for n in walls if walls[n] and jobs.get(n)
    }
    total = sum(jobs.values())
    if not measured or not total:
        return 0.0
    best = min(measured, key=measured.get)
    return jobs[best] / total
