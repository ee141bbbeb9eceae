"""The benchmark's workloads: seeded inputs, the server each one drives,
and the digest that pins a call's virtual-time outputs.

Inputs are generated here, from the seed alone, with the standard
library's Mersenne Twister, so the program under test only ever sees
plain atom counts and arrival offsets.  Nothing in this module imports
``repro`` at import time: the set-up metric times that import.
"""

from __future__ import annotations

import gc
import hashlib
import math
import random
import struct
from dataclasses import dataclass
from typing import Callable

#: The default serving mix (atoms), submitted round-robin.
MIX = (64, 128, 512, 1024)
#: Offered load of the open queue, jobs per virtual second.  The mix's
#: modelled capacity is about 3.8 jobs/s, so queues form without the
#: backlog growing.
OPEN_RATE = 2.0
#: Size range of the churn workload.  About 1,290 of 2,048 uniform draws
#: are distinct, more than the framework's 1,024-entry LRU caches hold.
CHURN_ATOMS = (16, 2048)
#: Replicas of the fleet workload: one per CPU of the 2-CPU host the
#: benchmark was sized on.
FLEET_REPLICAS = 2


@dataclass(frozen=True)
class Inputs:
    sizes: tuple[int, ...]
    #: Release offsets in virtual seconds; ``None`` is the closed batch
    #: (every job released at t=0).
    arrivals: tuple[float, ...] | None


def mix_open_inputs(seed: int, n_jobs: int) -> Inputs:
    """Round-robin default mix released as a Poisson open queue."""
    rng = random.Random(seed)
    clock = 0.0
    arrivals = []
    for _ in range(n_jobs):
        clock += rng.expovariate(OPEN_RATE)
        arrivals.append(clock)
    sizes = tuple(MIX[i % len(MIX)] for i in range(n_jobs))
    return Inputs(sizes, tuple(arrivals))


def kpoint_closed_inputs(seed: int, n_jobs: int) -> Inputs:
    """Identical Si_512 jobs at t=0.  The seed trims up to 1/64 of the
    batch so that the closed-queue virtual-time outputs differ from seed
    to seed; the shard size stays in the same tuner bucket."""
    rng = random.Random(seed)
    count = n_jobs - rng.randrange(max(1, n_jobs // 64))
    return Inputs((512,) * count, None)


def size_churn_inputs(seed: int, n_jobs: int) -> Inputs:
    """Closed batch of uniformly drawn sizes, most of them distinct."""
    rng = random.Random(seed)
    low, high = CHURN_ATOMS
    return Inputs(tuple(rng.randint(low, high) for _ in range(n_jobs)), None)


class FrameworkServer:
    """One warm :class:`~repro.core.framework.NdftFramework` serving
    ``run_many`` calls."""

    def __init__(self, kpoint: bool):
        from repro.core.framework import NdftFramework

        self.kpoint = kpoint
        self.framework = NdftFramework()

    def call(self, inputs: Inputs, backend: str | None = None):
        kwargs = {}
        if self.kpoint:
            # Looked up per call, so a traced run's wrapper is the one used.
            from repro.core import pipeline

            kwargs["pipeline_builder"] = pipeline.build_kpoint_pipeline
        return self.framework.run_many(
            list(inputs.sizes),
            arrivals=inputs.arrivals,
            backend=backend,
            **kwargs,
        )

    def close(self) -> None:
        pass


class FleetServer:
    """A :class:`~repro.fleet.WorkerPool` serving ``serve`` calls; the
    worker processes start on the first call and live until ``close``."""

    def __init__(self):
        from repro.fleet import WorkerPool

        self.pool = WorkerPool(FLEET_REPLICAS)
        self.framework = self.pool.framework

    def call(self, inputs: Inputs, backend: str | None = None):
        return self.pool.serve(
            list(inputs.sizes), arrivals=inputs.arrivals, backend=backend
        )

    def close(self) -> None:
        """Stop the workers and then multiprocessing's resource tracker,
        waiting for each to end.  The tracker is a child of this process
        that would otherwise outlive it; the pool's semaphores are
        collected first, or their finalizers would start a new one."""
        from multiprocessing import resource_tracker

        self.pool.close()
        self.pool = self.framework = None
        gc.collect()
        resource_tracker._resource_tracker._stop()


@dataclass(frozen=True)
class Workload:
    name: str
    n_jobs: int
    make_inputs: Callable[[int, int], Inputs]
    make_server: Callable[[], object]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mix_open", 16384, mix_open_inputs, lambda: FrameworkServer(False)
        ),
        Workload(
            "kpoint_closed",
            16384,
            kpoint_closed_inputs,
            lambda: FrameworkServer(True),
        ),
        Workload(
            "size_churn", 2048, size_churn_inputs, lambda: FrameworkServer(False)
        ),
        Workload("fleet2_mix_open", 16384, mix_open_inputs, FleetServer),
    )
}


def completion_times(result) -> tuple[float, ...]:
    """Per-job virtual completion seconds in submission order, from a
    ``run_many`` or a fleet ``serve`` result."""
    if hasattr(result, "jobs"):
        return tuple(job.report.total_time for job in result.jobs)
    return result.completion_times


def backend_jobs(result) -> dict[str, int]:
    """Jobs simulated per backend in one call."""
    if hasattr(result, "replicas"):
        return result.backend_jobs
    return result.batch_report.backend_jobs


def digest(result) -> str:
    """SHA-256 prefix over the per-job completion times, the makespan and
    the p99 completion latency, packed as IEEE doubles: any change to a
    virtual-time float changes it."""
    times = completion_times(result)
    packed = struct.pack(
        f"<{len(times) + 2}d", *times, result.makespan, result.p99_latency
    )
    return hashlib.sha256(packed).hexdigest()[:24]


def check_invariants(inputs: Inputs, result) -> list[str]:
    """Properties every correct result has, whatever the seed: one finite
    completion per job, none before its release, and a makespan equal to
    the last completion."""
    times = completion_times(result)
    problems = []
    if len(times) != len(inputs.sizes):
        problems.append(f"{len(times)} completions for {len(inputs.sizes)} jobs")
    if not all(math.isfinite(t) and t > 0 for t in times):
        problems.append("a completion time is not a positive finite number")
    releases = inputs.arrivals or (0.0,) * len(times)
    if any(t < r for t, r in zip(times, releases)):
        problems.append("a job completed before its release")
    if times and result.makespan != max(times):
        problems.append("makespan differs from the last completion")
    return problems
