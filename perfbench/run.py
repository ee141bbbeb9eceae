"""Serving benchmark of the NDFT simulator, run against its public API.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mix_open --seed 1 --seconds 10 --trace 0

One caller in a closed loop sends the next call only after the previous
one returns.  A run sets the workload up (``import repro``, framework or
worker-pool construction, first cold call) in this process and, with
``--trace 0``, again in fresh interpreters to take the median set-up
time.  It then times warm calls for ``--seconds`` and checks every
call's virtual-time digest against ``perfbench/reference.json``, or,
for a seed with no committed digest, against the same inputs simulated
with ``backend="engine"``, the reference simulator.

Host times are scaled to a reference host speed.  On the small shared
hosts this benchmark runs on, CPU speed drifts by a third over tens of
seconds, and a plain Python loop slows down with the program.  So every
timed section runs between two :func:`speed_probe` calls, and its wall
time is multiplied by ``PROBE_REFERENCE_S`` over the probes' mean before
the median is taken.  The unscaled walls are printed beside the metrics.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends half
of ``--seconds`` on untraced calls and half on calls with spans around
each layer's entry points (``tracing.py``), and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records call counts, quartiles, backends used and the host.

A run waits for every process it starts before it exits: the fleet's
workers and multiprocessing's resource tracker are stopped when the
server closes, and descendants orphaned by a killed set-up re-parent to
the run (Linux's child-subreaper flag), which reaps them.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS, backend_jobs, check_invariants, digest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
#: Scratch space inside the checkout for the fleet's cache snapshots.
TMP = HERE.parent / ".perfbench_tmp"
REFERENCE = HERE / "reference.json"
#: Fresh-interpreter set-ups per run besides this process's own; the
#: reported ``setup_s`` is the median of all of them.
FRESH_SETUPS = 2
#: Timed calls made even when ``--seconds`` runs out first.
MIN_CALLS = 5
SETUP_TIMEOUT_S = 60
#: How long the exit waits for orphaned descendants before killing them.
REAP_TIMEOUT_S = 10
#: ``prctl`` option from ``<linux/prctl.h>``.
PR_SET_CHILD_SUBREAPER = 36
#: Iterations of the host-speed probe, and the probe's duration at the
#: reference speed (about its fastest on a 2-CPU cloud host).
PROBE_LOOPS = 150_000
PROBE_REFERENCE_S = 0.02


def speed_probe() -> float:
    """Wall seconds of a fixed dict-and-integer loop."""
    start = time.perf_counter()
    table = {}
    acc = 0
    for i in range(PROBE_LOOPS):
        table[i & 1023] = acc
        acc += i * i % 7
    return time.perf_counter() - start


def timed(fn):
    """``(fn(), wall seconds, mean probe seconds around the call)``."""
    before = speed_probe()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    after = speed_probe()
    return result, wall, (before + after) / 2


def scaled_median(walls: list[float], probes: list[float]) -> float:
    """Median of the wall times at the reference host speed."""
    return statistics.median(
        wall * PROBE_REFERENCE_S / probe for wall, probe in zip(walls, probes)
    )


def set_up(workload, inputs):
    """What a one-shot user pays: the import, the server, one cold call.
    Returns the server, the cold result and the scaled set-up time."""
    before = speed_probe()
    start = time.perf_counter()
    import repro  # noqa: F401  (timed on purpose)

    server = workload.make_server()
    try:
        result = server.call(inputs)
    except BaseException:
        server.close()
        raise
    wall = time.perf_counter() - start
    probe = (before + speed_probe()) / 2
    return server, result, scaled_median([wall], [probe])


def fresh_setups(args) -> list[dict]:
    """Set-ups in fresh interpreters, one after another.  Each runs in a
    session of its own, so a set-up that overruns is killed together
    with the processes it started."""
    setups = []
    for _ in range(FRESH_SETUPS):
        child = subprocess.Popen(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload",
                args.workload,
                "--seed",
                str(args.seed),
                "--jobs",
                str(args.jobs),
                "--setup-only",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            stdout, stderr = child.communicate(timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            stdout, stderr = child.communicate()
            stderr += f"\nset-up overran {SETUP_TIMEOUT_S} s and was killed"
        if child.returncode != 0:
            print(stderr, file=sys.stderr)
            setups.append({"setup_s": None, "digest": None})
        else:
            setups.append(json.loads(stdout.splitlines()[-1]))
    return setups


def become_subreaper() -> None:
    """Make this process the parent of its orphaned descendants (Linux),
    so that :func:`reap_orphans` can wait for them."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def reap_orphans() -> None:
    """Wait for every child left, such as the workers of a killed
    set-up, up to :data:`REAP_TIMEOUT_S`; kill those still running then."""
    deadline = time.monotonic() + REAP_TIMEOUT_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.05)


def children() -> list[int]:
    """Pids of this process's children, from ``/proc``."""
    mine = os.getpid()
    found = []
    for entry in Path("/proc").iterdir():
        try:
            stat = (entry / "stat").read_text()
        except (OSError, ValueError):
            continue
        # The field after the parenthesised command name: state, ppid.
        if int(stat.rsplit(")", 1)[1].split()[1]) == mine:
            found.append(int(entry.name))
    return found


class Calls:
    """Digests, wall times and backend use of the calls of one run."""

    def __init__(self):
        #: One per attempted call; ``None`` when the call raised.
        self.digests: list[str | None] = []
        self.walls: list[float] = []
        self.probes: list[float] = []
        self.backends: dict[str, int] = {}

    def run(self, server, inputs, seconds, on_call=None) -> float:
        """Warm calls for ``seconds`` (at least :data:`MIN_CALLS`);
        returns their median wall time at the reference speed, or 0.0
        when every call raised."""
        walls = []
        probes = []
        attempts = 0
        deadline = time.perf_counter() + seconds
        while attempts < MIN_CALLS or time.perf_counter() < deadline:
            attempts += 1
            try:
                result, wall, probe = timed(lambda: server.call(inputs))
            except Exception as exc:  # counted in the error rate
                print(f"call failed: {exc!r}", file=sys.stderr)
                self.digests.append(None)
                continue
            self.digests.append(digest(result))
            walls.append(wall)
            probes.append(probe)
            for name, count in backend_jobs(result).items():
                self.backends[name] = self.backends.get(name, 0) + count
            if on_call is not None:
                on_call(result, wall)
        self.walls.extend(walls)
        self.probes.extend(probes)
        return scaled_median(walls, probes) if walls else 0.0


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4)


def traced_calls(server, inputs, seconds, calls: Calls) -> tuple[dict, float]:
    """Calls with spans installed.  Returns the per-layer metrics, as
    medians over the calls, and the calls' scaled median wall time."""
    from repro.core.backends import backend_names

    names = backend_names()
    tracer = tracing.Tracer()
    per_call: list[dict] = []
    sim_walls = dict.fromkeys(names, 0.0)
    sim_jobs = dict.fromkeys(names, 0)
    stats = {}

    def on_call(result, wall):
        metrics = tracing.layer_metrics(tracer, result, wall, names)
        after = server.framework.cache_stats
        metrics.update(tracing.cache_deltas(stats["before"], after))
        stats["before"] = after
        per_call.append(metrics)
        for name in names:
            sim_walls[name] += metrics[f"backend.{name}.s"]
            sim_jobs[name] += metrics[f"backend.{name}.jobs"]
        tracer.reset()

    tracer.install()
    try:
        # The wrapped pipeline builders are new cache keys, so the first
        # traced call rebuilds; it is checked but not measured.
        calls.digests.append(digest(server.call(inputs)))
        tracer.reset()
        stats["before"] = server.framework.cache_stats
        scaled = calls.run(server, inputs, seconds, on_call)
    finally:
        tracer.uninstall()
    layer = {
        key: statistics.median(call[key] for call in per_call)
        for key in per_call[0]
    }
    layer["backend.winner_share"] = tracing.winner_share(sim_walls, sim_jobs)
    return layer, scaled


def host_metadata() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def reference_digest(name: str, n_jobs: int, seed: int) -> str | None:
    table = json.loads(REFERENCE.read_text())
    return table.get(f"{name}/{n_jobs}/{seed}")


def metric_units() -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {
        m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="override the workload's job count (reduced-size checks)",
    )
    parser.add_argument(
        "--setup-only", action="store_true", help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: {SRC} holds no repro package; run from a checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    TMP.mkdir(exist_ok=True)
    tempfile.tempdir = str(TMP)

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(
            f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}"
        )
    if args.jobs is None:
        args.jobs = workload.n_jobs
    inputs = workload.make_inputs(args.seed, args.jobs)

    server, cold, setup_s = set_up(workload, inputs)
    try:
        cold_digest = digest(cold)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "digest": cold_digest}))
            return 0
        problems = check_invariants(inputs, cold)
        for problem in problems:
            print(f"invariant violated: {problem}", file=sys.stderr)
        calls = Calls()
        calls.digests.append(None if problems else cold_digest)
        setups = [setup_s]
        if args.trace == 0:
            for fresh in fresh_setups(args):
                setups.append(fresh["setup_s"])
                calls.digests.append(fresh["digest"])
            measured = calls.run(server, inputs, args.seconds)
        else:
            untraced = calls.run(server, inputs, args.seconds / 2)
            layer, traced = traced_calls(
                server, inputs, args.seconds / 2, calls
            )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        expected = reference_digest(workload.name, args.jobs, args.seed)
        source = "committed"
        if expected is None:
            expected = digest(server.call(inputs, backend="engine"))
            source = "engine"
    finally:
        server.close()

    attempted = len(calls.digests)
    failed = sum(1 for d in calls.digests if d != expected)
    n = len(inputs.sizes)

    def jobs_per_s(median_wall: float) -> float:
        return n / median_wall if median_wall else 0.0

    setup_samples = [s for s in setups if s is not None]
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "jobs": n,
        "trace": args.trace,
        "calls": len(calls.walls),
        "call_wall_s_quartiles": quartiles(calls.walls),
        "call_wall_s": calls.walls,
        "probe_s": calls.probes,
        "setup_s_samples": setup_samples,
        "backend_jobs": calls.backends,
        "digest": cold_digest,
        "reference": source,
        "error_rate": failed / attempted,
        "host": host_metadata(),
    }
    if args.trace == 0:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "jobs_per_s": jobs_per_s(measured),
            "peak_rss_mb": peak_rss_mb,
            "sim_jobs_per_s": cold.throughput,
            "sim_p99_s": cold.p99_latency,
        }
    else:
        metrics = dict(layer)
        metrics["trace.jobs_per_s"] = jobs_per_s(traced)
        metrics["trace.untraced_jobs_per_s"] = jobs_per_s(untraced)
        untraced_jps = metrics["trace.untraced_jobs_per_s"]
        metrics["trace.overhead"] = (
            1.0 - metrics["trace.jobs_per_s"] / untraced_jps
            if untraced_jps
            else 0.0
        )
    units = metric_units()
    units["error_rate"] = "ratio"
    shown = dict(metrics, error_rate=detail["error_rate"])
    for name in sorted(shown):
        print(f"{workload.name} {name} = {shown[name]:.6g} {units[name]}")
    print(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    become_subreaper()
    try:
        status = main()
    finally:
        reap_orphans()
    sys.exit(status)
