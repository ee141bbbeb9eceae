"""The benchmark's traced run reads ``NdftFramework.cache_stats`` by key
(``perfbench/tracing.py::cache_deltas``).  A key dropped from the stats
fails only that traced run, so the tier-1 suite checks the contract."""

import importlib.util
import sys
from pathlib import Path

from repro.core.framework import NdftFramework

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"


def _load_tracing():
    """Import ``perfbench/tracing.py`` by path, leaving ``sys.path`` and
    the ``workloads`` module it imports as they were."""
    had_workloads = "workloads" in sys.modules
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_tracing", PERFBENCH / "tracing.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        if not had_workloads:
            sys.modules.pop("workloads", None)
    return module


def test_cache_stats_has_every_key_cache_deltas_reads():
    tracing = _load_tracing()
    framework = NdftFramework()
    before = framework.cache_stats
    for kind in tracing.CACHE_KINDS:
        for counter in ("hits", "misses", "evictions"):
            assert f"{kind}_{counter}" in before
    framework.run_many([64, 64, 128])
    deltas = tracing.cache_deltas(before, framework.cache_stats)
    assert deltas["cache.hit_ratio"] > 0.0
    assert deltas["cache.warm_start_hits"] == 0
