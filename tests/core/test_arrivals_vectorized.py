"""The vectorized Poisson arrival sampler is bit-compatible with the
scalar loop it replaced.

Every committed benchmark baseline (``BENCH_serving.json``,
``BENCH_faults.json``) embeds latency numbers derived from the exact
arrival offsets ``random.Random(seed)`` produced under the old
one-draw-per-job loop.  The numpy cumulative-sum sampler must reproduce
those offsets to the last bit — for the committed seeds and for any
other seed — or every committed p50/p99/availability number silently
stops being reproducible.  The retired loop survives here as
``_poisson_arrivals_loop``, the regression oracle.
"""

import json
import random
from pathlib import Path

import numpy as np
import pytest

from repro.core.arrivals import poisson_arrivals
from repro.errors import ConfigError

REPO_ROOT = Path(__file__).resolve().parents[2]


def _poisson_arrivals_loop(
    n_jobs: int, rate: float, seed: int = 0
) -> tuple[float, ...]:
    """The original scalar sampler: one ``expovariate`` draw per job."""
    generator = random.Random(seed)
    now = 0.0
    offsets = []
    for _ in range(n_jobs):
        now += generator.expovariate(rate)
        offsets.append(now)
    return tuple(offsets)

#: First offsets of the committed arrival process (seed 0, rate 2.0) —
#: the stream both committed BENCH files were measured under, frozen as
#: literals so a drift in *either* implementation fails loudly.
COMMITTED_STREAM_PREFIX = (
    0.9303035555326117,
    1.6396181320184926,
    1.912474704789289,
    2.062295860896196,
    2.420273235779771,
    2.6798148288807297,
)


class TestBitCompatibilityWithLoop:
    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 13, 29])
    @pytest.mark.parametrize("rate", [2.0, 1.0, 3.5, 0.25])
    def test_matches_loop_exactly(self, seed, rate):
        n = 257
        assert poisson_arrivals(n, rate, seed=seed) == _poisson_arrivals_loop(
            n, rate, seed=seed
        )

    @pytest.mark.parametrize("seed", [-13, -1, 2**40 + 17, 2**70 + 3])
    def test_matches_loop_for_negative_and_huge_seeds(self, seed):
        """``random.Random`` seeds the Mersenne Twister from the seed's
        magnitude in 32-bit chunks; negative and >64-bit seeds exercise
        the chunking path."""
        assert poisson_arrivals(100, 2.0, seed=seed) == _poisson_arrivals_loop(
            100, 2.0, seed=seed
        )

    def test_committed_stream_prefix_is_frozen(self):
        offsets = poisson_arrivals(len(COMMITTED_STREAM_PREFIX), 2.0, seed=0)
        assert offsets == COMMITTED_STREAM_PREFIX

    def test_prefix_property(self):
        """Drawing more jobs extends the stream without disturbing the
        earlier offsets — the loop's one-draw-per-job contract."""
        short = poisson_arrivals(10, 2.0, seed=0)
        long = poisson_arrivals(1000, 2.0, seed=0)
        assert long[:10] == short

    def test_committed_bench_seeds_reproduce(self):
        """Every (seed, rate) pair recorded in the committed BENCH
        baselines re-derives bit-identically at full batch length."""
        pairs = set()
        for name in ("BENCH_serving.json", "BENCH_faults.json"):
            payload = json.loads((REPO_ROOT / name).read_text())
            for point in payload.get("points", ()):
                arrival = point.get("arrival") or {}
                if "seed" in arrival and "rate_jobs_per_second" in arrival:
                    pairs.add(
                        (arrival["seed"], arrival["rate_jobs_per_second"])
                    )
            sweep = payload.get("arrival_sweep") or {}
            for point in sweep.get("points", ()):
                if "rate_jobs_per_second" in point:
                    pairs.add(
                        (sweep.get("seed", 0), point["rate_jobs_per_second"])
                    )
        assert pairs  # the baselines do carry open-queue measurements
        for seed, rate in sorted(pairs):
            assert poisson_arrivals(
                1024, rate, seed=seed
            ) == _poisson_arrivals_loop(1024, rate, seed=seed)


class TestContract:
    def test_validation_unchanged(self):
        with pytest.raises(ConfigError):
            poisson_arrivals(0, 2.0)
        with pytest.raises(ConfigError):
            poisson_arrivals(4, 0.0)
        with pytest.raises(ConfigError):
            poisson_arrivals(4, -1.0)

    @pytest.mark.parametrize("n_jobs", [2.5, True, "3", None])
    def test_non_integer_job_count_rejected(self, n_jobs):
        with pytest.raises(ConfigError, match="n_jobs"):
            poisson_arrivals(n_jobs, 2.0)

    def test_integer_like_job_count_accepted(self):
        assert poisson_arrivals(np.int64(5), 2.0) == poisson_arrivals(5, 2.0)

    @pytest.mark.parametrize("seed", [None, 1.5, "7"])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            poisson_arrivals(4, 2.0, seed=seed)

    def test_offsets_strictly_positive_and_increasing(self):
        offsets = poisson_arrivals(500, 5.0, seed=11)
        assert offsets[0] > 0
        assert all(b > a for a, b in zip(offsets, offsets[1:]))

    def test_returns_plain_floats(self):
        """Downstream code hashes and pickles the offsets: they must be
        Python floats, not numpy scalars."""
        offsets = poisson_arrivals(3, 2.0, seed=0)
        assert isinstance(offsets, tuple)
        assert all(type(x) is float for x in offsets)
