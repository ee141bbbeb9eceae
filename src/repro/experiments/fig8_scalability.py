"""Fig. 8: NDFT and GPU speedup over the CPU baseline across system sizes.

The paper sweeps Si_16 through Si_2048 and reports that NDFT's advantage
grows with the system ("up to 5.33x at Si_2048"), while the GPU curve
stays flat around 2x.  This driver regenerates both series.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.baselines import run_cpu_baseline, run_gpu_baseline
from repro.core.framework import NdftFramework
from repro.dft.workload import problem_size
from repro.experiments.report import Comparison
from repro.workloads.silicon import PAPER_ATOM_COUNTS

#: §VI-B quotes the peak of the NDFT series.
PAPER_PEAK_SPEEDUP = 5.33
PAPER_PEAK_SYSTEM = 2048


@dataclass(frozen=True)
class ScalabilityStudy:
    """Speedup-over-CPU series for NDFT and GPU."""

    atom_counts: tuple[int, ...]
    ndft_speedup: dict[int, float]
    gpu_speedup: dict[int, float]

    @property
    def peak_ndft_speedup(self) -> float:
        return max(self.ndft_speedup.values())

    @property
    def peak_system(self) -> int:
        return max(self.ndft_speedup, key=self.ndft_speedup.__getitem__)

    def is_monotone_from(self, start: int = 32) -> bool:
        """NDFT advantage grows with size beyond ``start`` atoms, allowing
        a few percent of saturation wobble at the top end (the paper's
        curve also flattens between Si_1024 and Si_2048)."""
        values = [
            self.ndft_speedup[n] for n in self.atom_counts if n >= start
        ]
        return all(b >= a * 0.95 for a, b in zip(values, values[1:]))


def run_scalability(
    atom_counts: tuple[int, ...] = PAPER_ATOM_COUNTS,
    framework: NdftFramework | None = None,
) -> ScalabilityStudy:
    """Sweep the Fig. 8 x-axis and collect both speedup series."""
    framework = framework or NdftFramework()
    ndft_speedup: dict[int, float] = {}
    gpu_speedup: dict[int, float] = {}
    for n_atoms in atom_counts:
        problem = problem_size(n_atoms)
        cpu_total = run_cpu_baseline(problem).total_time
        gpu_total = run_gpu_baseline(problem).total_time
        ndft_total = framework.run(problem=problem).total_time
        ndft_speedup[n_atoms] = cpu_total / ndft_total
        gpu_speedup[n_atoms] = cpu_total / gpu_total
    return ScalabilityStudy(
        atom_counts=tuple(atom_counts),
        ndft_speedup=ndft_speedup,
        gpu_speedup=gpu_speedup,
    )


def scalability_comparisons(study: ScalabilityStudy) -> list[Comparison]:
    comparisons = [
        Comparison(
            f"peak NDFT speedup (Si_{study.peak_system})",
            PAPER_PEAK_SPEEDUP,
            round(study.peak_ndft_speedup, 2),
            "x",
        )
    ]
    if PAPER_PEAK_SYSTEM in study.ndft_speedup:
        comparisons.append(
            Comparison(
                f"NDFT speedup at Si_{PAPER_PEAK_SYSTEM}",
                PAPER_PEAK_SPEEDUP,
                round(study.ndft_speedup[PAPER_PEAK_SYSTEM], 2),
                "x",
            )
        )
    return comparisons


def format_scalability(study: ScalabilityStudy) -> str:
    lines = [
        "Fig. 8 - speedup over CPU baseline",
        f"{'system':<10s} {'NDFT':>8s} {'GPU':>8s}",
    ]
    for n in study.atom_counts:
        lines.append(
            f"{'Si_' + str(n):<10s} {study.ndft_speedup[n]:8.2f} "
            f"{study.gpu_speedup[n]:8.2f}"
        )
    return "\n".join(lines)
