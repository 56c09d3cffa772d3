"""Figures 10 and 11: predicted vs actual curves per configuration.

Each paper panel shows, for one Table-1 configuration and two
applications, the actual and predicted execution times (seconds) across
the distribution spectrum, with the best distribution circled — one
circle when model and reality agree on the winner, an extra dashed
circle when they disagree (as happened for CG in configuration IO).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.cluster.cluster import ClusterSpec
from repro.cluster.configs import TABLE1_CONFIGS
from repro.apps import paper_applications
from repro.experiments.common import SpectrumRun, run_spectrum
from repro.parallel.runner import ParallelRunner
from repro.sim.perturbation import PerturbationConfig
from repro.util.tables import render_series

__all__ = ["ConfigCurves", "config_curves", "figure10", "figure11"]


@dataclass(frozen=True)
class ConfigCurves:
    """All four applications' curves on one configuration."""

    config_name: str
    runs: Tuple[SpectrumRun, ...]

    def run(self, app_name: str) -> SpectrumRun:
        for r in self.runs:
            if r.app_name == app_name:
                return r
        raise KeyError(app_name)

    def circles(self) -> Dict[str, Tuple[str, str]]:
        """Per app: (actual-best label, predicted-best label).  Equal
        labels = one circle in the paper's figures; different labels =
        the dashed-circle disagreement."""
        return {
            r.app_name: (r.best_actual.label, r.best_predicted.label)
            for r in self.runs
        }

    def describe(self) -> str:
        blocks = []
        for r in self.runs:
            series = {
                f"{r.app_name}-Actual": [p.actual_seconds for p in r.points],
                f"{r.app_name}-Predicted": [
                    p.predicted_seconds for p in r.points
                ],
            }
            best_a, best_p = (
                r.best_actual.label,
                r.best_predicted.label,
            )
            marker = (
                f"best: {best_a} (model agrees)"
                if best_a == best_p
                else f"best actual: {best_a}; model circles {best_p} (dashed)"
            )
            blocks.append(
                render_series(
                    "distribution",
                    [p.label for p in r.points],
                    series,
                    float_fmt=".2f",
                    title=(
                        f"{self.config_name} / {r.app_name} — {marker}; "
                        f"avg err {r.mean_error_percent:.2f}%"
                    ),
                )
            )
        return "\n\n".join(blocks)


def _curves_task(spec) -> SpectrumRun:
    """Process-pool task: one application's curve on one configuration."""
    cluster, program, steps_per_leg, perturbation = spec
    return run_spectrum(
        cluster,
        program,
        steps_per_leg=steps_per_leg,
        perturbation=perturbation,
    )


def config_curves(
    config_name: str,
    *,
    cluster: Optional[ClusterSpec] = None,
    steps_per_leg: int = 4,
    scale: float = 1.0,
    apps: Optional[Sequence[str]] = None,
    perturbation: Optional[PerturbationConfig] = None,
    jobs: int = 1,
) -> ConfigCurves:
    """Predicted-vs-actual curves for one named configuration.

    ``jobs`` fans the per-application sweeps out over a process pool;
    results are bit-identical to the serial run.
    """
    if cluster is None:
        cluster = TABLE1_CONFIGS[config_name]()
    wanted = set(apps) if apps is not None else None
    tasks = [
        (cluster, app.structure, steps_per_leg, perturbation)
        for app in paper_applications(scale)
        if wanted is None or app.name in wanted
    ]
    runs = ParallelRunner(jobs).map(_curves_task, tasks)
    return ConfigCurves(config_name=config_name, runs=tuple(runs))


def figure10(
    steps_per_leg: int = 4, scale: float = 1.0, jobs: int = 1
) -> Tuple[ConfigCurves, ConfigCurves]:
    """Figure 10: configurations DC (top panels) and IO (bottom panels),
    each panel pairing CG+Jacobi (left) and Lanczos+RNA (right)."""
    return (
        config_curves("DC", steps_per_leg=steps_per_leg, scale=scale, jobs=jobs),
        config_curves("IO", steps_per_leg=steps_per_leg, scale=scale, jobs=jobs),
    )


def figure11(
    steps_per_leg: int = 4, scale: float = 1.0, jobs: int = 1
) -> Tuple[ConfigCurves, ConfigCurves]:
    """Figure 11: configurations HY1 (top) and HY2 (bottom)."""
    return (
        config_curves("HY1", steps_per_leg=steps_per_leg, scale=scale, jobs=jobs),
        config_curves("HY2", steps_per_leg=steps_per_leg, scale=scale, jobs=jobs),
    )
