"""Robustness study: MHETA accuracy under a non-dedicated cluster.

Paper Section 3.2: "At present, we assume a dedicated computing
environment — this is a problem we will consider in the future."  This
experiment quantifies *why* the assumption is load-bearing: the same
accuracy sweep is repeated with increasing background load (competing
jobs stealing a drifting fraction of each node's CPU), and the model's
error grows with the load because one instrumented iteration cannot
anticipate how the competition will drift afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.cluster.cluster import ClusterSpec
from repro.cluster.configs import config_hy2
from repro.experiments.common import run_spectrum
from repro.apps import JacobiApp
from repro.program.structure import ProgramStructure
from repro.sim.perturbation import PerturbationConfig
from repro.util.tables import render_table

__all__ = ["RobustnessResult", "dedicated_assumption_study"]

#: Background-load levels swept (fraction of CPU stolen on average).
DEFAULT_LOADS: Tuple[float, ...] = (0.0, 0.05, 0.1, 0.2, 0.4)


@dataclass(frozen=True)
class RobustnessResult:
    """Accuracy per background-load level."""

    app_name: str
    cluster_name: str
    mean_error: Dict[float, float]
    max_error: Dict[float, float]

    def describe(self) -> str:
        rows = [
            [f"{load:.0%}", self.mean_error[load], self.max_error[load]]
            for load in sorted(self.mean_error)
        ]
        return render_table(
            ["background load", "mean err %", "max err %"],
            rows,
            float_fmt=".2f",
            title=(
                f"MHETA accuracy vs background load "
                f"({self.app_name} on {self.cluster_name}) — why the paper "
                "assumes a dedicated cluster"
            ),
        )


def dedicated_assumption_study(
    cluster: Optional[ClusterSpec] = None,
    program: Optional[ProgramStructure] = None,
    loads: Sequence[float] = DEFAULT_LOADS,
    steps_per_leg: int = 2,
    scale: float = 1.0,
) -> RobustnessResult:
    """Sweep the accuracy experiment over background-load levels.

    The instrumented iteration runs under the same load regime as the
    measured runs (the competition exists throughout), so the model
    absorbs the *average* slowdown but not its drift.
    """
    if cluster is None:
        cluster = config_hy2()
    if program is None:
        program = JacobiApp.paper(scale).structure
    mean_error: Dict[float, float] = {}
    max_error: Dict[float, float] = {}
    for load in loads:
        perturbation = PerturbationConfig(background_load=load)
        run = run_spectrum(
            cluster,
            program,
            steps_per_leg=steps_per_leg,
            perturbation=perturbation,
        )
        mean_error[load] = run.mean_error_percent
        max_error[load] = run.max_error_percent
    return RobustnessResult(
        app_name=program.name,
        cluster_name=cluster.name,
        mean_error=mean_error,
        max_error=max_error,
    )
