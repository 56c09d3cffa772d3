"""The ~5.4 ms-per-evaluation claim (Sections 1 and 5).

"Our measurements show that evaluating a single distribution in MHETA
takes about 5.4 ms.  This efficiency is important because we intend to
eventually use it within a new MPI-based runtime system that will choose
a distribution during runtime."

We time ``MhetaModel.predict`` over a mix of spectrum candidates.  Absolute numbers depend on the host (ours is a Python
reimplementation two decades later), so the claim under test is the
usable-on-the-fly property: milliseconds per evaluation, not seconds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

from repro.cluster.cluster import ClusterSpec
from repro.cluster.configs import config_hy1
from repro.core.model import MhetaModel
from repro.distribution.spectrum import spectrum
from repro.experiments.common import build_model
from repro.apps import JacobiApp
from repro.program.structure import ProgramStructure

__all__ = ["TimingResult", "model_evaluation_timing"]

#: The paper's reported cost per evaluation.
PAPER_MILLISECONDS = 5.4


@dataclass(frozen=True)
class TimingResult:
    """Measured evaluation cost."""

    mean_ms: float
    min_ms: float
    max_ms: float
    evaluations: int
    paper_ms: float = PAPER_MILLISECONDS

    @property
    def usable_on_the_fly(self) -> bool:
        """The property the paper's number supports: cheap enough to
        evaluate hundreds of candidates inside a runtime system."""
        return self.mean_ms < 100.0

    def describe(self) -> str:
        return (
            f"MHETA evaluation: mean {self.mean_ms:.2f} ms "
            f"(min {self.min_ms:.2f}, max {self.max_ms:.2f}) over "
            f"{self.evaluations} evaluations; paper reports "
            f"{self.paper_ms} ms"
        )


def model_evaluation_timing(
    cluster: Optional[ClusterSpec] = None,
    program: Optional[ProgramStructure] = None,
    model: Optional[MhetaModel] = None,
    repeats: int = 5,
) -> TimingResult:
    """Measure per-distribution prediction cost on Jacobi/HY1 (an
    arbitrary representative pair, overridable)."""
    if cluster is None:
        cluster = config_hy1()
    if program is None:
        program = JacobiApp.paper().structure
    if model is None:
        model = build_model(cluster, program)
    candidates = [
        p.distribution for p in spectrum(cluster, program, steps_per_leg=4)
    ]
    # Warm-up pass (oracle caches, JIT-free but bytecode warm).
    for d in candidates:
        model.predict(d)
    samples: List[float] = []
    for _ in range(repeats):
        for d in candidates:
            t0 = time.perf_counter()
            model.predict(d)
            samples.append((time.perf_counter() - t0) * 1e3)
    return TimingResult(
        mean_ms=sum(samples) / len(samples),
        min_ms=min(samples),
        max_ms=max(samples),
        evaluations=len(samples),
    )
