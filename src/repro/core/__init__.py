"""MHETA — the paper's execution model (the primary contribution).

Given a program structure, the measured inputs from one instrumented
iteration (:class:`~repro.instrument.MhetaInputs`), and a candidate
GEN_BLOCK distribution, :class:`MhetaModel` predicts the execution time
of the remaining iterations as a system of parameterised equations:

* computation scales with assigned work (Section 4.2.1);
* I/O follows Equation 1 (synchronous) or Equation 2 (prefetching) from
  ICLA/OCLA sizes computed by the out-of-core oracle;
* communication adds send/receive overheads and the blocked times of
  Equation 3 (nearest neighbour), Equation 4 (pipeline), and the
  dissertation's reduction model (binomial tree here).

:mod:`repro.core.equations` exposes the closed-form two-node equations
exactly as printed in the paper; :class:`MhetaModel` evaluates their
n-node generalisation as a per-section max-plus timeline.
"""

from repro.core.oracle import OutOfCoreOracle
from repro.core.io_model import StageTimeModel, sync_io_seconds, prefetch_io_seconds
from repro.core.comm import SectionTimeline
from repro.core.model import MhetaModel
from repro.core.plan import plan_cache_stats
from repro.core.report import PredictionReport, NodePrediction, SectionBreakdown
from repro.core import equations

__all__ = [
    "OutOfCoreOracle",
    "StageTimeModel",
    "sync_io_seconds",
    "prefetch_io_seconds",
    "SectionTimeline",
    "MhetaModel",
    "plan_cache_stats",
    "PredictionReport",
    "NodePrediction",
    "SectionBreakdown",
    "equations",
]
