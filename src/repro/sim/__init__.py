"""Discrete-event emulator of a heterogeneous cluster ("actual" runs).

The paper measures MHETA against real executions on an emulated
heterogeneous cluster (eight Dell Quad servers, Solaris, LAM-MPI).  This
package is our substitute substrate: a deterministic discrete-event
simulator that executes :class:`~repro.program.ProgramStructure`
applications under a given data distribution on a
:class:`~repro.cluster.ClusterSpec`, with

* per-block disk I/O (seek + transfer) including an OS page-cache model,
* blocking message passing with per-message overheads and transfer time,
* pipelined sections, boundary exchanges, tree reductions, ring
  allgathers,
* one-block-ahead asynchronous prefetching,
* and perturbations MHETA does not model: computation noise,
  memory-hierarchy (cache) effects, runtime memory overhead, and sparse
  row-weight imbalance.

The emulator is deliberately finer-grained than MHETA so that the
model's reported ~98% accuracy — and its failure modes from paper
Section 5.4 — are measured, not assumed.

Each rank's node program is lowered to an op tape
(:mod:`repro.sim.executor`).  A run is either replayed by the
configuration's compiled plan (:mod:`repro.sim.plan_sim`) or
interpreted by the event engine, one flat loop over a heap of rank
wake-ups; the route, not the caller, picks which.
"""

from repro.sim.disk import DiskModel
from repro.sim.memory import MemoryPlan, VariablePlacement, plan_memory
from repro.sim.perturbation import PerturbationConfig, PerturbationModel
from repro.sim.steady import FastForwardPolicy, supports_fast_forward
from repro.sim.executor import (
    IO_MODES,
    ClusterEmulator,
    RunResult,
    emulate,
    emulate_many,
)
from repro.sim.plan_sim import EmulationPlan, get_emulation_plan
from repro.sim.analysis import NodeBreakdown, RunAnalysis, analyse_run

__all__ = [
    "DiskModel",
    "MemoryPlan",
    "VariablePlacement",
    "plan_memory",
    "PerturbationConfig",
    "PerturbationModel",
    "FastForwardPolicy",
    "supports_fast_forward",
    "IO_MODES",
    "ClusterEmulator",
    "RunResult",
    "emulate",
    "emulate_many",
    "EmulationPlan",
    "get_emulation_plan",
    "NodeBreakdown",
    "RunAnalysis",
    "analyse_run",
]
