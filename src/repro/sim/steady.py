"""Steady-state cycle detection and fast-forward for emulated runs.

A deterministic emulated run of an iteration-invariant program settles
into a cycle: after the pipeline fills and the OS page cache warms
(every out-of-core variable has been streamed through once), each
iteration's event schedule is an exact time-shifted copy of the
previous one, so every node's iteration-end times advance by a constant
per-node delta.  Simulating all N iterations through the event loop is
then pure repetition.

The fast path exploits this in two steps:

1. **Probe**: replay only the first ``warmup + stable + 1``
   iterations (bit-identical to the event engine).
2. **Detect + extrapolate**: if, past the warmup, the last ``stable``
   iteration-end deltas of *every* node agree within a tight tolerance,
   the remaining iterations are generated closed-form —
   ``end(i) = end(probe) + (i - probe) * delta`` — producing a
   :class:`~repro.sim.executor.RunResult` that matches full simulation
   to within floating-point accumulation error (the golden suite pins
   it at <= 1e-9 relative).

Eligibility is decided *structurally* first
(:func:`supports_fast_forward`): stochastic effects (computation
noise, background load), a non-uniform iteration profile or cluster
dynamics disqualify extrapolation up front.  (An observed or
instrumented run never gets that far: the route sends it to the event
engine as a counted fallback.)  Convergence detection is the second,
empirical gate: a workload that passes the structural check but whose
deltas have not settled in the probe window falls back to full
simulation.

Refusing extrapolation does not mean the event engine runs.  The
probe is replayed by the compiled
:class:`~repro.sim.plan_sim.EmulationPlan`, and a run disqualified by
computation noise, background load or cluster dynamics is replayed
from the same plan over *all* of its iterations, bit-identical to the
engine (none of those factors depends on timing).
:meth:`repro.sim.executor.ClusterEmulator.run` documents the routing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

__all__ = [
    "FAST_FORWARD_POLICY",
    "FastForwardPolicy",
    "supports_fast_forward",
    "steady_deltas",
    "extrapolate_ends",
]


@dataclass(frozen=True)
class FastForwardPolicy:
    """Knobs of the cycle detector.

    Parameters
    ----------
    warmup:
        Iteration-end deltas discarded before stability is judged: the
        pipeline-fill and page-cache-warm transient.  (Measured across
        every seed app x cluster combination the transient is at most
        one delta; two adds safety margin.)
    stable:
        Number of consecutive trailing deltas, per node, that must
        agree for the run to count as converged (the paper-scale RNA
        pipeline needs more than one to rule out period-2 cycles).
    rel_tol, abs_tol:
        Tolerance for delta agreement.  Tight by design: the steady
        schedule repeats *exactly* up to floating-point rounding, so a
        loose tolerance would only mask genuine non-convergence.
    """

    warmup: int = 2
    stable: int = 4
    rel_tol: float = 1e-12
    abs_tol: float = 1e-15

    def __post_init__(self) -> None:
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")
        if self.stable < 2:
            raise ValueError(f"stable must be >= 2, got {self.stable}")

    @property
    def probe_iterations(self) -> int:
        """Iterations the probe must simulate: warmup deltas to discard
        plus ``stable`` deltas to judge (one delta needs two ends)."""
        return self.warmup + self.stable + 1


#: The cycle detector every emulation plan probes with.
FAST_FORWARD_POLICY = FastForwardPolicy()


def supports_fast_forward(program, perturbation, *, dynamics=None) -> bool:
    """Structural eligibility for extrapolation: is this run
    stationary, so that cycle fast-forward *could* apply?

    * A non-uniform ``iteration_profile`` changes the work per
      iteration — the schedule never repeats.
    * Computation noise and background load draw from the run's RNG
      streams on every stage execution: iterations differ by design.
    * Cluster dynamics (a truthy
      :class:`~repro.cluster.dynamics.DynamicsSpec`) make node speeds
      a function of the iteration index — the run is non-stationary
      and the steady cycle never forms.

    Observed and instrumented runs never reach this question: the
    route refuses them the plan first
    (:meth:`~repro.sim.executor._Emulator._plan_refusal`).  Noisy,
    background-loaded and dynamic runs are still plan-served: every
    iteration is replayed from the op tapes, not extrapolated (see
    :meth:`ClusterEmulator.run
    <repro.sim.executor.ClusterEmulator.run>`).
    """
    if program.iteration_profile is not None:
        return False
    if perturbation.compute_noise:
        return False
    if perturbation.background_load > 0.0:
        return False
    if dynamics:
        return False
    return True


def steady_deltas(
    iteration_ends: Sequence[Sequence[float]], policy: FastForwardPolicy
) -> Optional[List[float]]:
    """Per-node steady iteration-end delta, or ``None`` if any node has
    not converged.

    ``iteration_ends`` is the probe's ``[node][iteration]`` completion
    times.  A node converges when its last ``policy.stable`` deltas all
    agree with the final one within ``rel_tol``/``abs_tol``; the final
    delta is the extrapolation slope (it is the one the next full-sim
    iteration would reproduce).
    """
    deltas: List[float] = []
    for ends in iteration_ends:
        if len(ends) < policy.probe_iterations:
            return None
        tail = [
            ends[i] - ends[i - 1]
            for i in range(len(ends) - policy.stable, len(ends))
        ]
        ref = tail[-1]
        if ref < 0.0:  # a simulation clock never runs backwards
            return None
        tol = policy.rel_tol * abs(ref) + policy.abs_tol
        if any(abs(d - ref) > tol for d in tail):
            return None
        deltas.append(ref)
    return deltas


def extrapolate_ends(
    probe_ends: Sequence[float], delta: float, n_iterations: int
) -> List[float]:
    """Extend one node's probe iteration-end times to ``n_iterations``
    closed-form: ``end(k) = end(probe-1) + (k - probe + 1) * delta``."""
    ends = list(probe_ends)
    base = ends[-1]
    n_more = n_iterations - len(ends)
    if n_more > 32:
        # Vectorised tail — bitwise identical to the scalar loop:
        # int64 * float64 and float64 + float64 round exactly like
        # their Python-float counterparts, elementwise.
        import numpy as np

        ends.extend((base + np.arange(1, n_more + 1) * delta).tolist())
    else:
        ends.extend(base + (k + 1) * delta for k in range(n_more))
    return ends
