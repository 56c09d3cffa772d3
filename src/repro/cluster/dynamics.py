"""Time-varying node models: load traces, drift, degradation, failure.

Every scenario the emulator ran before this module was *static*: a
:class:`~repro.cluster.cluster.ClusterSpec` pinned each node's CPU power
and disk bandwidth for the whole job.  Real shared clusters drift — the
self-adaptable-algorithms premise (Lastovetsky et al.): competing jobs
steal cycles, thermal/DVFS throttling bleeds CPU speed, disks degrade
under contention, and nodes drop out or come back.  This module models
those as deterministic, seedable functions of the *global iteration
index*, attached to a cluster as a :class:`DynamicsSpec`:

* :class:`LoadTrace` — the AR(1) background-load process that previously
  lived inside :class:`~repro.sim.perturbation.PerturbationModel`, now
  first-class and seedable on its own stream (so flipping unrelated
  perturbation knobs never changes a sampled load trajectory);
* :class:`NodeLoad` — a load trace bound to one node from some iteration;
* :class:`CpuDrift` — thermal/DVFS throttling: CPU power decays
  exponentially towards a floor;
* :class:`DiskDegradation` — disk bandwidth decays the same way;
* :class:`NodeEvent` — loss/join events.  A *loss* drops the node's
  service rate to a small residual (fail-slow semantics: the runtime's
  recovery proxy keeps the rank answering, so static runs stay finite
  and comparable); a *join* restores it.

:meth:`DynamicsSpec.compile` lowers a spec to a dense per-(node,
iteration) factor timeline the emulator multiplies into compute and
disk durations.  Because every factor is indexed by the *global*
iteration, a mid-run segment (``iteration_offset > 0``) sees exactly
the conditions the same iterations of a continuous run would — the
invariant the adaptive runtime's what-if emulations rely on.

Dynamics are *non-stationary by construction*: the steady-state
fast-forward refuses any run with an active spec
(:func:`repro.sim.steady.supports_fast_forward`).  None of the factors
depends on timing, though, so the compiled emulation plans
(:mod:`repro.sim.plan_sim`) still serve dynamic runs: their op tapes
stay factor-free and the replay multiplies in each (rank, iteration)'s
:meth:`DynamicsTimeline.compute_multipliers` and
:meth:`DynamicsTimeline.disk_slowdowns` in the engine's operation
order, so the results equal the event engine's bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.util.rng import stream

__all__ = [
    "LoadTrace",
    "LoadSampler",
    "NodeLoad",
    "CpuDrift",
    "DiskDegradation",
    "NodeEvent",
    "DynamicsSpec",
    "DynamicsTimeline",
]

#: Load fractions are clipped here: a node never loses more than 90 % of
#: its CPU to competitors (matches the historic in-perturbation clip).
LOAD_CEILING = 0.9


@dataclass(frozen=True)
class LoadTrace:
    """A seedable AR(1) background-load process.

    The load fraction follows ``state' = rho * state + innovation`` with
    ``innovation ~ N(mean * (1 - rho), volatility * mean * (1 - rho))``,
    clipped to ``[0, ceiling]`` — a slowly drifting competitor-job
    profile whose stationary mean is ``mean``.  A node under load
    fraction ``x`` runs compute ``1 / (1 - x)`` times slower.

    The trace owns its RNG stream (seeded from ``seed_label`` plus the
    caller's labels), so two samplers with equal labels replay the same
    trajectory regardless of what else draws randomness around them.
    """

    mean: float
    volatility: float = 0.5
    persistence: float = 0.9
    ceiling: float = LOAD_CEILING
    seed_label: str = "load"

    def __post_init__(self) -> None:
        if not 0.0 <= self.mean < 1.0:
            raise ConfigurationError(
                f"load mean must be in [0, 1), got {self.mean}"
            )
        if not 0.0 <= self.persistence < 1.0:
            raise ConfigurationError(
                f"persistence must be in [0, 1), got {self.persistence}"
            )
        if self.volatility < 0.0:
            raise ConfigurationError(
                f"volatility must be >= 0, got {self.volatility}"
            )

    def sampler(self, *labels) -> "LoadSampler":
        """A stateful sampler replaying this trace's trajectory for the
        given seed labels."""
        return LoadSampler(self, stream(self.seed_label, *labels))

    def series(self, n: int, *labels) -> np.ndarray:
        """The first ``n`` load fractions of the trajectory for the
        given seed labels (one sample per step)."""
        return np.array(self.sampler(*labels).steps(n), dtype=float)


class LoadSampler:
    """Stateful walker of one :class:`LoadTrace` trajectory."""

    __slots__ = ("_trace", "_rng", "_state")

    def __init__(self, trace: LoadTrace, rng) -> None:
        self._trace = trace
        self._rng = rng
        self._state = trace.mean

    @property
    def state(self) -> float:
        return self._state

    def step(self) -> float:
        """Advance one step; returns the new load fraction."""
        trace = self._trace
        if trace.mean <= 0.0:
            return 0.0
        rho = trace.persistence
        sigma = trace.volatility * trace.mean
        innovation = self._rng.normal(
            trace.mean * (1.0 - rho), sigma * (1.0 - rho)
        )
        self._state = float(
            np.clip(rho * self._state + innovation, 0.0, trace.ceiling)
        )
        return self._state

    def factor(self) -> float:
        """Advance one step; returns the compute slowdown ``1/(1-load)``."""
        return 1.0 / (1.0 - self.step())

    def steps(self, n: int) -> List[float]:
        """The next ``n`` :meth:`step` values, bit for bit.

        The innovations come from one vector draw (numpy's
        ``Generator.normal`` fills a vector with the same sequence as
        ``n`` scalar calls); the clipped AR(1) recurrence then runs on
        Python floats in the scalar path's operation order.
        """
        trace = self._trace
        if trace.mean <= 0.0:
            return [0.0] * n
        rho = trace.persistence
        sigma = trace.volatility * trace.mean
        innovations = self._rng.normal(
            trace.mean * (1.0 - rho), sigma * (1.0 - rho), n
        ).tolist()
        ceiling = trace.ceiling
        state = self._state
        out = []
        for innovation in innovations:
            # np.clip's comparisons: a -0.0 stays, NaN passes through.
            state = rho * state + innovation
            if state < 0.0:
                state = 0.0
            elif state > ceiling:
                state = ceiling
            out.append(state)
        self._state = state
        return out

    def factors(self, n: int) -> np.ndarray:
        """The next ``n`` :meth:`factor` values as one vector, bit for
        bit."""
        return 1.0 / (1.0 - np.array(self.steps(n), dtype=float))


def _check_node(node: int, what: str) -> None:
    if node < 0:
        raise ConfigurationError(f"{what}: node index must be >= 0, got {node}")


@dataclass(frozen=True)
class NodeLoad:
    """A background-load trace bound to one node from some iteration on."""

    node: int
    trace: LoadTrace
    start_iteration: int = 0

    def __post_init__(self) -> None:
        _check_node(self.node, "NodeLoad")


@dataclass(frozen=True)
class CpuDrift:
    """Thermal/DVFS throttling: from ``start_iteration`` on, the node's
    CPU power decays exponentially towards ``floor`` of nominal —
    ``factor(it) = floor + (1 - floor) * exp(-rate * (it - start))``."""

    node: int
    rate: float  #: per-iteration decay rate (1/iterations)
    floor: float = 0.6  #: asymptotic fraction of nominal CPU power
    start_iteration: int = 0

    def __post_init__(self) -> None:
        _check_node(self.node, "CpuDrift")
        if self.rate < 0.0:
            raise ConfigurationError(f"CpuDrift rate must be >= 0, got {self.rate}")
        if not 0.0 < self.floor <= 1.0:
            raise ConfigurationError(
                f"CpuDrift floor must be in (0, 1], got {self.floor}"
            )

    def factor_at(self, iteration: int) -> float:
        dt = iteration - self.start_iteration
        if dt < 0:
            return 1.0
        return self.floor + (1.0 - self.floor) * float(np.exp(-self.rate * dt))


@dataclass(frozen=True)
class DiskDegradation:
    """Disk bandwidth decay (contention, failing media): same shape as
    :class:`CpuDrift`, applied to the node's disk service rate."""

    node: int
    rate: float
    floor: float = 0.5
    start_iteration: int = 0

    def __post_init__(self) -> None:
        _check_node(self.node, "DiskDegradation")
        if self.rate < 0.0:
            raise ConfigurationError(
                f"DiskDegradation rate must be >= 0, got {self.rate}"
            )
        if not 0.0 < self.floor <= 1.0:
            raise ConfigurationError(
                f"DiskDegradation floor must be in (0, 1], got {self.floor}"
            )

    def factor_at(self, iteration: int) -> float:
        dt = iteration - self.start_iteration
        if dt < 0:
            return 1.0
        return self.floor + (1.0 - self.floor) * float(np.exp(-self.rate * dt))


@dataclass(frozen=True)
class NodeEvent:
    """A node loss or join at a given iteration.

    ``loss`` drops the node's compute *and* disk service rate to
    ``residual`` of nominal from ``at_iteration`` on — fail-slow
    semantics: the rank keeps participating in communication (think of
    the runtime keeping a recovery proxy alive), so un-adapted runs
    finish, just catastrophically slowly.  ``join`` restores the rate to
    ``residual`` (default 1.0: full service), e.g. a repaired node or a
    spare arriving.  Later events on the same node override earlier
    ones.
    """

    node: int
    at_iteration: int
    kind: str = "loss"  #: "loss" | "join"
    residual: float = 0.05

    def __post_init__(self) -> None:
        _check_node(self.node, "NodeEvent")
        if self.kind not in ("loss", "join"):
            raise ConfigurationError(
                f"NodeEvent kind must be 'loss' or 'join', got {self.kind!r}"
            )
        if not 0.0 < self.residual <= 1.0:
            raise ConfigurationError(
                f"NodeEvent residual must be in (0, 1], got {self.residual}"
            )


@dataclass(frozen=True)
class DynamicsSpec:
    """Everything time-varying about a cluster, as one frozen value.

    An empty spec is falsy and behaves exactly like ``dynamics=None``
    (the emulator takes the static path, fast-forward stays eligible).
    Any non-empty spec is treated as non-stationary.
    """

    loads: Tuple[NodeLoad, ...] = ()
    cpu_drift: Tuple[CpuDrift, ...] = ()
    disk_degradation: Tuple[DiskDegradation, ...] = ()
    events: Tuple[NodeEvent, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "loads", tuple(self.loads))
        object.__setattr__(self, "cpu_drift", tuple(self.cpu_drift))
        object.__setattr__(
            self, "disk_degradation", tuple(self.disk_degradation)
        )
        object.__setattr__(self, "events", tuple(self.events))

    def __bool__(self) -> bool:
        return bool(
            self.loads or self.cpu_drift or self.disk_degradation or self.events
        )

    @property
    def stationary(self) -> bool:
        """True when nothing varies (the spec is a no-op)."""
        return not self

    def with_(self, **changes) -> "DynamicsSpec":
        return replace(self, **changes)

    # -- lowering ----------------------------------------------------------

    def _max_node(self) -> int:
        nodes = [c.node for c in self.loads]
        nodes += [c.node for c in self.cpu_drift]
        nodes += [c.node for c in self.disk_degradation]
        nodes += [c.node for c in self.events]
        return max(nodes) if nodes else -1

    def validate(self, n_nodes: int) -> None:
        """Raise when any component names a node the cluster lacks."""
        top = self._max_node()
        if top >= n_nodes:
            raise ConfigurationError(
                f"dynamics reference node {top}, cluster has {n_nodes} nodes"
            )

    def compile(
        self, n_nodes: int, n_iterations: int, iteration_offset: int = 0
    ) -> "DynamicsTimeline":
        """Dense factor timeline for global iterations
        ``[iteration_offset, iteration_offset + n_iterations)``.

        Load traces are sampled from global iteration 0 and sliced, so a
        segment replays exactly the loads the same iterations of a
        continuous run would see.
        """
        self.validate(n_nodes)
        if n_iterations < 0 or iteration_offset < 0:
            raise ConfigurationError(
                "compile() needs n_iterations >= 0 and iteration_offset >= 0"
            )
        horizon = iteration_offset + n_iterations
        cpu = np.ones((n_nodes, n_iterations), dtype=float)
        disk = np.ones((n_nodes, n_iterations), dtype=float)
        load = np.zeros((n_nodes, n_iterations), dtype=float)
        its = np.arange(iteration_offset, horizon, dtype=float)

        for drift in self.cpu_drift:
            dt = its - drift.start_iteration
            factor = np.where(
                dt < 0,
                1.0,
                drift.floor + (1.0 - drift.floor) * np.exp(-drift.rate * np.maximum(dt, 0.0)),
            )
            cpu[drift.node] *= factor
        for deg in self.disk_degradation:
            dt = its - deg.start_iteration
            factor = np.where(
                dt < 0,
                1.0,
                deg.floor + (1.0 - deg.floor) * np.exp(-deg.rate * np.maximum(dt, 0.0)),
            )
            disk[deg.node] *= factor

        # Events: chronological sweep, later events override earlier.
        event_factor = np.ones((n_nodes, n_iterations), dtype=float)
        for ev in sorted(self.events, key=lambda e: e.at_iteration):
            lo = max(ev.at_iteration - iteration_offset, 0)
            if lo >= n_iterations:
                continue
            event_factor[ev.node, lo:] = (
                ev.residual if ev.kind == "loss" else 1.0
            )
        cpu *= event_factor
        disk *= event_factor

        for nl in self.loads:
            series = nl.trace.series(horizon, "node", nl.node)
            active = np.arange(horizon) >= nl.start_iteration
            values = np.where(active, series, 0.0)[iteration_offset:horizon]
            # Loads on one node combine by capping at the ceiling.
            load[nl.node] = np.minimum(
                load[nl.node] + values, nl.trace.ceiling
            )

        return DynamicsTimeline(
            cpu_factor=cpu,
            disk_factor=disk,
            load=load,
            iteration_offset=iteration_offset,
        )

    # -- model-facing snapshot ---------------------------------------------

    def expected_load(self, node: int, iteration: int) -> float:
        """The load traces' stationary mean on ``node`` at ``iteration``
        (the model's best estimate — it cannot see future samples)."""
        total = 0.0
        ceiling = LOAD_CEILING
        for nl in self.loads:
            if nl.node == node and iteration >= nl.start_iteration:
                total += nl.trace.mean
                ceiling = nl.trace.ceiling
        return min(total, ceiling)

    def effective_cluster(self, cluster, iteration: int):
        """A *static* snapshot of ``cluster`` as this spec leaves it at
        ``iteration``: CPU powers and disk bandwidths scaled by the
        deterministic factors, loads folded in at their expected value,
        and no dynamics attached (the snapshot is what the adaptive
        runtime instruments and searches against mid-run)."""
        timeline = self.compile(cluster.n_nodes, 1, iteration)
        nodes = []
        for rank, node in enumerate(cluster.nodes):
            cpu_factor = float(timeline.cpu_factor[rank, 0])
            disk_factor = float(timeline.disk_factor[rank, 0])
            load = self.expected_load(rank, iteration)
            effective_power = node.cpu_power * cpu_factor * (1.0 - load)
            changes = {"cpu_power": max(effective_power, 1e-9)}
            if disk_factor != 1.0:
                changes["disk_read_bw"] = node.disk_read_bw * disk_factor
                changes["disk_write_bw"] = node.disk_write_bw * disk_factor
            nodes.append(node.with_(**changes))
        snapshot = cluster.with_nodes(
            nodes, name=f"{cluster.name}@it{iteration}"
        )
        return replace(snapshot, dynamics=None)

    # -- reporting ---------------------------------------------------------

    def describe(self) -> str:
        if not self:
            return "dynamics: none (stationary)"
        lines = [f"dynamics {self.name or '(unnamed)'}:"]
        for nl in self.loads:
            lines.append(
                f"  load      node {nl.node}: mean={nl.trace.mean:.2f} "
                f"from it {nl.start_iteration}"
            )
        for d in self.cpu_drift:
            lines.append(
                f"  cpu drift node {d.node}: -> {d.floor:.2f}x "
                f"(rate {d.rate:.3f}/it) from it {d.start_iteration}"
            )
        for d in self.disk_degradation:
            lines.append(
                f"  disk fade node {d.node}: -> {d.floor:.2f}x "
                f"(rate {d.rate:.3f}/it) from it {d.start_iteration}"
            )
        for e in self.events:
            lines.append(
                f"  {e.kind:9s} node {e.node} at it {e.at_iteration}"
                + (f" (residual {e.residual:.2f}x)" if e.kind == "loss" else "")
            )
        return "\n".join(lines)


@dataclass
class DynamicsTimeline:
    """Dense per-(node, iteration) factors for one emulated segment.

    ``cpu_factor`` and ``disk_factor`` multiply the node's *service
    rate* (1.0 = nominal, smaller = slower); ``load`` is the sampled
    background-load fraction.  The emulator turns them into duration
    multipliers via :meth:`compute_multiplier` / :meth:`disk_slowdown`.
    """

    cpu_factor: np.ndarray  #: (P, T) service-rate factor for compute
    disk_factor: np.ndarray  #: (P, T) service-rate factor for disk
    load: np.ndarray  #: (P, T) sampled load fraction
    iteration_offset: int = 0

    @property
    def n_iterations(self) -> int:
        return self.cpu_factor.shape[1]

    def _col(self, iteration: int) -> int:
        return iteration - self.iteration_offset

    def compute_multiplier(self, rank: int, iteration: int) -> float:
        """Duration multiplier for compute on ``rank`` at the *global*
        ``iteration``: ``1 / (cpu_factor * (1 - load))``."""
        j = self._col(iteration)
        return 1.0 / (
            self.cpu_factor[rank, j] * (1.0 - self.load[rank, j])
        )

    def disk_slowdown(self, rank: int, iteration: int) -> float:
        """Duration multiplier for disk service on ``rank`` at the
        *global* ``iteration``."""
        return 1.0 / self.disk_factor[rank, self._col(iteration)]

    def compute_multipliers(self) -> np.ndarray:
        """``(P, T)`` :meth:`compute_multiplier` of every (rank,
        iteration) of the segment, elementwise bit-identical."""
        return 1.0 / (self.cpu_factor * (1.0 - self.load))

    def disk_slowdowns(self) -> np.ndarray:
        """``(P, T)`` :meth:`disk_slowdown` of every (rank, iteration)
        of the segment, elementwise bit-identical."""
        return 1.0 / self.disk_factor
