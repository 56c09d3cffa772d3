"""Ground-truth effects MHETA does not model.

The paper attributes MHETA's residual error to three inherent
limitations (Section 5.4) plus instrumented-iteration perturbation
(Section 5.2.1).  Each corresponding effect is a separately switchable
knob here, which the ablation benchmark flips one at a time:

* ``compute_noise``  — run-to-run computation jitter (OS scheduling,
  DVFS, TLB state); multiplicative lognormal noise per stage execution.
* ``cache_effects``  — the memory-hierarchy effect: a stage whose working
  set fits lower in the cache hierarchy runs a few percent faster.
  MHETA measures whatever factor the *instrumented* distribution had and
  cannot predict how it changes for other distributions (limitation 1).
* ``os_read_cache``  — handled in :mod:`repro.sim.disk`; the flag here
  enables it.
* ``sparse_weights`` — honour the program's ground-truth ``row_weights``
  (CG's per-row non-zeros).  MHETA scales computation by row count
  (limitation 3).
* ``runtime_overhead`` — the runtime's memory reservation that shifts
  the true in-core boundary away from the model's (limitation 2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from repro.cluster.dynamics import LoadTrace
from repro.cluster.node import NodeSpec
from repro.util.rng import stream

__all__ = ["PerturbationConfig", "PerturbationModel"]


@dataclass(frozen=True)
class PerturbationConfig:
    """Which ground-truth effects are active, and how strong they are."""

    compute_noise: bool = True
    noise_sigma: float = 0.004
    cache_effects: bool = True
    cache_amplitude: float = 0.02
    #: Working-set size at which the cache factor crosses neutral.
    cache_knee_bytes: float = 48e6
    os_read_cache: bool = True
    sparse_weights: bool = True
    runtime_overhead: bool = True
    #: Mean fraction of CPU stolen by competing jobs (0 = the paper's
    #: dedicated environment; Section 3.2 defers the non-dedicated case).
    background_load: float = 0.0
    #: Burstiness of the background load (std of its slow random walk).
    background_volatility: float = 0.5
    #: Persistence of the load process between stage executions (AR(1)
    #: coefficient): near 1 = slowly drifting competitor jobs.
    background_persistence: float = 0.9
    seed_label: str = "sim"

    def without(self, **flags: bool) -> "PerturbationConfig":
        """Copy with the given effect flags overridden (ablations)."""
        return replace(self, **flags)

    @classmethod
    def none(cls) -> "PerturbationConfig":
        """All effects off: the emulator then behaves exactly like the
        analytical model (used to validate the model's equations)."""
        return cls(
            compute_noise=False,
            cache_effects=False,
            os_read_cache=False,
            sparse_weights=False,
            runtime_overhead=False,
        )


@dataclass
class PerturbationModel:
    """Stateful sampler bound to one emulated run."""

    config: PerturbationConfig
    run_labels: tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        # The background-load process samples its own dedicated RNG
        # stream (suffixed "background"), NOT the shared noise stream:
        # otherwise toggling ``compute_noise`` would shift which draws
        # the load process sees and change its trajectory, so noise and
        # load ablations would not compose.
        cfg = self.config
        if cfg.background_load > 0.0:
            trace = LoadTrace(
                mean=cfg.background_load,
                volatility=cfg.background_volatility,
                persistence=cfg.background_persistence,
                seed_label=cfg.seed_label,
            )
            self._load = trace.sampler(*self.run_labels, "background")
        else:
            self._load = None

    @functools.cached_property
    def _rng(self) -> np.random.Generator:
        # Seeded on first draw: deterministic runs never draw, and
        # seeding (a SHA-256 plus generator set-up) is not free.
        return stream(self.config.seed_label, *self.run_labels)

    # -- computation ------------------------------------------------------

    def compute_factor(self, node: NodeSpec, working_set_bytes: float) -> float:
        """Deterministic speed factor for a stage execution: the
        memory-hierarchy effect.  < 1 means faster than nominal."""
        if not self.config.cache_effects:
            return 1.0
        amp = self.config.cache_amplitude
        knee = self.config.cache_knee_bytes
        ws = max(working_set_bytes, 1.0)
        # Smooth S-curve in log-space: small working sets run up to
        # ``amp`` faster, huge ones up to ``amp`` slower.
        x = (math.log(ws) - math.log(knee)) / math.log(16.0)
        s = math.tanh(x)
        return 1.0 + amp * s

    def noise_factor(self) -> float:
        """Multiplicative run-to-run jitter for one stage execution."""
        if not self.config.compute_noise:
            return 1.0
        sigma = self.config.noise_sigma
        return float(np.exp(self._rng.normal(0.0, sigma)))

    def noise_factors(self, n: int) -> np.ndarray:
        """The next ``n`` :meth:`noise_factor` values as one vector.

        numpy's ``Generator.normal`` fills a vector with the same
        sequence of draws as ``n`` scalar calls, and ``np.exp`` rounds
        each element as it rounds a scalar, so the vector equals the
        scalar draws bit for bit (the compiled emulation plans replay
        noisy runs from it, and self-check that equality against the
        event engine).
        """
        if not self.config.compute_noise:
            return np.ones(n)
        return np.exp(self._rng.normal(0.0, self.config.noise_sigma, n))

    def background_factor(self) -> float:
        """Slowdown from competing jobs on a non-dedicated node.

        The load follows a slowly drifting AR(1) process
        (:class:`~repro.cluster.dynamics.LoadTrace`) around the
        configured mean; a stage that would take ``t`` seconds alone
        takes ``t / (1 - load)`` when a ``load`` fraction of the CPU is
        stolen.  With ``background_load == 0`` (the paper's dedicated
        environment) this is exactly 1 and no RNG draw is made.
        """
        if self._load is None:
            return 1.0
        return self._load.factor()

    def background_factors(self, n: int) -> np.ndarray:
        """The next ``n`` :meth:`background_factor` values as one
        vector, bit for bit (see
        :meth:`~repro.cluster.dynamics.LoadSampler.factors`)."""
        if self._load is None:
            return np.ones(n)
        return self._load.factors(n)
