"""The event engine as the emulator's test oracle.

The library routes every emulated run itself
(:meth:`repro.sim.executor._Emulator._route`): the compiled plans serve
what they can, and the event engine runs only the counted fallbacks.
No caller can ask for the engine.  The tests still need it: it is the
reference every plan-served result equals bit for bit (or, for an
extrapolated deterministic tail, within 1e-9), and what the golden
digests pin.  :func:`engine_run` runs one configuration on it, the way
:mod:`tests.model_reference` keeps the scalar models.
"""

from __future__ import annotations

from repro.sim.executor import (
    RunResult,
    _iterations,
    _resolve_io_mode,
    _streaming_style,
)

__all__ = ["engine_run"]


def engine_run(emulator, distribution, *, iterations=None, io_mode="auto",
               iteration_offset=0) -> RunResult:
    """``emulator``'s run of ``distribution`` on the event engine.

    ``emulator`` is a :class:`~repro.sim.ClusterEmulator` or a
    :class:`~repro.twod.TwoDEmulator`; the keywords mean what they mean
    to its ``run``.  A 2-D run's seconds are the result's
    ``total_seconds``.
    """
    instrumented, io_override = _resolve_io_mode(io_mode)
    workload = emulator.workload
    # The 2-D kernel has one streaming style; its tapes ignore it.
    prefetch = (
        _streaming_style(workload, io_override)
        if hasattr(workload, "prefetch") else False
    )
    return emulator._engine_run(
        distribution, _iterations(workload, iterations),
        instrumented=instrumented, prefetch=prefetch, offset=iteration_offset,
    )
