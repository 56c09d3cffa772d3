"""The event engine as the emulator's test oracle.

The library routes every emulated run itself
(:meth:`repro.sim.executor._Emulator._route`): the compiled plans serve
what they can, and the event engine runs only the counted fallbacks.
No caller can ask for the engine.  The tests still need it: it is the
reference every plan-served result equals bit for bit (or, for an
extrapolated deterministic tail, within 1e-9), and what the golden
digests pin.  :func:`engine_run` runs one configuration on it, the way
:mod:`tests.model_reference` keeps the scalar models.

The lowering reuses a repeatable program's first iteration and only
re-serves its disk ops (:meth:`repro.sim.executor._TapeLowering.lower`);
:func:`lower_in_full` is its oracle, every iteration lowered through
``_iteration``.
"""

from __future__ import annotations

from repro.sim.executor import (
    _END,
    _MIN_LOWERED,
    RunResult,
    _iterations,
    _resolve_io_mode,
    _streaming_style,
    _Tape,
)
from repro.sim.trace import Op

__all__ = ["engine_run", "lower_in_full"]


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


def lower_in_full(lowering, n_iter: int, offset: int = 0) -> _Tape:
    """The tape of a fresh ``lowering`` (a ``_TapeLowering``) with every
    iteration lowered through its ``_iteration``, under the same repeat
    rule as :meth:`~repro.sim.executor._TapeLowering.lower`."""
    ops, bounds = lowering.ops, [0]
    may_stop = n_iter > _MIN_LOWERED and lowering.repeatable
    state = lowering.disk.stream_state()
    repeats = False
    for local in range(n_iter):
        lowering.bases.append([])
        lowering._iteration(local + offset)
        lowering._open()
        lowering._close(Op.ITERATION_END, "", 0, None, None)
        ops.append((_END, 0, 0.0, 0, 0))
        bounds.append(len(ops))
        before, state = state, lowering.disk.stream_state()
        if may_stop and local + 1 >= _MIN_LOWERED and lowering._repeating(
            before, state, bounds
        ):
            del ops[bounds[-2] :]
            bounds.pop()
            lowering.bases.pop()
            repeats = True
            break
    templates = lowering.templates
    records = tuple(templates) if templates is not None else ()
    return _Tape(ops, bounds, repeats, lowering.bases, records)
