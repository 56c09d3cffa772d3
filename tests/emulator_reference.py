"""The generator event engine as the emulator's test oracle.

The library routes every emulated run itself
(:meth:`repro.sim.executor._Emulator._route`): the compiled plans serve
what they can, and the flat event loop
(:func:`repro.sim.executor._run_tapes`) runs the rest.  No caller can
ask for anything else.  The tests still need a reference both are
checked against: the generator engine (:mod:`tests.event_engine`)
running one process per rank (:func:`_interpret`).  Every plan-served
result equals it bit for bit (or, for an extrapolated deterministic
tail, within 1e-9), so does every flat-loop run, record stream
included, and the golden digests pin it.  :func:`engine_run` runs one
configuration on it, the way :mod:`tests.model_reference` keeps the
scalar models.

The lowering reuses a repeatable program's first iteration and only
re-serves its disk ops (:meth:`repro.sim.executor._TapeLowering.lower`);
:func:`lower_in_full` is its oracle, every iteration lowered through
``_iteration``.
"""

from __future__ import annotations

from typing import List

from repro.sim.executor import (
    _CPU,
    _COMPUTE,
    _END,
    _IO,
    _MIN_LOWERED,
    _OPEN,
    _PF_ISSUE,
    _PF_WAIT,
    _RECV,
    _SEND,
    RunResult,
    _iterations,
    _resolve_io_mode,
    _streaming_style,
    _Tape,
)
from repro.sim.trace import EventRecord, Op, observed_kinds
from tests.event_engine import Delay, Engine, Recv, Send

__all__ = ["engine_run", "lower_in_full", "run_tapes"]


def engine_run(emulator, distribution, *, iterations=None, io_mode="auto",
               iteration_offset=0, observer=None) -> RunResult:
    """``emulator``'s run of ``distribution`` on the generator engine.

    ``emulator`` is a :class:`~repro.sim.ClusterEmulator` or a
    :class:`~repro.twod.TwoDEmulator`; the keywords mean what they mean
    to its ``run``, and ``observer`` receives the run's records.  A
    2-D run's seconds are the result's ``total_seconds``.
    """
    instrumented, io_override = _resolve_io_mode(io_mode)
    workload = emulator.workload
    # The 2-D kernel has one streaming style; its tapes ignore it.
    prefetch = (
        _streaming_style(workload, io_override)
        if hasattr(workload, "prefetch") else False
    )
    n_iter = _iterations(workload, iterations)
    tapes, samplers, timeline = emulator._engine_inputs(
        distribution, n_iter, instrumented=instrumented, prefetch=prefetch,
        offset=iteration_offset, observe=observed_kinds(observer),
    )
    total, ends = run_tapes(
        tapes, [tape.iterations() for tape in tapes], n_iter,
        iteration_offset, samplers, timeline, observer,
    )
    return RunResult(
        total_seconds=total,
        per_node_seconds=[e[-1] for e in ends],
        iteration_ends=ends,
        distribution=distribution,
        iterations=n_iter,
    )


def run_tapes(tapes, iterations, n_iter, offset, samplers, timeline=None,
              observer=None):
    """:func:`repro.sim.executor._run_tapes` on the generator engine:
    one :func:`_interpret` process per rank."""
    engine = Engine()
    ends: List[List[float]] = [[] for _ in tapes]
    for rank, tape in enumerate(tapes):
        engine.add_process(
            _interpret(
                tape, iterations[rank], rank, n_iter, offset, samplers[rank],
                timeline, observer, ends[rank],
            ),
            node=rank,
        )
    # Dynamics multipliers are numpy scalars; totals are plain floats.
    return float(engine.run()), ends


def _interpret(tape: _Tape, iterations, rank: int, n_iter: int, offset: int,
               perturb, timeline, observer, ends):
    """The engine process of one rank: interpret its tape (stored
    ``iterations`` unpacked).

    Each stage execution's duration is ``base * noise * background``,
    times the iteration's dynamics multiplier, drawn through the scalar
    samplers in program order; a disk operation queues behind the
    rank's disk as :class:`~repro.sim.disk.DiskModel` schedules it.
    """
    last = len(iterations) - 1
    bases = tape.bases.tolist()
    noise, background = perturb.noise_factor, perturb.background_factor
    now = free = pending = 0.0
    dyn = slow = 1.0
    opened: List[float] = []
    for local in range(n_iter):
        it = local + offset
        if timeline is not None:
            dyn = timeline.compute_multiplier(rank, it)
            slow = timeline.disk_slowdown(rank, it)
        stored = min(local, last)
        totals = []
        for base in bases[stored]:
            seconds = base * noise() * background()
            if dyn != 1.0:
                seconds *= dyn
            totals.append(seconds)
        for kind, arg, x, b, rows in iterations[stored]:
            if kind == _CPU:
                now = float((yield Delay(x)))
            elif kind == _COMPUTE:
                seconds = totals[arg] * b / rows
                if seconds > 0.0:
                    now = float((yield Delay(seconds)))
            elif kind == _IO or kind == _PF_ISSUE:
                if slow != 1.0:
                    x *= slow
                free = max(now, free) + x
                if kind == _PF_ISSUE:
                    pending = free
                elif free - now > 0.0:
                    now = float((yield Delay(free - now)))
            elif kind == _PF_WAIT:
                if pending > now:
                    now = float((yield Delay(pending - now)))
            elif kind == _SEND:
                yield Send(b, (local, arg), transfer=x)
            elif kind == _RECV:
                now = float((yield Recv(b, (local, arg))))
            elif kind == _END:
                ends.append(now)
            elif kind == _OPEN:
                opened.append(now)
            else:  # _CLOSE
                op, section, tile, stage, var, nbytes, nrows = tape.records[arg]
                observer(EventRecord(
                    op, rank, it, section, tile, stage, var, opened.pop(),
                    now, nbytes, nrows,
                ))


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
        lowering._open(Op.ITERATION_END)
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
