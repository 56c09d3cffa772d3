"""Compiled emulation plans: replay the emulator from per-rank op tapes.

The event engine (:func:`repro.sim.executor._run_tapes`) interprets
each rank's op tape event by event, and pays heap pushes and pops
for its delays and wake-ups and a scalar noise draw per stage
execution.
For a fixed ``(cluster, program, perturbation)`` and streaming
style nothing a rank does depends on timing: it is a function of its
row block alone.  An :class:`EmulationPlan` keeps each rank's tape once
lowered and *walks* tapes with the engine's exact arithmetic.

Lowering
    A plan serves one emulator configuration and asks that emulator
    for its tapes, their keys and its noise streams, so 1-D programs
    and 2-D Jacobi share the walk, the self-check and the tape LRU.  A
    1-D tape is lowered per ``(rank, rows)`` — or per ``(rank, start,
    stop)`` when sparse row weights make absolute positions matter —
    by the emulator's one node program
    (:class:`repro.sim.executor._Lowering`), the same lowering whose
    tapes the event engine interprets.  A 2-D tape is lowered per
    ``(rank, rows, cols)`` by :class:`repro.twod.jacobi2d._Lowering2D`,
    and a 2-D plan serves one grid shape, which fixes every rank's
    neighbours and so its comm skeleton.  The ops are ``cpu(d)``;
    ``io(d)``, a synchronous read or write against the rank's disk
    ``free_at``; ``prefetch_issue(d)`` / ``prefetch_wait``;
    ``compute(base, draw, b, rows)``, one block's share of the
    ``draw``-th stage execution of the iteration, whose noise-free cost
    is ``base``; ``send`` / ``recv`` on iteration-relative message
    channels; and ``end``.  Tapes are *factor-free*: no noise,
    background load or cluster dynamics is folded into a duration, so
    one tape serves every perturbation draw, dynamics scenario and
    offset.  A plan is compiled per streaming style (``io_mode``
    ``"sync"`` or ``"prefetch"``, or the program's own).  Without an
    iteration profile (every 2-D rank) only a rank's first iteration is
    lowered op by op: each later one repeats its ops with the disk ops
    served again, in order, so page-cache warmth advances as it would.
    The lowering stops after three iterations once the last two are
    equal and every disk stream the last one touched was already warm
    when it began: from then on every iteration repeats it, so the
    tape stores the iterations up to the repeating one and serves runs
    of any length.  Otherwise it covers every iteration the run needs.
    A replay lowers every rank its LRU misses in one call (one
    placement pass) and reads each fresh tape's op list, as its
    lowering built it, for the skeleton check and the walk.  A tape is
    packed (21 B/op) once, when the plan keeps it in its LRU; a replay
    that hits a kept tape unpacks it once.  Engine runs never pack.

Replay
    One walk serves every run: per iteration, ranks advance through
    their tapes round-robin until each is blocked on an undelivered
    message or done, with per-rank clock, disk ``free_at`` and pending
    prefetch.  Each op repeats the engine's IEEE-double operations in
    the engine's order — ``now + ((max(now, free_at) + d * slow) -
    now)`` for synchronous I/O, ``(total * b) / rows`` for compute
    shares with ``total = (((base * noise) * background) * dynamics)``,
    ``max(now, deliver)`` for receives, every non-positive delay
    skipped — so replayed iteration ends are *bit-identical* to the
    engine's.  None of the factors depends on timing: noise and
    background load are per-rank RNG streams drawn once per stage
    execution in program order, drawn here as one vector per rank
    (:meth:`~repro.sim.perturbation.PerturbationModel.noise_factors`,
    :meth:`~repro.sim.perturbation.PerturbationModel.background_factors`);
    ``dynamics = 1 / (cpu_factor * (1 - load))`` and ``slow = 1 /
    disk_factor`` come per (rank, global iteration) from
    :meth:`~repro.cluster.dynamics.DynamicsSpec.compile`.  An absent
    factor is 1.0, and multiplying by 1.0 is exact.  A segment at
    ``offset`` replays its tapes from iteration 0 — the engine, too,
    starts each segment cold on the same noise streams — with the factor
    columns of global iterations ``[offset, offset + n)``.

Routes
    One router, :meth:`repro.sim.executor._Emulator._route`, serves
    :meth:`~repro.sim.executor.ClusterEmulator.run`, every
    :func:`~repro.sim.executor.emulate_many` candidate and
    :meth:`repro.twod.jacobi2d.TwoDEmulator.run`.  It replays
    stationary deterministic runs over the probe window of
    :data:`~repro.sim.steady.FAST_FORWARD_POLICY` (then
    :func:`~repro.sim.steady.steady_deltas` and the closed-form
    extrapolation), and every other run — noisy, background-loaded,
    dynamic, offset, ``io_mode``-overridden or no longer than the
    probe — in full.  Only observed, instrumented and (1-D)
    iteration-profile runs take the engine.

Safety
    The first candidate a plan sees is lowered for the longer of the
    probe window and its own run, and walked once under that run's own
    factors, dynamics and offset.  The walk's probe-window ends are
    compared *for exact equality* with the event engine
    (:func:`~repro.sim.executor._run_tapes`) interpreting the same
    tapes over the probe window — the walk's vector factor path
    against the engine's scalar draws, and the walk's round-robin
    arithmetic against the engine's heap of events — so the replay is
    checked in production too; the run's answer is the first ``n_iter``
    ends of that one walk.  That is sound because the walk is causal:
    an iteration's ends depend only on earlier iterations, and every
    factor vector and dynamics column is a prefix-stable draw, so the
    first ``k`` ends of a longer walk equal a ``k``-iteration walk.
    Any mismatch, or any broken assumption later (a message channel or
    comm skeleton that differs between candidates, a deadlocked walk),
    retires the plan for good and the engine serves every later run.
    The engine itself is checked, records included, against the generator
    engine it replaced (``tests/emulator_reference.py``) by the test
    suite's differential harness.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.plan import compile_timer
from repro.sim.executor import (
    _COMPUTE,
    _CPU,
    _END,
    _IO,
    _PF_ISSUE,
    _PF_WAIT,
    _RECV,
    _SEND,
    _streaming_style,
    _run_tapes,
    _Tape,
)
from repro.sim.steady import FAST_FORWARD_POLICY
from repro.util.lru import LRUCache

__all__ = [
    "EmulationPlan",
    "emulation_plan_key",
    "get_emulation_plan",
]

#: Tapes kept per plan (one per (rank, rows) seen), least recently
#: used evicted first.
TAPE_CACHE_ENTRIES = 256


class _PlanUnsupported(Exception):
    """Raised internally when a structural assumption breaks; the plan
    is retired and the engine handles the run."""


# -- keys and the shared plan LRU ---------------------------------------------


def emulation_plan_key(cluster, program, perturbation,
                       prefetch: Optional[bool] = None) -> str:
    """Content key of one emulation plan in the shared plan LRU."""
    from repro.sim.executor import ClusterEmulator

    emulator = ClusterEmulator(cluster, program, perturbation, dynamics=False)
    return emulator._plan_key(_streaming_style(program, prefetch))


def get_emulation_plan(cluster, program, perturbation,
                       prefetch: Optional[bool] = None,
                       telemetry=None) -> "EmulationPlan":
    """The process-wide :class:`EmulationPlan` for the configuration
    and streaming style (``None``: the program's own), compiled on
    first use and cached in the shared plan LRU
    (:mod:`repro.core.plan`) — the plan the emulator's own runs use."""
    from repro.sim.executor import ClusterEmulator

    emulator = ClusterEmulator(cluster, program, perturbation, dynamics=False)
    return emulator._emulation_plan(
        None, _streaming_style(program, prefetch), telemetry
    )


def _skeleton(iterations: List[List[tuple]]) -> tuple:
    """The channels of one iteration's communication ops, in order
    (all of a tape's stored ``iterations`` must agree)."""
    sigs = {
        tuple(op[:2] for op in ops if op[0] >= _SEND) for ops in iterations
    }
    if len(sigs) != 1:
        raise _PlanUnsupported("comm skeleton varies across iterations")
    return sigs.pop()


# -- the plan -----------------------------------------------------------------


class EmulationPlan:
    """One compiled tape replayer for ``emulator``'s configuration
    (without dynamics: runs bring their own) and one streaming style;
    see the module docstring.

    The plan asks the emulator it serves for what differs between
    workloads: ``_tape_key(rank, distribution)``, what a rank's tape
    depends on; ``_lower_tapes(ranks, distribution, n_iter, prefetch,
    channel)``, the ranks' tapes; and ``_sampler(rank, distribution)``,
    a rank's noise and background-load streams.  The walk, the engine
    self-check and the tape LRU are shared.

    The constructor is cheap: channel discovery and the engine
    self-check happen lazily on the first :meth:`replay` (they need a
    concrete candidate to lower).
    """

    def __init__(self, emulator, prefetch: bool = False) -> None:
        self.emulator = emulator
        self.prefetch = prefetch
        perturbation = emulator.perturbation
        # Which per-stage-execution factors a replay draws.
        self._noisy = bool(perturbation.compute_noise)
        self._loaded = perturbation.background_load > 0.0
        #: Why the plan retired itself, or ``None`` while it is live.
        self.dead: Optional[str] = None
        self._lock = threading.RLock()
        self._compiled = False
        self._tapes = LRUCache(TAPE_CACHE_ENTRIES, threadsafe=True)
        #: (src, dst, iteration-relative tag) -> channel id; filled
        #: while compiling, read-only afterwards.
        self._channels: Dict[tuple, int] = {}
        self._skeleton: List[tuple] = []
        # Diagnostics.
        self.replays = 0
        self.tape_hits = 0
        self.tape_misses = 0
        self.repeating_tapes = 0
        self.full_tapes = 0

    # -- public API -----------------------------------------------------------

    @property
    def probe_iterations(self) -> int:
        return FAST_FORWARD_POLICY.probe_iterations

    def replay(self, distribution, n_iter: int, dynamics=None,
               offset: int = 0, *, telemetry=None,
               ) -> Optional[List[List[float]]]:
        """``[node][iteration]`` completion times of ``n_iter``
        iterations starting at global iteration ``offset`` under
        ``dynamics`` (a :class:`~repro.cluster.dynamics.DynamicsSpec`
        or ``None``), bit-identical to the event engine, or ``None``
        when the plan cannot serve the candidate (tapes: :meth:`_fetch`).
        The first replay compiles the plan, timed by
        :func:`repro.core.plan.compile_timer` (``telemetry``: under
        ``span/plan/compile``)."""
        if self.dead is not None:
            return None
        if not self._compiled:
            with self._lock:
                if not self._compiled and self.dead is None:
                    try:
                        with compile_timer(telemetry):
                            ends = self._compile(
                                distribution, n_iter, dynamics, offset
                            )
                    except _PlanUnsupported as exc:
                        self.dead = str(exc)
                        ends = None
                    self._compiled = True
                    if ends is not None:
                        self.replays += 1
                    return ends
        if self.dead is not None:
            return None
        P = self.emulator.cluster.n_nodes
        timeline = dynamics.compile(P, n_iter, offset) if dynamics else None
        try:
            tapes, iterations = self._fetch(distribution, n_iter)
            ends = self._walk(
                tapes, iterations, n_iter,
                *self._factors(distribution, tapes, n_iter, timeline),
            )
        except _PlanUnsupported as exc:
            self.dead = str(exc)
            return None
        self.replays += 1
        return ends

    @property
    def stats(self) -> dict:
        return {
            "dead": self.dead or "",
            "replays": self.replays,
            "tapes": len(self._tapes),
            "tape_hits": self.tape_hits,
            "tape_misses": self.tape_misses,
            "repeating_tapes": self.repeating_tapes,
            "full_tapes": self.full_tapes,
            "channels": len(self._channels),
        }

    # -- lowering -------------------------------------------------------------

    def _tape_key(self, rank: int, distribution) -> tuple:
        return self.emulator._tape_key(rank, distribution)

    def _fetch(self, distribution, n_iter: int) -> tuple:
        """Every rank's tape covering ``n_iter`` iterations, and each
        tape's iterations as op tuples: kept tapes from the LRU,
        unpacked once; the misses lowered in one call, read from their
        lowering's list, checked against the skeleton, then packed into
        the LRU."""
        P = self.emulator.cluster.n_nodes
        keys = [self._tape_key(rank, distribution) for rank in range(P)]
        tapes = [self._tapes.get(key) for key in keys]
        misses = [
            rank for rank, tape in enumerate(tapes)
            if tape is None or not tape.covers(n_iter)
        ]
        self.tape_hits += P - len(misses)
        self.tape_misses += len(misses)
        lowered = self._lower(misses, distribution, n_iter) if misses else ()
        for rank, tape in zip(misses, lowered):
            tapes[rank] = tape
        iterations = [tape.iterations() for tape in tapes]
        for rank in misses:
            if _skeleton(iterations[rank]) != self._skeleton[rank]:
                raise _PlanUnsupported(f"rank {rank} comm skeleton changed")
            self._keep(keys[rank], tapes[rank])
        return tapes, iterations

    def _keep(self, key: tuple, tape: _Tape) -> None:
        """Put ``tape`` in the LRU, packed: its only packing."""
        tape.pack()
        self._tapes.put(key, tape)

    def _channel(self, key: tuple) -> int:
        chan = self._channels.get(key)
        if chan is None:
            if self._compiled:
                raise _PlanUnsupported(f"unknown message channel {key}")
            chan = self._channels[key] = len(self._channels)
        return chan

    def _lower(self, ranks, distribution, n_iter: int) -> List[_Tape]:
        """The ranks' tapes of ``n_iter`` iterations (fewer once an
        iteration repeats) in the plan's streaming style."""
        tapes = self.emulator._lower_tapes(
            ranks, distribution, n_iter, self.prefetch, self._channel
        )
        for tape in tapes:
            if tape.repeats:
                self.repeating_tapes += 1
            else:
                self.full_tapes += 1
        return tapes

    # -- compilation ----------------------------------------------------------

    def _compile(self, distribution, n_iter: int, dynamics,
                 offset: int) -> List[List[float]]:
        """Serve the first run: discover the channels and comm skeleton
        from its tapes, lowered for ``m = max(probe, n_iter)``
        iterations, and walk them once under the run's own factors,
        dynamics and offset.  The walk's first ``probe`` iteration ends
        are self-checked against the event engine interpreting the same
        tapes over the probe window, for exact equality; the first
        ``n_iter`` ends are the run's."""
        P = self.emulator.cluster.n_nodes
        probe = self.probe_iterations
        m = max(probe, n_iter)
        tapes = self._lower(range(P), distribution, m)
        iterations = [tape.iterations() for tape in tapes]
        self._skeleton = [_skeleton(its) for its in iterations]
        timeline = dynamics.compile(P, m, offset) if dynamics else None
        ends = self._walk(
            tapes, iterations, m,
            *self._factors(distribution, tapes, m, timeline),
        )
        samplers = [
            self.emulator._sampler(rank, distribution) for rank in range(P)
        ]
        if dynamics and m != probe:
            timeline = dynamics.compile(P, probe, offset)
        _, engine_ends = _run_tapes(
            tapes, iterations, probe, offset, samplers, timeline
        )
        if [e[:probe] for e in ends] != engine_ends:
            raise _PlanUnsupported("self-check: replay differs from the engine")
        for rank, tape in enumerate(tapes):
            self._keep(self._tape_key(rank, distribution), tape)
        return [e[:n_iter] for e in ends]

    # -- replay ---------------------------------------------------------------

    def _factors(self, distribution, tapes: List[_Tape], n_iter: int,
                 timeline) -> Tuple[List[List[float]], Optional[List[List[float]]]]:
        """``(totals, slowdowns)`` of ``n_iter`` iterations: each
        rank's perturbed stage-execution seconds, ``(((base * noise) *
        background) * dynamics)`` in the engine's order, iteration-major,
        and its per-iteration disk slowdowns (``None`` without
        ``timeline``).  Noise and background load are drawn from the
        streams the rank's engine run would draw them from."""
        compute = timeline.compute_multipliers() if timeline is not None else None
        steps = np.arange(n_iter)
        totals = []
        for rank, tape in enumerate(tapes):
            bases = tape.bases
            t = bases[np.minimum(steps, len(bases) - 1)]
            if self._noisy or self._loaded:
                model = self.emulator._sampler(rank, distribution)
                if self._noisy:
                    t = t * model.noise_factors(t.size).reshape(t.shape)
                if self._loaded:
                    t = t * model.background_factors(t.size).reshape(t.shape)
            if compute is not None:
                t = t * compute[rank][:, None]
            totals.append(t.ravel().tolist())
        if timeline is None:
            return totals, None
        return totals, timeline.disk_slowdowns().tolist()

    def _walk(self, tapes: List[_Tape], iters: List[List[List[tuple]]],
              n_iter: int, totals: List[List[float]],
              slowdowns: Optional[List[List[float]]]) -> List[List[float]]:
        """Replay ``n_iter`` iterations of ``tapes`` (``iters``: their
        iterations as op tuples); see the module docstring for the
        arithmetic each op repeats."""
        P = len(tapes)
        last = [len(its) - 1 for its in iters]
        draws = [tape.draws for tape in tapes]
        n_chan = len(self._channels)
        clock = [0.0] * P
        free = [0.0] * P
        pend = [0.0] * P
        ends: List[List[float]] = [[] for _ in range(P)]
        for it in range(n_iter):
            ops_of = [its[min(it, m)] for its, m in zip(iters, last)]
            deliver: List[Optional[float]] = [None] * n_chan
            pos = [0] * P
            live = P
            while live:
                moved = False
                for r in range(P):
                    i = pos[r]
                    if i < 0:
                        continue
                    ops = ops_of[r]
                    now, fa, pf = clock[r], free[r], pend[r]
                    tot = totals[r]
                    off = it * draws[r]
                    sd = slowdowns[r][it] if slowdowns is not None else 1.0
                    start = i
                    while True:
                        kind, arg, x, b, rows = ops[i]
                        if kind == _CPU:
                            now = now + x
                        elif kind == _COMPUTE:
                            d = (tot[off + arg] * b) / rows
                            if d > 0.0:
                                now = now + d
                        elif kind == _IO:
                            # max(now, fa), as the disk model takes it.
                            fa = (fa if fa > now else now) + x * sd
                            d = fa - now
                            if d > 0.0:
                                now = now + d
                        elif kind == _PF_ISSUE:
                            fa = (fa if fa > now else now) + x * sd
                            pf = fa
                        elif kind == _PF_WAIT:
                            if pf > now:
                                now = now + (pf - now)
                        elif kind == _SEND:
                            deliver[arg] = now + x
                        elif kind == _RECV:
                            dv = deliver[arg]
                            if dv is None:
                                break  # blocked: another rank first
                            if dv > now:
                                now = dv
                        else:  # _END
                            ends[r].append(now)
                            live -= 1
                            i = -1
                            break
                        i += 1
                    if i != start:
                        moved = True
                    pos[r] = i
                    clock[r], free[r], pend[r] = now, fa, pf
                if not moved:
                    raise _PlanUnsupported("tape walk deadlocked")
        return ends
