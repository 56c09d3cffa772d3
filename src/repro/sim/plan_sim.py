"""Compiled emulation plans: replay the emulator from per-rank op tapes.

The event-engine emulator re-interprets the program structure — section
loops, tile bounds, disk block streaming, message tags — on every run,
and pays a heap push, a generator resume and a request dispatch per
event.  For a fixed ``(cluster, program, perturbation, policy)`` none of
that depends on timing: what one rank does is a function of its row
block alone.  An :class:`EmulationPlan` records it once as an **op
tape** and replays tapes with the engine's exact arithmetic.

Lowering
    A tape is recorded per ``(rank, rows)`` — or per ``(rank, start,
    stop)`` when sparse row weights make absolute positions matter — by
    driving the *real* node generator standalone with a recording node
    context (:class:`_TapeRecorder`): its primitives append ops instead
    of yielding engine requests.  The ops are ``cpu(d)``; ``io(d)``, a
    synchronous read or write against the rank's disk ``free_at``;
    ``prefetch_issue(d)`` / ``prefetch_wait``; ``compute(base, draw, b,
    rows)``, one block's share of the ``draw``-th stage execution of the
    iteration, whose noise-free cost is ``base``; and ``send`` /
    ``recv`` on iteration-relative message channels, and ``end``.
    Tapes are *factor-free*: no noise, background load or cluster
    dynamics is folded into a duration, so one tape serves every
    perturbation draw, dynamics scenario and offset.  The drive stops
    after three iterations once the last two have equal tapes and every
    disk stream the last one touched was already warm when it began:
    from then on every iteration repeats it, so the tape stores the
    iterations up to the repeating one and serves runs of any length.
    Otherwise the drive covers every iteration the run needs.

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
    :meth:`repro.sim.executor.ClusterEmulator.run` replays stationary
    deterministic runs over the probe window (then
    :func:`~repro.sim.steady.steady_deltas` and the closed-form
    extrapolation), and every other run — noisy, background-loaded,
    dynamic, offset or no longer than the probe — in full.  Only
    observed, instrumented, iteration-profile and ``io_mode``-override
    runs take the engine.

Safety
    The first candidate a plan sees is replayed over the probe window
    and compared *for exact equality* with a real engine probe run
    under that first run's own factors and offset, so the factor
    arithmetic is checked in production too.  Any mismatch, or any
    broken assumption later (a message channel or comm skeleton that
    differs between candidates, a stage-execution count that varies
    across iterations, a deadlocked walk), retires the plan for good
    and the engine serves every later run.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.sim.engine import Recv, Send
from repro.sim.executor import PREFETCH_ISSUE_OVERHEAD, _NodeCtx
from repro.sim.steady import FastForwardPolicy
from repro.util.lru import LRUCache

__all__ = [
    "EmulationPlan",
    "emulation_plan_key",
    "get_emulation_plan",
]

#: Tape op kinds.  Every op is ``(kind, arg, x, b, rows)``: ``arg`` is
#: a channel id (send/recv) or a per-iteration draw index (compute),
#: ``x`` a duration, noise-free compute cost or transfer time, and
#: ``b``/``rows`` a compute share's block and tile row counts.
_CPU, _IO, _PF_ISSUE, _PF_WAIT, _COMPUTE, _SEND, _RECV, _END = range(8)

#: Packed storage of a tape: 21 bytes per op.
_OP_DTYPE = np.dtype(
    [("kind", "i1"), ("arg", "i4"), ("x", "f8"), ("b", "i4"), ("rows", "i4")]
)

#: Tapes kept per plan (one per (rank, rows) seen), least recently
#: used evicted first.
TAPE_CACHE_ENTRIES = 256

#: Iterations a drive must record before it may stop at a repeating
#: iteration (one cold pass plus two comparable warm iterations).
_SHORTCUT_DRIVEN = 3


class _PlanUnsupported(Exception):
    """Raised internally when a structural assumption breaks; the plan
    is retired and the engine handles the run."""


class _Repeating(Exception):
    """Stops a drive: the tape's last iteration repeats from now on."""


# -- keys and the shared plan LRU ---------------------------------------------


def emulation_plan_key(cluster, program, perturbation,
                       policy: FastForwardPolicy) -> str:
    """Content key of one emulation plan in the shared plan LRU."""
    from repro.parallel.cache import content_key

    return "emulate:" + content_key(cluster, program, perturbation, policy)


def get_emulation_plan(cluster, program, perturbation,
                       policy: FastForwardPolicy,
                       telemetry=None) -> "EmulationPlan":
    """The process-wide :class:`EmulationPlan` for the configuration,
    compiled on first use and cached in the shared plan LRU
    (:mod:`repro.core.plan`)."""
    from repro.core.plan import get_plan

    return get_plan(
        key=emulation_plan_key(cluster, program, perturbation, policy),
        factory=lambda: EmulationPlan(cluster, program, perturbation, policy),
        telemetry=telemetry,
    )


# -- tapes --------------------------------------------------------------------


class _Tape:
    """One rank's recorded ops, iteration by iteration.

    ``bounds[i]:bounds[i + 1]`` delimits stored iteration ``i``; when
    ``repeats`` is true the last stored iteration stands for every
    later one, otherwise the tape covers exactly the stored ones.
    """

    __slots__ = ("ops", "bounds", "repeats", "draws", "_bases")

    def __init__(self, ops: list, bounds: List[int], repeats: bool,
                 draws: int) -> None:
        self.ops = np.array(ops, dtype=_OP_DTYPE)
        self.bounds = tuple(bounds)
        self.repeats = repeats
        #: Stage executions (noise draws) per iteration, K.
        self.draws = draws
        self._bases: Optional[np.ndarray] = None

    def covers(self, n_iter: int) -> bool:
        return self.repeats or len(self.bounds) - 1 >= n_iter

    def bases(self) -> np.ndarray:
        """``(stored iterations, K)`` noise-free cost of each stage
        execution (0.0 where it recorded no compute share)."""
        if self._bases is None:
            ops = self.ops
            n_stored = len(self.bounds) - 1
            iteration = np.repeat(np.arange(n_stored), np.diff(self.bounds))
            compute = ops["kind"] == _COMPUTE
            bases = np.zeros((n_stored, self.draws))
            bases[iteration[compute], ops["arg"][compute]] = ops["x"][compute]
            self._bases = bases
        return self._bases

    def iterations(self) -> List[List[tuple]]:
        """The stored iterations as lists of op tuples (walk form)."""
        ops = self.ops
        rows = list(zip(
            ops["kind"].tolist(), ops["arg"].tolist(), ops["x"].tolist(),
            ops["b"].tolist(), ops["rows"].tolist(),
        ))
        b = self.bounds
        return [rows[b[i] : b[i + 1]] for i in range(len(b) - 1)]

    def skeleton(self) -> tuple:
        """The communication ops of one iteration (all stored
        iterations must agree)."""
        sigs = {
            tuple(op[:3] for op in ops if op[0] >= _SEND)
            for ops in self.iterations()
        }
        if len(sigs) != 1:
            raise _PlanUnsupported("comm skeleton varies across iterations")
        return sigs.pop()


class _TapeRecorder(_NodeCtx):
    """A node context that records a tape instead of simulating.

    Its primitives are plain functions returning an empty tuple, so the
    node generator's ``yield from ctx.cpu(...)`` and friends yield
    nothing: the only requests that reach the recording loop are the
    sends and receives of :meth:`_NodeCtx.send_msg` /
    :meth:`_NodeCtx.recv_msg`.
    """

    __slots__ = (
        "owner", "ops", "bounds", "draws", "draws_per_it",
        "it", "stream_state", "may_stop", "repeats",
    )

    def begin(self, owner: "EmulationPlan", may_stop: bool) -> None:
        self.owner = owner
        self.ops: list = []
        self.bounds = [0]
        self.draws = 0
        self.draws_per_it: Optional[int] = None
        self.it = 0
        self.stream_state = self.disk.stream_state()
        self.may_stop = may_stop
        self.repeats = False

    def tape(self) -> _Tape:
        return _Tape(self.ops, self.bounds, self.repeats,
                     self.draws_per_it or 0)

    # -- recorded primitives --------------------------------------------------

    def cpu(self, seconds):
        if seconds > 0.0:
            self.ops.append((_CPU, 0, seconds, 0, 0))
        return ()

    def sync_read(self, var, nbytes, it, section, tile, stage, rows=0):
        self.ops.append((_IO, 0, self.disk.read_service(var, nbytes)[0], 0, 0))
        return ()

    def sync_write(self, var, nbytes, it, section, tile, stage, rows=0):
        self.ops.append((_IO, 0, self.disk.write_service(nbytes), 0, 0))
        return ()

    def prefetch_issue(self, var, nbytes, it, section, tile, stage, rows):
        self.cpu(PREFETCH_ISSUE_OVERHEAD)
        self.ops.append(
            (_PF_ISSUE, 0, self.disk.read_service(var, nbytes)[0], 0, 0)
        )
        return ()

    def prefetch_wait(self, done, var, nbytes, it, section, tile, stage, rows):
        self.ops.append((_PF_WAIT, 0, 0.0, 0, 0))
        return ()

    def stage_seconds(self, base):
        self.draws += 1
        return base, self.draws - 1

    def compute(self, total, it, section, tile, stage, rows=1, of=1):
        base, draw = total
        if base > 0.0:
            first = self.it * (self.draws_per_it or 0)
            self.ops.append((_COMPUTE, draw - first, base, rows, of))
        return ()

    def message(self, req) -> None:
        """Record a send or receive on its iteration-relative channel
        (tags are ``f"{iteration}:{rest}"``)."""
        prefix, _, rest = req.tag.partition(":")
        if prefix != str(self.it):
            raise _PlanUnsupported(f"tag {req.tag!r} outside iteration {self.it}")
        if type(req) is Send:
            chan = self.owner._channel((self.rank, req.dst, rest))
            self.ops.append((_SEND, chan, req.transfer, 0, 0))
        elif type(req) is Recv:
            chan = self.owner._channel((req.src, self.rank, rest))
            self.ops.append((_RECV, chan, 0.0, 0, 0))
        else:
            raise _PlanUnsupported(
                f"unsupported request {type(req).__name__} from rank {self.rank}"
            )

    def end_iteration(self, it):
        self.ops.append((_END, 0, 0.0, 0, 0))
        self.bounds.append(len(self.ops))
        if self.draws_per_it is None:
            self.draws_per_it = self.draws
        elif self.draws != (self.it + 1) * self.draws_per_it:
            raise _PlanUnsupported("stage executions vary across iterations")
        before, after = self.stream_state, self.disk.stream_state()
        self.stream_state = after
        self.it += 1
        if not self.may_stop or self.it < _SHORTCUT_DRIVEN:
            return
        # Iteration it-1 repeats forever when every stream it touched
        # was warm before it began (durations depend on nothing else);
        # if it also equals iteration it-2, that one is the cycle.
        for name, (streamed, _warm) in after.items():
            old = before.get(name)
            if old is None or (streamed != old[0] and not old[1]):
                return
        b = self.bounds
        if self.ops[b[-3] : b[-2]] != self.ops[b[-2] : b[-1]]:
            return
        del self.ops[b[-2] :]
        b.pop()
        self.repeats = True
        raise _Repeating


# -- the plan -----------------------------------------------------------------


class EmulationPlan:
    """One compiled tape replayer for ``(cluster, program,
    perturbation, policy)``; see the module docstring for the lowering.

    The constructor is cheap: channel discovery and the engine
    self-check happen lazily on the first :meth:`replay` (they need a
    concrete candidate to drive).
    """

    def __init__(self, cluster, program, perturbation,
                 policy: FastForwardPolicy) -> None:
        self.cluster = cluster
        self.program = program
        self.perturbation = perturbation
        self.policy = policy
        # Which per-stage-execution factors a replay draws.
        self._noisy = bool(perturbation.compute_noise)
        self._loaded = perturbation.background_load > 0.0
        #: Why the plan retired itself, or ``None`` while it is live.
        self.dead: Optional[str] = None
        self._lock = threading.RLock()
        self._compiled = False
        self._emulator = None
        self._tapes = LRUCache(TAPE_CACHE_ENTRIES, threadsafe=True)
        # Absolute row positions only matter when the ground truth
        # weighs rows non-uniformly.
        self._position_dependent = bool(
            perturbation.sparse_weights and program.row_weights is not None
        )
        #: (src, dst, iteration-relative tag) -> channel id; filled
        #: while discovering, read-only afterwards.
        self._channels: Dict[tuple, int] = {}
        self._skeleton: List[tuple] = []
        # Diagnostics.
        self.replays = 0
        self.tape_hits = 0
        self.tape_misses = 0
        self.repeating_drives = 0
        self.full_drives = 0

    # -- public API -----------------------------------------------------------

    @property
    def probe_iterations(self) -> int:
        return self.policy.probe_iterations

    def replay(self, distribution, n_iter: int, dynamics=None,
               offset: int = 0) -> Optional[List[List[float]]]:
        """``[node][iteration]`` completion times of ``n_iter``
        iterations starting at global iteration ``offset`` under
        ``dynamics`` (a :class:`~repro.cluster.dynamics.DynamicsSpec`
        or ``None``), bit-identical to the event engine, or ``None``
        when the plan cannot serve the candidate."""
        if self.dead is not None:
            return None
        if not self._compiled:
            with self._lock:
                if not self._compiled and self.dead is None:
                    try:
                        self._compile(distribution, dynamics, offset)
                    except _PlanUnsupported as exc:
                        self.dead = str(exc)
                    self._compiled = True
        if self.dead is not None:
            return None
        P = self.cluster.n_nodes
        timeline = dynamics.compile(P, n_iter, offset) if dynamics else None
        try:
            tapes = [
                self._tape(rank, distribution, n_iter) for rank in range(P)
            ]
            ends = self._walk(
                tapes, n_iter, *self._factors(distribution, tapes, n_iter, timeline)
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
            "repeating_drives": self.repeating_drives,
            "full_drives": self.full_drives,
            "channels": len(self._channels),
        }

    # -- recording ------------------------------------------------------------

    def _make_emulator(self):
        if self._emulator is None:
            from repro.sim.executor import ClusterEmulator

            self._emulator = ClusterEmulator(
                self.cluster, self.program, self.perturbation, self.policy,
                dynamics=False,
            )
        return self._emulator

    def _tape_key(self, rank: int, distribution) -> tuple:
        start, stop = distribution.rows_of(rank)
        if self._position_dependent:
            return (rank, start, stop)
        return (rank, stop - start)

    def _tape(self, rank: int, distribution, n_iter: int) -> _Tape:
        key = self._tape_key(rank, distribution)
        tape = self._tapes.get(key)
        if tape is not None and tape.covers(n_iter):
            self.tape_hits += 1
            return tape
        self.tape_misses += 1
        tape = self._record(rank, distribution, n_iter)
        if tape.skeleton() != self._skeleton[rank]:
            raise _PlanUnsupported(f"rank {rank} comm skeleton changed")
        self._tapes.put(key, tape)
        return tape

    def _channel(self, key: tuple) -> int:
        chan = self._channels.get(key)
        if chan is None:
            if self._compiled:
                raise _PlanUnsupported(f"unknown message channel {key}")
            chan = self._channels[key] = len(self._channels)
        return chan

    def _record(self, rank: int, distribution, n_iter: int, plan=None) -> _Tape:
        """Drive one rank's node generator standalone for ``n_iter``
        iterations (fewer once an iteration repeats) into a tape."""
        emulator = self._make_emulator()
        rec = emulator._make_context(
            rank, distribution[rank], "", None, False, _TapeRecorder, plan
        )
        rec.begin(self, may_stop=n_iter > _SHORTCUT_DRIVEN)
        # The contexts argument of _node_process is unused by the body;
        # the generator only touches its own ctx and the distribution.
        gen = emulator._node_process(rec, None, distribution, n_iter, False)
        try:
            req = next(gen)
            while True:
                rec.message(req)
                req = gen.send(0.0)
        except StopIteration:
            self.full_drives += 1
        except _Repeating:
            self.repeating_drives += 1
        return rec.tape()

    # -- compilation ----------------------------------------------------------

    def _compile(self, distribution, dynamics, offset: int) -> None:
        """Discover the channels and comm skeleton from the first
        candidate, then self-check its replayed probe against a real
        engine probe, under the first run's own dynamics and offset,
        for exact equality."""
        P = self.cluster.n_nodes
        probe = self.probe_iterations
        emulator = self._make_emulator()
        plans = emulator._plans(range(P), distribution.counts, False)
        tapes = [self._record(r, distribution, probe, plans[r]) for r in range(P)]
        self._skeleton = [tape.skeleton() for tape in tapes]
        timeline = dynamics.compile(P, probe, offset) if dynamics else None
        ends = self._walk(
            tapes, probe, *self._factors(distribution, tapes, probe, timeline)
        )
        engine = emulator._simulate(
            distribution, None, False, probe, timeline=timeline, offset=offset
        )
        if ends != engine.iteration_ends:
            raise _PlanUnsupported("self-check: replay differs from the engine")
        for rank, tape in enumerate(tapes):
            self._tapes.put(self._tape_key(rank, distribution), tape)

    # -- replay ---------------------------------------------------------------

    def _factors(self, distribution, tapes: List[_Tape], n_iter: int,
                 timeline) -> Tuple[List[List[float]], Optional[List[List[float]]]]:
        """``(totals, slowdowns)`` of ``n_iter`` iterations: each
        rank's perturbed stage-execution seconds, ``(((base * noise) *
        background) * dynamics)`` in the engine's order, iteration-major,
        and its per-iteration disk slowdowns (``None`` without
        ``timeline``).  Noise and background load are drawn from the
        streams the rank's engine run would draw them from."""
        emulator = self._make_emulator()
        label = "x".join(map(str, distribution.counts))
        compute = timeline.compute_multipliers() if timeline is not None else None
        steps = np.arange(n_iter)
        totals = []
        for rank, tape in enumerate(tapes):
            bases = tape.bases()
            t = bases[np.minimum(steps, len(bases) - 1)]
            if self._noisy or self._loaded:
                model = emulator._perturbation_model(rank, label, False)
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

    def _walk(self, tapes: List[_Tape], n_iter: int, totals: List[List[float]],
              slowdowns: Optional[List[List[float]]]) -> List[List[float]]:
        """Replay ``n_iter`` iterations; see the module docstring for
        the arithmetic each op repeats."""
        P = len(tapes)
        iters = [tape.iterations() for tape in tapes]
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
