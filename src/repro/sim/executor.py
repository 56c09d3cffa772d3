"""Execute a program under a distribution on an emulated cluster.

The node program is written once, as a *lowering*: :class:`_Lowering`
walks one rank's parallel sections iteration by iteration — tiles,
stages, the ICLA blocks that stream out-of-core variables through the
node's disk (synchronously or with one-block-ahead prefetching), and
the section's communication pattern (boundary exchange, pipeline,
binomial-tree allreduce, ring allgather) — and appends the rank's ops
to an op tape (:class:`_Tape`).  Two interpreters run tapes: the event
engine (:func:`_run_tapes`, one flat loop over a heap of rank
wake-ups), which serves observed and instrumented runs, the counted
fallbacks and the plans' self-check, and the compiled plans' walk
(:mod:`repro.sim.plan_sim`), the fast path.  The op primitives live in
:class:`_TapeLowering`, which the 2-D Jacobi emulator
(:mod:`repro.twod.jacobi2d`) lowers through as well, and the route
between the two interpreters in :class:`_Emulator`, which every
emulator's runs take.

The emulator is the reproduction's stand-in for the paper's real
cluster: its output is the "Actual" series of Figures 9-11.
"""

from __future__ import annotations

import dataclasses
import heapq
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.cluster.cluster import ClusterSpec
from repro.cluster.dynamics import DynamicsSpec, DynamicsTimeline
from repro.distribution.genblock import GenBlock
from repro.exceptions import SimulationError
from repro.placement import MemoryPlan, plan_memory_arrays
from repro.program.sections import CommPattern
from repro.program.stages import Stage
from repro.program.structure import ProgramStructure
from repro.sim.disk import DiskModel
from repro.sim.memory import emulator_policy
from repro.sim.perturbation import PerturbationConfig, PerturbationModel
from repro.sim.steady import (
    FAST_FORWARD_POLICY,
    extrapolate_ends,
    steady_deltas,
    supports_fast_forward,
)
from repro.sim.trace import (
    EventRecord,
    Observer,
    Op,
    PhaseAccumulator,
    chain_observers,
    observed_kinds,
)

__all__ = [
    "ClusterEmulator",
    "RunResult",
    "emulate",
    "emulate_many",
]

#: CPU cost of issuing one asynchronous read (system-call overhead).
PREFETCH_ISSUE_OVERHEAD = 20e-6

#: Valid ``io_mode`` values for the consolidated emulation API.
IO_MODES = ("auto", "sync", "prefetch", "instrumented")


def _resolve_io_mode(io_mode: str) -> Tuple[bool, Optional[bool]]:
    """``io_mode`` -> ``(instrumented, prefetch_override)``.

    * ``"auto"`` — follow the program (prefetch iff it was built with
      prefetching); the default.
    * ``"sync"`` / ``"prefetch"`` — force the streaming style of
      out-of-core stages regardless of how the program was built
      (compiled emulation plans are kept per style).
    * ``"instrumented"`` — the paper's measurement iteration: every
      distributed variable forced out of core, prefetches blocking.
    """
    if io_mode not in IO_MODES:
        raise SimulationError(
            f"unknown io_mode {io_mode!r}; choose from {IO_MODES}"
        )
    if io_mode == "instrumented":
        return True, None
    overrides = {"auto": None, "sync": False, "prefetch": True}
    return False, overrides[io_mode]


def _streaming_style(program: ProgramStructure,
                     io_override: Optional[bool]) -> bool:
    """Whether a run prefetches: the ``io_mode`` override, or the
    program's own style."""
    return bool(program.prefetch if io_override is None else io_override)


def _resolve_dynamics(
    cluster: ClusterSpec, dynamics
) -> Optional[DynamicsSpec]:
    """Effective dynamics for a run: an explicit spec wins, ``None``
    falls back to whatever is attached to the cluster, ``False`` forces
    the static path.  Empty (stationary) specs collapse to ``None``."""
    if dynamics is False:
        return None
    spec = cluster.dynamics if dynamics is None else dynamics
    return spec if spec else None


def _iterations(program: ProgramStructure, iterations: Optional[int]) -> int:
    """A run's iteration count: ``iterations``, or the program's own."""
    n_iter = iterations if iterations is not None else program.iterations
    if n_iter < 1:
        raise SimulationError(f"iterations must be >= 1, got {n_iter}")
    return n_iter


def _tile_bounds(start: int, stop: int, tiles: int, tile: int) -> Tuple[int, int]:
    """Rows of ``[start, stop)`` handled by ``tile`` (even partition)."""
    count = stop - start
    lo = start + (count * tile) // tiles
    hi = start + (count * (tile + 1)) // tiles
    return lo, hi


@dataclass
class RunResult:
    """Outcome of one emulated run."""

    total_seconds: float  #: wall time of the timed iterations, whole job
    per_node_seconds: List[float]  #: each node's own finish time
    iteration_ends: List[List[float]]  #: [node][iteration] completion time
    distribution: GenBlock
    iterations: int
    #: True when the tail of the run was extrapolated from a detected
    #: steady-state cycle instead of simulated event by event.
    fast_forwarded: bool = False

    def iteration_durations(self, node: int) -> List[float]:
        """Per-iteration durations for ``node``."""
        ends = self.iteration_ends[node]
        outs = []
        prev = 0.0
        for e in ends:
            outs.append(e - prev)
            prev = e
        return outs


# -- the op tape -----------------------------------------------------------------

#: Tape op kinds.  Every op is ``(kind, arg, x, b, rows)``:
#:
#: * ``cpu``: busy for ``x`` > 0 seconds;
#: * ``io``: a synchronous read or write, ``x`` seconds of service at
#:   nominal disk speed, queued behind the rank's disk;
#: * ``prefetch_issue`` / ``prefetch_wait``: an asynchronous read of ``x``
#:   seconds' service, and the wait for the latest one;
#: * ``compute``: ``b`` of the ``rows`` rows of the ``arg``-th stage
#:   execution of the iteration, whose noise-free cost is ``x``;
#: * ``send`` / ``recv``: a message on channel ``arg`` to / from rank
#:   ``b``, ``x`` its transfer time;
#: * ``end``: the iteration ends.
#:
#: Tapes lowered for an observed run also hold ``open`` (remember the
#: clock) and ``close`` (emit the tape's record template ``arg``,
#: from the remembered clock to now) markers around the ops of every
#: kind the observer reads; only the event engine (:func:`_run_tapes`)
#: reads them, and they never advance the clock.
_CPU, _IO, _PF_ISSUE, _PF_WAIT, _COMPUTE, _SEND, _RECV, _END, _OPEN, _CLOSE = range(10)

#: Packed storage of a kept tape (:meth:`_Tape.pack`): 21 bytes per op.
_OP_DTYPE = np.dtype(
    [("kind", "i1"), ("arg", "i4"), ("x", "f8"), ("b", "i4"), ("rows", "i4")]
)

#: Iterations a lowering must produce before it may stop at a
#: repeating iteration (one cold pass plus two comparable warm ones).
_MIN_LOWERED = 3


class _Tape:
    """One rank's lowered ops, iteration by iteration.

    ``bounds[i]:bounds[i + 1]`` delimits stored iteration ``i``; when
    ``repeats`` is true the last stored iteration stands for every
    later one, otherwise the tape covers exactly the stored ones.
    ``bases[i, k]`` is the noise-free cost of stage execution ``k`` of
    stored iteration ``i`` (0.0 where it has no compute share).

    ``ops`` is the list of op tuples its lowering built, which the
    interpreters read as is, until :meth:`pack` stores it packed
    (21 B/op): a compiled plan packs a tape once, when it keeps it,
    and no other tape is ever packed.
    """

    __slots__ = ("ops", "bounds", "repeats", "bases", "draws", "records")

    def __init__(self, ops: list, bounds: List[int], repeats: bool,
                 bases: List[List[float]], records: tuple = ()) -> None:
        self.ops = ops
        self.bounds = tuple(bounds)
        self.repeats = repeats
        self.bases = np.array(bases, dtype=float)
        #: Stage executions (noise draws) per iteration, K.
        self.draws = self.bases.shape[1]
        #: Record templates of the ``close`` markers (observed tapes).
        self.records = records

    def covers(self, n_iter: int) -> bool:
        return self.repeats or len(self.bounds) - 1 >= n_iter

    def pack(self) -> None:
        """Store the ops packed, dropping the list."""
        self.ops = np.array(self.ops, dtype=_OP_DTYPE)

    def iterations(self) -> List[List[tuple]]:
        """The stored iterations as lists of op tuples."""
        rows = self.ops
        if not isinstance(rows, list):
            rows = list(zip(
                rows["kind"].tolist(), rows["arg"].tolist(),
                rows["x"].tolist(), rows["b"].tolist(), rows["rows"].tolist(),
            ))
        b = self.bounds
        return [rows[b[i] : b[i + 1]] for i in range(len(b) - 1)]


# -- lowering: the node programs ---------------------------------------------------


class _TapeLowering:
    """Appends one rank's ops to a :class:`_Tape`.

    The op primitives, the binomial allreduce and the repeat rule are
    shared by every node program; a subclass lowers one iteration in
    :meth:`_iteration`.  Nothing here depends on timing: a read's
    duration follows from the bytes already streamed (page-cache
    warmth), and message channels from the communication pattern.
    """

    #: Whether two equal iterations may stand for every later one
    #: (not under an iteration profile).
    repeatable = True

    def __init__(self, rank: int, P: int, net, disk: DiskModel, channel,
                 observe) -> None:
        self.rank = rank
        self.P = P
        self.net = net
        self.disk = disk
        self.channel = channel
        self.ops: list = []
        #: Noise-free cost of each stage execution, per iteration.
        self.bases: List[List[float]] = []
        #: The op kinds whose records the run's observer reads; only
        #: those get ``open`` / ``close`` markers.
        self.observe = frozenset(observe)
        #: Record template -> index, on observed lowerings only.
        self.templates: Optional[dict] = {} if self.observe else None
        #: ``(op index, variable or None for a write, bytes)`` of the
        #: first iteration's disk ops, when :meth:`lower` reuses it.
        self._served: Optional[list] = None

    def lower(self, n_iter: int, offset: int) -> _Tape:
        """``n_iter`` iterations from global iteration ``offset`` —
        fewer once one repeats: after three iterations, when the last
        two are equal and every disk stream the last one touched was
        already warm when it began, every later iteration equals it
        (never for a program with an iteration profile).  Without a
        profile an iteration depends on history only through page-cache
        warmth, so only the first goes through :meth:`_iteration`; each
        later one repeats its ops with the disk ops served again."""
        ops, bounds = self.ops, [0]
        # Under an iteration profile two equal iterations say nothing
        # of the next one, so profiled programs lower every iteration.
        may_stop = n_iter > _MIN_LOWERED and self.repeatable
        state = self.disk.stream_state()
        repeats = False
        self._served = [] if self.repeatable else None
        for local in range(n_iter):
            if local and self._served is not None:
                self._repeat_first(bounds[1])
            else:
                self.bases.append([])
                self._iteration(local + offset)
                self._open(Op.ITERATION_END)
                self._close(Op.ITERATION_END, "", 0, None, None)
                ops.append((_END, 0, 0.0, 0, 0))
            bounds.append(len(ops))
            before, state = state, self.disk.stream_state()
            if may_stop and local + 1 >= _MIN_LOWERED and self._repeating(
                before, state, bounds
            ):
                del ops[bounds[-2] :]
                bounds.pop()
                self.bases.pop()
                repeats = True
                break
        records = tuple(self.templates) if self.templates is not None else ()
        return _Tape(ops, bounds, repeats, self.bases, records)

    def _iteration(self, it: int) -> None:
        """Lower global iteration ``it`` (without its ``end``)."""
        raise NotImplementedError

    def _repeat_first(self, stop: int) -> None:
        """Append the first iteration (``ops[:stop]``) again, each disk
        op's duration served anew in the order it was first served."""
        ops = self.ops
        start = len(ops)
        ops.extend(ops[:stop])
        for i, var, nbytes in self._served:
            ops[start + i] = (ops[i][0], 0, self._service(var, nbytes), 0, 0)
        self.bases.append(self.bases[0])

    def _repeating(self, before: dict, after: dict, bounds: List[int]) -> bool:
        """Does the last lowered iteration repeat forever?  Yes when
        every stream it touched was warm before it began (durations
        depend on nothing else) and it equals the one before."""
        for name, (streamed, _warm) in after.items():
            old = before.get(name)
            if old is None or (streamed != old[0] and not old[1]):
                return False
        ops, b = self.ops, bounds
        return ops[b[-3] : b[-2]] == ops[b[-2] : b[-1]]

    # -- primitives -------------------------------------------------------------

    def _open(self, op) -> None:
        if op in self.observe:
            self.ops.append((_OPEN, 0, 0.0, 0, 0))

    def _close(self, op, section, tile, stage, variable, nbytes=0.0, rows=0):
        if op in self.observe:
            key = (op, section, tile, stage, variable, nbytes, rows)
            index = self.templates.setdefault(key, len(self.templates))
            self.ops.append((_CLOSE, index, 0.0, 0, 0))

    def _cpu(self, seconds: float) -> None:
        if seconds > 0.0:
            self.ops.append((_CPU, 0, seconds, 0, 0))

    def _service(self, var, nbytes) -> float:
        """Service time of a read of ``nbytes`` of ``var``, or of a
        write when ``var`` is ``None``; a read advances its stream."""
        if var is None:
            return self.disk.write_service(nbytes)
        return self.disk.read_service(var, nbytes)[0]

    def _disk_op(self, kind, var, nbytes) -> None:
        if self._served is not None:
            self._served.append((len(self.ops), var, nbytes))
        self.ops.append((kind, 0, self._service(var, nbytes), 0, 0))

    def _read(self, var, nbytes, section, tile, stage, rows=0):
        self._open(Op.READ)
        self._disk_op(_IO, var, nbytes)
        self._close(Op.READ, section, tile, stage, var, nbytes, rows)

    def _write(self, var, nbytes, section, tile, stage, rows=0):
        self._open(Op.WRITE)
        self._disk_op(_IO, None, nbytes)
        self._close(Op.WRITE, section, tile, stage, var, nbytes, rows)

    def _compute(self, base, draw, section, tile, stage, rows=1, of=1):
        """``rows`` of the ``of`` rows of stage execution ``draw``."""
        self._open(Op.COMPUTE)
        if base > 0.0:
            self.ops.append((_COMPUTE, draw, base, rows, of))
        self._close(Op.COMPUTE, section, tile, stage, None)

    def _prefetch_issue(self, var, nbytes, section, tile, stage, rows):
        self._open(Op.PREFETCH_ISSUE)
        self._cpu(PREFETCH_ISSUE_OVERHEAD)
        self._disk_op(_PF_ISSUE, var, nbytes)
        self._close(Op.PREFETCH_ISSUE, section, tile, stage, var, nbytes, rows)

    def _prefetch_wait(self, var, nbytes, section, tile, stage, rows):
        self._open(Op.PREFETCH_WAIT)
        self.ops.append((_PF_WAIT, 0, 0.0, 0, 0))
        self._close(Op.PREFETCH_WAIT, section, tile, stage, var, nbytes, rows)

    def _send(self, dst, tag, nbytes, section, disk_source=None):
        # Materialise the message from disk when it lives in an
        # out-of-core array on this node (paper Section 4.2.2).
        if disk_source is not None:
            self._read(disk_source, nbytes, section, 0, None)
        self._open(Op.SEND)
        self._cpu(self.net.send_overhead)
        chan = self.channel((self.rank, dst, tag))
        self.ops.append((_SEND, chan, self.net.transfer_seconds(nbytes), dst, 0))
        self._close(Op.SEND, section, 0, None, None, nbytes)

    def _recv(self, src, tag, section):
        self._open(Op.RECV)
        self.ops.append((_RECV, self.channel((src, self.rank, tag)), 0.0, src, 0))
        self._cpu(self.net.recv_overhead)
        self._close(Op.RECV, section, 0, None, None)

    def _reduce_bcast(self, si, name, nbytes):
        """Binomial-tree reduce to node 0, binomial broadcast back."""
        rank, P = self.rank, self.P
        self._open(Op.COLLECTIVE)
        mask = 1
        while mask < P:
            if rank & mask:
                self._send(rank - mask, (si, "red", mask), nbytes, name)
                break
            if rank | mask < P:
                self._recv(rank | mask, (si, "red", mask), name)
            mask <<= 1
        mask = (1 << (P - 1).bit_length()) >> 1
        while mask > 0:
            if rank % (2 * mask) == 0:
                if rank + mask < P:
                    self._send(rank + mask, (si, "bc", mask), nbytes, name)
            elif rank % (2 * mask) == mask:
                self._recv(rank - mask, (si, "bc", mask), name)
            mask >>= 1
        self._close(Op.COLLECTIVE, name, 0, None, None, nbytes)


class _Lowering(_TapeLowering):
    """Lowers one rank's node program of a 1-D distribution.

    Each iteration walks the program's parallel sections: tiles, their
    stages, the ICLA blocks that stream out-of-core variables through
    the rank's disk (synchronously, or with the one-block-ahead
    prefetching of paper Figure 6), and the section's communication
    pattern.
    """

    def __init__(self, emulator: "ClusterEmulator", rank: int, start: int,
                 stop: int, memory: MemoryPlan, prefetch: bool, channel,
                 observe) -> None:
        program = emulator.program
        spec = emulator.cluster.nodes[rank]
        disk = DiskModel(
            spec,
            resident_bytes=memory.resident_bytes + program.replicated_bytes,
            cache_enabled=emulator.perturbation.os_read_cache,
        )
        for name, placement in memory.placements.items():
            if not placement.in_core:
                disk.register_variable(name, placement.ocla_bytes)
        super().__init__(
            rank, emulator.cluster.n_nodes, emulator.cluster.network, disk,
            channel, observe,
        )
        self.program = program
        self.repeatable = program.iteration_profile is None
        self.start, self.stop = start, stop
        self.spec = spec
        self.placements = memory.placements
        self.prefetch = prefetch
        self.sparse = bool(
            emulator.perturbation.sparse_weights and program.row_weights is not None
        )
        self.cache_factor = emulator._factor_model().compute_factor

    def _iteration(self, it: int) -> None:
        for si, section in enumerate(self.program.sections):
            self._section(it, si, section)

    # -- sections and communication patterns ---------------------------------

    def _section(self, it, si, section):
        pattern = section.comm.pattern
        rank, P, name = self.rank, self.P, section.name
        nbytes = section.comm.message_bytes
        if pattern is CommPattern.PIPELINE and P > 1:
            for tile in range(section.tiles):
                if rank > 0:
                    self._recv(rank - 1, (si, "pipe", tile), name)
                self._stages(it, section, tile)
                if rank < P - 1:
                    self._send(rank + 1, (si, "pipe", tile), nbytes, name)
            return
        for tile in range(section.tiles):
            self._stages(it, section, tile)
        if P == 1 or pattern in (CommPattern.NONE, CommPattern.PIPELINE):
            return
        if pattern is CommPattern.NEAREST_NEIGHBOR:
            self._nearest_neighbor(si, section)
        elif pattern is CommPattern.REDUCTION:
            self._reduce_bcast(si, name, nbytes)
        elif pattern is CommPattern.ALLGATHER:
            self._allgather(si, name, nbytes)
        else:  # pragma: no cover - exhaustiveness guard
            raise SimulationError(f"unknown pattern {pattern}")

    def _nearest_neighbor(self, si, section):
        rank, P = self.rank, self.P
        # Boundary rows come from disk when the section's source
        # variable is out of core on this node.
        disk_source = section.comm.source_variable
        if disk_source is not None and not self._out_of_core(disk_source):
            disk_source = None
        neighbors = [r for r in (rank - 1, rank + 1) if 0 <= r < P]
        for nb in neighbors:
            self._send(
                nb, (si, "nn"), section.comm.message_bytes, section.name,
                disk_source,
            )
        for nb in neighbors:
            self._recv(nb, (si, "nn"), section.name)

    def _allgather(self, si, name, nbytes):
        """Ring allgather: P-1 steps, passing a fixed chunk around."""
        rank, P = self.rank, self.P
        self._open(Op.COLLECTIVE)
        for step in range(P - 1):
            self._send((rank + 1) % P, (si, "ag", step), nbytes, name)
            self._recv((rank - 1) % P, (si, "ag", step), name)
        self._close(Op.COLLECTIVE, name, 0, None, None, nbytes)

    # -- stages -------------------------------------------------------------------

    def _out_of_core(self, name: str) -> bool:
        placement = self.placements.get(name)
        return placement is not None and not placement.in_core

    def _stages(self, it, section, tile):
        lo, hi = _tile_bounds(self.start, self.stop, section.tiles, tile)
        for stage in section.stages:
            self._stage(it, section.name, stage, tile, lo, hi)

    def _base_seconds(self, it, stage: Stage, lo: int, hi: int) -> float:
        """Noise-free ground-truth compute seconds (nominal times the
        deterministic cache factor) of one stage on rows ``[lo, hi)``
        during global iteration ``it``; the interpreters add the
        stochastic effects.

        The stage's ``fixed_work`` is an aggregate cost distributed with
        the global rows (a zero-row node does none of it), keeping all
        ground-truth work in the row-proportional regime MHETA models.
        """
        program = self.program
        weight = program.weight_of_rows(lo, hi) if self.sparse else float(hi - lo)
        row_fraction = (hi - lo) / program.n_rows
        work = stage.work_per_row * weight + stage.fixed_work * row_fraction
        if it < program.iterations:
            work *= program.iteration_multiplier(it)
        ws = float(program.replicated_bytes)
        for name in stage.touched:
            placement = self.placements.get(name)
            if placement is None:
                continue  # replicated, already counted
            ws += placement.local_bytes if placement.in_core else placement.icla_bytes
        return self.spec.compute_seconds(work) * self.cache_factor(self.spec, ws)

    def _stage(self, it, section, stage, tile, lo, hi):
        base = self._base_seconds(it, stage, lo, hi)
        draw = len(self.bases[-1])
        self.bases[-1].append(base if base > 0.0 else 0.0)
        reads_ooc = [v for v in stage.reads if self._out_of_core(v)]
        primary = reads_ooc[0] if reads_ooc else None
        tile_rows = hi - lo
        # Secondary out-of-core reads: streamed synchronously up front.
        for name in reads_ooc[1:]:
            self._stream(name, tile_rows, section, tile, stage.name, read=True)
        if primary is None or tile_rows == 0:
            self._compute(base, draw, section, tile, stage.name)
        else:
            write_back = (
                primary in stage.writes
                and self.program.variable_map[primary].writes_back
            )
            self._primary(
                primary, tile_rows, base, draw, write_back, section, tile,
                stage.name,
            )
        # Remaining out-of-core writes stream out after the compute
        # (the primary read-write variable was written back block by block).
        for name in stage.writes:
            if name != primary and self._out_of_core(name):
                self._stream(name, tile_rows, section, tile, stage.name, read=False)

    def _blocks(self, name: str, tile_rows: int) -> List[int]:
        """Row counts of the ICLA blocks streaming ``tile_rows`` of ``name``."""
        block_rows = self.placements[name].block_rows
        full, rest = divmod(tile_rows, block_rows)
        return [block_rows] * full + ([rest] if rest else [])

    def _stream(self, name, tile_rows, section, tile, stage, *, read: bool):
        """Synchronously read, or write, a variable's tile share block
        by block."""
        row_bytes = self.program.variable_map[name].row_bytes
        for rows in self._blocks(name, tile_rows):
            io = self._read if read else self._write
            io(name, rows * row_bytes, section, tile, stage, rows)

    def _primary(self, name, tile_rows, base, draw, write_back, section, tile,
                 stage):
        """Stream the primary variable, interleaving the stage's compute.

        Synchronous: read block, compute its share, write it back.
        Prefetching: the unrolled loop of paper Figure 6 — read block 1,
        then issue the next read asynchronously while computing on the
        current block.
        """
        row_bytes = self.program.variable_map[name].row_bytes
        blocks = self._blocks(name, tile_rows)
        where = (section, tile, stage)
        if not self.prefetch or len(blocks) == 1:
            for rows in blocks:
                self._read(name, rows * row_bytes, *where, rows)
                self._compute(base, draw, *where, rows, tile_rows)
                if write_back:
                    self._write(name, rows * row_bytes, *where, rows)
            return
        self._read(name, blocks[0] * row_bytes, *where, blocks[0])
        for prev, rows in zip(blocks, blocks[1:]):
            self._prefetch_issue(name, rows * row_bytes, *where, rows)
            # Overlapping computation on the previous block.
            self._compute(base, draw, *where, prev, tile_rows)
            self._prefetch_wait(name, rows * row_bytes, *where, rows)
            if write_back:
                self._write(name, prev * row_bytes, *where, prev)
        self._compute(base, draw, *where, blocks[-1], tile_rows)
        if write_back:
            self._write(name, blocks[-1] * row_bytes, *where, blocks[-1])


# -- the emulators ----------------------------------------------------------------


class _Emulator:
    """The route every emulator's runs take.

    :meth:`_route` serves one run.  A run the structure allows
    (:meth:`_plan_refusal`) goes to the configuration's compiled
    :class:`~repro.sim.plan_sim.EmulationPlan` (:meth:`_emulation_plan`,
    then :func:`_plan_route`); every other run, and any run the plan
    cannot serve, is interpreted by the event engine
    (:meth:`_engine_run`) and, with ``telemetry``, counted under
    ``<prefix>/fallback/<reason>``.  No caller selects the engine: it
    serves exactly the fallbacks, and the tests' engine oracle.

    A subclass says what its runs are made of, which is also what a
    compiled plan asks of the emulator it serves: ``_lower_tapes``,
    ``_tape_key`` and ``_sampler``, plus ``_plan_pin``, what one plan
    covers besides the configuration.
    """

    #: Prefix of the fallback counters.
    _prefix = "sim"
    #: Prefix of the plans' keys in the shared plan LRU.
    _plan_prefix = "emulate:"
    #: Whether an engine run feeds a :class:`PhaseAccumulator` and
    #: records the per-run ``sim/`` telemetry.
    _phase_telemetry = True

    def __init__(self, cluster: ClusterSpec, workload,
                 perturbation: Optional[PerturbationConfig],
                 dynamics) -> None:
        self.cluster = cluster
        #: What runs: a program, or a 2-D Jacobi spec.
        self.workload = workload
        self.perturbation = (
            perturbation if perturbation is not None else PerturbationConfig()
        )
        #: Effective time-varying behaviour: an explicit spec, the
        #: cluster's attached one, or ``None`` (static).  ``False``
        #: forces static even on a dynamic cluster.
        self.dynamics = _resolve_dynamics(cluster, dynamics)
        # The last plan served, pinned with what it covers: the plan
        # LRU lookup hashes the whole configuration on every call,
        # which would otherwise dominate a warm plan-served run.
        self._plan = None
        self._cache_model = None

    def _route(
        self,
        distribution,
        n_iter: int,
        *,
        instrumented: bool = False,
        prefetch: bool = False,
        offset: int = 0,
        observer: Optional[Observer] = None,
        telemetry=None,
    ) -> Tuple[RunResult, bool]:
        """One run: ``(result, served by the plan)``.

        Every run the plan does not serve is an engine run with a
        reason, counted under ``<prefix>/fallback/<reason>``.
        """
        if offset < 0:
            raise SimulationError(
                f"iteration_offset must be >= 0, got {offset}"
            )
        reason = self._plan_refusal(observer, instrumented)
        if reason is None:
            result, reason = _plan_route(
                self._emulation_plan(distribution, prefetch, telemetry),
                distribution, n_iter, offset, self.dynamics,
                supports_fast_forward(
                    self.workload, self.perturbation, dynamics=self.dynamics
                ),
                telemetry,
            )
            if result is not None:
                return result, True
        if telemetry:
            telemetry.count(f"{self._prefix}/fallback/{reason}")
        return self._engine_run(
            distribution, n_iter, instrumented=instrumented,
            prefetch=prefetch, offset=offset, observer=observer,
            telemetry=telemetry,
        ), False

    def _engine_run(
        self,
        distribution,
        n_iter: int,
        *,
        instrumented: bool = False,
        prefetch: bool = False,
        offset: int = 0,
        observer: Optional[Observer] = None,
        telemetry=None,
    ) -> RunResult:
        """One run on the event engine (:func:`_run_tapes`): fresh tapes
        and samplers, interpreted event by event.  The only place a run
        is built on the engine; with ``telemetry`` it records the run's
        phase totals."""
        phase: Optional[PhaseAccumulator] = None
        if telemetry and self._phase_telemetry:
            phase = PhaseAccumulator()
        tapes, samplers, timeline = self._engine_inputs(
            distribution, n_iter, instrumented=instrumented,
            prefetch=prefetch, offset=offset,
            observe=observed_kinds(phase, observer),
        )
        total, ends = _run_tapes(
            tapes, [tape.iterations() for tape in tapes], n_iter, offset,
            samplers, timeline, chain_observers(phase, observer),
        )
        result = RunResult(
            total_seconds=total,
            per_node_seconds=[e[-1] for e in ends],
            iteration_ends=ends,
            distribution=distribution,
            iterations=n_iter,
        )
        if phase is not None:
            self._record_run_telemetry(telemetry, phase, result)
        return result

    def _engine_inputs(self, distribution, n_iter: int, *,
                       instrumented: bool, prefetch: bool, offset: int,
                       observe) -> tuple:
        """``(tapes, samplers, timeline)`` of one engine run: every
        rank's fresh tape, with ``open`` / ``close`` markers around the
        op kinds in ``observe``, its noise sampler, and the dynamics
        timeline (``None`` on a static cluster)."""
        P = self.cluster.n_nodes
        timeline: Optional[DynamicsTimeline] = None
        if self.dynamics is not None:
            timeline = self.dynamics.compile(P, n_iter, offset)
        channels: dict = {}
        channel = lambda key: channels.setdefault(key, len(channels))  # noqa: E731
        tapes = self._lower_tapes(
            range(P), distribution, n_iter, prefetch, channel, offset=offset,
            instrumented=instrumented, observe=observe,
        )
        samplers = [
            self._sampler(rank, distribution, instrumented) for rank in range(P)
        ]
        return tapes, samplers, timeline

    def _plan_refusal(
        self, observer: Optional[Observer], instrumented: bool
    ) -> Optional[str]:
        """Why a run may not take the plan route, or ``None`` when it
        may (the structural half of the gate)."""
        if observer is not None:
            return "observer"
        if instrumented:
            return "instrumented"
        if self.workload.iteration_profile is not None:
            return "iteration_profile"
        return None

    def _plan_key(self, pin) -> str:
        """Key of the plan covering ``pin`` in the shared plan LRU."""
        from repro.parallel.cache import content_key

        return self._plan_prefix + content_key(
            self.cluster, self.workload, self.perturbation, pin
        )

    def _emulation_plan(self, distribution, prefetch: bool, telemetry=None):
        """The compiled plan serving ``distribution`` in streaming style
        ``prefetch``: the shared plan LRU's (:mod:`repro.core.plan`),
        compiled on first use, pinned here until the pin changes."""
        pin = self._plan_pin(distribution, prefetch)
        pinned = self._plan
        if pinned is None or pinned[0] != pin:
            from repro.core.plan import get_plan
            from repro.sim.plan_sim import EmulationPlan

            cluster, workload = self.cluster, self.workload
            perturbation = self.perturbation
            pinned = self._plan = (pin, get_plan(
                key=self._plan_key(pin),
                factory=lambda: EmulationPlan(
                    type(self)(cluster, workload, perturbation, dynamics=False),
                    prefetch,
                ),
                telemetry=telemetry,
            ))
        return pinned[1]

    def _factor_model(self) -> PerturbationModel:
        """A label-free sampler for the deterministic cache factor."""
        if self._cache_model is None:
            self._cache_model = PerturbationModel(self.perturbation)
        return self._cache_model

    @staticmethod
    def _record_run_telemetry(
        rec, phase: Optional[PhaseAccumulator], result: RunResult
    ) -> None:
        """The per-run ``sim/`` telemetry; ``phase`` is what an engine
        run fed, ``None`` for a plan-served run."""
        rec.count("sim/runs")
        if result.fast_forwarded:
            rec.count("sim/fast_forwarded")
        elif phase is not None:
            rec.count("sim/full_runs")
        rec.set("sim/iterations", result.iterations)
        rec.set("sim/total_seconds", result.total_seconds)
        # Phase totals cover what the engine simulated: every iteration
        # of an engine run, none of a plan-served one.
        if phase is None:
            rec.set("sim/iterations_simulated", 0)
            return
        rec.set(
            "sim/iterations_simulated",
            max(phase.iterations.values(), default=0),
        )
        phase.record_into(rec)


class ClusterEmulator(_Emulator):
    """Emulate ``program`` on ``cluster``.

    Parameters
    ----------
    cluster, program:
        What to run and where.
    perturbation:
        Ground-truth effect configuration; defaults to all effects on
        (the honest emulator).  :meth:`PerturbationConfig.none` yields an
        idealised machine that matches MHETA's assumptions exactly.
    dynamics:
        ``None`` honours ``cluster.dynamics``, an explicit
        :class:`~repro.cluster.dynamics.DynamicsSpec` overrides it,
        ``False`` forces the static path.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        program: ProgramStructure,
        perturbation: Optional[PerturbationConfig] = None,
        dynamics=None,
    ) -> None:
        super().__init__(cluster, program, perturbation, dynamics)
        self.program = program

    # -- public API ------------------------------------------------------------

    def run(
        self,
        distribution: GenBlock,
        *,
        iterations: Optional[int] = None,
        io_mode: str = "auto",
        observer: Optional[Observer] = None,
        telemetry=None,
        iteration_offset: int = 0,
    ) -> RunResult:
        """Run the program and return timing.

        ``io_mode`` selects how out-of-core stages stream (see
        :data:`IO_MODES`): ``"auto"`` follows the program,
        ``"sync"``/``"prefetch"`` force a streaming style, and
        ``"instrumented"`` reproduces the paper's measurement iteration
        — every distributed variable forced out of core, prefetch
        issues turned into blocking reads (paper Figure 5).
        ``iterations`` overrides the program's iteration count (the
        instrumented run uses 1); it must be >= 1.

        Each rank's node program is lowered to an op tape, and a run
        takes one of two routes to interpret it (:meth:`_route`).
        **Plan**: the configuration's compiled
        :class:`~repro.sim.plan_sim.EmulationPlan` for the run's
        streaming style walks factor-free per-rank tapes with the
        engine's exact arithmetic, applying each (rank, iteration)'s
        noise, background-load and dynamics factors in the engine's
        order.  A stationary deterministic run longer than the probe
        window replays the probe and, once
        :func:`~repro.sim.steady.steady_deltas` finds it converged,
        extrapolates the rest closed-form (``fast_forwarded``); every
        other run — noisy, background-loaded, dynamic, an offset
        segment, no longer than the probe, or whose probe did not
        converge — replays all of its iterations, bit-identical to the
        engine.  **Engine**: the event engine interprets the tapes
        event by event.  The plan route
        refuses an observer, an instrumented run and a non-uniform
        iteration profile.  Those runs, and any run on a retired plan,
        take the engine; with ``telemetry`` each such run is counted
        under ``sim/fallback/<reason>``.  The route alone picks the
        interpreter.

        ``iteration_offset`` emulates a mid-run segment: iterations
        ``[offset, offset + n)`` of the global schedule.  Dynamics
        factors and iteration profiles are indexed globally, so a
        segment sees exactly the conditions those iterations of a
        continuous run would (modulo cold pipeline/page-cache state at
        the segment boundary).

        ``telemetry`` takes a :class:`repro.obs.Recorder` and records
        per-node phase totals (a :class:`PhaseAccumulator` fed the
        engine run's records) plus the routing decision.  The
        accumulator does not count as an *observer* for routing — it
        rides along on whatever the engine actually simulates (nothing,
        on the plan route), so enabling telemetry never changes the
        simulated timing or the route.
        """
        instr, io_override = _resolve_io_mode(io_mode)
        if distribution.n_nodes != self.cluster.n_nodes:
            raise SimulationError(
                f"distribution has {distribution.n_nodes} blocks for "
                f"{self.cluster.n_nodes} nodes"
            )
        if distribution.n_rows != self.program.n_rows:
            raise SimulationError(
                f"distribution covers {distribution.n_rows} rows, program "
                f"has {self.program.n_rows}"
            )
        result, served = self._route(
            distribution, _iterations(self.program, iterations),
            instrumented=instr,
            prefetch=_streaming_style(self.program, io_override),
            offset=iteration_offset, observer=observer, telemetry=telemetry,
        )
        if served and telemetry:
            telemetry.count("sim/plan_runs")
            self._record_run_telemetry(telemetry, None, result)
        return result

    # -- what a compiled plan asks of the emulator it serves ---------------------

    def _plan_pin(self, distribution, prefetch: bool) -> bool:
        """A 1-D plan covers one streaming style."""
        return prefetch

    def _tape_key(self, rank: int, distribution: GenBlock) -> tuple:
        """What ``rank``'s plan tape depends on: its row count, or its
        row block when sparse row weights make positions matter."""
        start, stop = distribution.rows_of(rank)
        if self.perturbation.sparse_weights and self.program.row_weights is not None:
            return (rank, start, stop)
        return (rank, stop - start)

    def _lower_tapes(self, ranks, distribution: GenBlock, n_iter: int,
                     prefetch: bool, channel, *, offset: int = 0,
                     instrumented: bool = False,
                     observe=()) -> List[_Tape]:
        """Lower the node programs of ``ranks`` under ``distribution``
        into tapes of ``n_iter`` iterations from global iteration
        ``offset`` (see :class:`_Lowering`), their memory plans made in
        one pass.  ``channel`` maps ``(src, dst, tag)`` to a channel id;
        ``observe``, a set of :class:`~repro.sim.trace.Op` kinds, adds
        the record markers of those kinds."""
        ranks = list(ranks)
        memory = self._plans(
            ranks, [distribution.counts[r] for r in ranks], instrumented
        )
        tapes = []
        for rank, plan in zip(ranks, memory):
            start, stop = distribution.rows_of(rank)
            tapes.append(_Lowering(
                self, rank, start, stop, plan, prefetch and not instrumented,
                channel, observe,
            ).lower(n_iter, offset))
        return tapes

    def _sampler(self, rank: int, distribution: GenBlock,
                 instrumented: bool = False) -> PerturbationModel:
        """The RNG-bearing perturbation sampler of one node in one run."""
        return PerturbationModel(
            self.perturbation,
            run_labels=(
                self.cluster.name,
                self.program.name,
                "x".join(map(str, distribution.counts)),
                rank,
                "instr" if instrumented else "run",
            ),
        )

    def _plans(self, ranks, rows, instrumented: bool) -> List[MemoryPlan]:
        """Memory plans of ``ranks`` holding ``rows``, in one pass."""
        overhead = self.perturbation.runtime_overhead
        return plan_memory_arrays(
            self.program, rows,
            [self.cluster.nodes[r].memory_bytes for r in ranks],
            forced_out_of_core=instrumented,
            **(emulator_policy(self.program) if overhead else {}),
        ).plans()


# -- shared by every emulator --------------------------------------------------


def _run_tapes(tapes: List[_Tape], iterations: list, n_iter: int, offset: int,
               samplers, timeline: Optional[DynamicsTimeline] = None,
               observer: Optional[Observer] = None,
               ) -> Tuple[float, List[List[float]]]:
    """The event engine interpreting every rank's tape (``iterations``:
    each one's stored iterations as op tuples), rank ``r`` drawing from
    ``samplers[r]``: ``(total seconds, [rank][iteration] ends)``.

    One flat loop over a heap of rank wake-ups keyed ``(time, seq)``,
    ties broken by insertion sequence.  A woken rank runs its ops until
    it must wait: a positive delay is pushed (a zero one is not), and a
    receive on an empty channel parks the rank until the matching send
    wakes it at ``max(deliver, now)``; messages queue per channel in
    FIFO order.  A delay that ends strictly before every other wake-up
    continues the rank at once, which is the push's own pop (``seq``
    still advances).  Each iteration's stage-execution seconds are
    ``base * noise * background``, times the dynamics multiplier,
    drawn through the scalar samplers in program order when the rank
    enters the iteration; a disk operation queues behind the rank's
    disk as :class:`~repro.sim.disk.DiskModel` schedules it.  ``close``
    markers hand ``observer`` an :class:`~repro.sim.trace.EventRecord`
    at the moment the op ends, so records arrive in event order.
    Receivers left waiting when no wake-up remains raise
    :class:`SimulationError` (deadlock).
    """
    P = len(tapes)
    bases = [tape.bases.tolist() for tape in tapes]
    last = [len(its) - 1 for its in iterations]
    ends: List[List[float]] = [[] for _ in range(P)]
    ops_of: list = [None] * P
    totals: list = [None] * P
    slow = [1.0] * P

    def enter(r: int, local: int) -> None:
        """Rank ``r`` begins local iteration ``local``: its ops and its
        stage executions' perturbed seconds."""
        stored = min(local, last[r])
        dyn = 1.0
        if timeline is not None:
            it = local + offset
            dyn = timeline.compute_multiplier(r, it)
            slow[r] = float(timeline.disk_slowdown(r, it))
        noise, background = samplers[r].noise_factor, samplers[r].background_factor
        tot = []
        for base in bases[r][stored]:
            seconds = base * noise() * background()
            if dyn != 1.0:
                seconds *= dyn
            tot.append(float(seconds))
        totals[r] = tot
        ops_of[r] = iterations[r][stored]

    for r in range(P):
        enter(r, 0)
    pos = [0] * P
    local_of = [0] * P
    free = [0.0] * P
    pend = [0.0] * P
    opened: List[List[float]] = [[] for _ in range(P)]
    mail: dict = {}  # (local, channel) -> deliver times, FIFO
    waiting: dict = {}  # (local, channel) -> the rank parked on it
    heap = [(0.0, r + 1, r) for r in range(P)]  # sorted, so a heap
    seq = P
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        now, _, r = pop(heap)
        ops, i, local = ops_of[r], pos[r], local_of[r]
        tot, sd, fa, pf = totals[r], slow[r], free[r], pend[r]
        while True:
            kind, arg, x, b, rows = ops[i]
            i += 1
            if kind == _COMPUTE:
                d = tot[arg] * b / rows
            elif kind == _CPU:
                d = x
            elif kind == _IO:
                if sd != 1.0:
                    x *= sd
                fa = (fa if fa > now else now) + x
                d = fa - now
            elif kind == _SEND:
                key = (local, arg)
                deliver = now + x
                waiter = waiting.pop(key, None)
                if waiter is None:
                    mail.setdefault(key, []).append(deliver)
                else:
                    seq += 1
                    push(heap, (deliver if deliver > now else now, seq, waiter))
                continue
            elif kind == _RECV:
                key = (local, arg)
                queue = mail.pop(key, None)
                if not queue:
                    waiting[key] = r
                    break
                deliver = queue.pop(0)
                if queue:
                    mail[key] = queue
                if deliver > now:
                    seq += 1
                    if heap and heap[0][0] <= deliver:
                        push(heap, (deliver, seq, r))
                        break
                    now = deliver
                continue
            elif kind == _END:
                ends[r].append(now)
                local += 1
                if local == n_iter:
                    break
                enter(r, local)
                ops, tot, sd, i = ops_of[r], totals[r], slow[r], 0
                continue
            elif kind == _PF_ISSUE:
                if sd != 1.0:
                    x *= sd
                fa = pf = (fa if fa > now else now) + x
                continue
            elif kind == _PF_WAIT:
                d = pf - now
            elif kind == _OPEN:
                opened[r].append(now)
                continue
            else:  # _CLOSE
                op, section, tile, stage, var, nbytes, nrows = tapes[r].records[arg]
                observer(EventRecord(
                    op, r, local + offset, section, tile, stage, var,
                    opened[r].pop(), now, nbytes, nrows,
                ))
                continue
            if d > 0.0:
                t = now + d
                seq += 1
                if heap and heap[0][0] <= t:
                    push(heap, (t, seq, r))
                    break
                now = t
        pos[r], local_of[r], free[r], pend[r] = i, local, fa, pf
    if waiting:
        detail = ", ".join(
            f"node{r}<-node{ops_of[r][pos[r] - 1][3]} (channel {chan}, "
            f"iteration {local + offset})"
            for (local, chan), r in list(waiting.items())[:5]
        )
        raise SimulationError(f"deadlock: receivers blocked on {detail}")
    return max((e[-1] for e in ends), default=0.0), ends


def _plan_route(plan, distribution, n_iter: int, offset: int, dynamics,
                stationary: bool, telemetry=None,
                ) -> Tuple[Optional[RunResult], Optional[str]]:
    """One run served by a compiled plan: ``(result, None)``, or
    ``(None, "plan_dead")`` when the plan is retired and the engine
    must run it (``telemetry`` times a fresh plan's compile).

    A ``stationary`` deterministic run longer than the probe replays
    the probe and extrapolates the rest once it converged (the offset
    changes nothing); every other run, and one whose probe did not
    converge, replays all of its iterations.
    """
    probe = FAST_FORWARD_POLICY.probe_iterations
    ends, fast_forwarded = None, False
    if n_iter > probe and stationary:
        probe_ends = plan.replay(distribution, probe, telemetry=telemetry)
        if probe_ends is None:
            return None, "plan_dead"
        deltas = steady_deltas(probe_ends, FAST_FORWARD_POLICY)
        if deltas is not None:
            ends = [
                extrapolate_ends(e, delta, n_iter)
                for e, delta in zip(probe_ends, deltas)
            ]
            fast_forwarded = True
    if ends is None:
        # Iterations that differ (noise, background load, dynamics), a
        # run no longer than the probe, or a probe that did not
        # converge: replay all of them.
        ends = plan.replay(
            distribution, n_iter, dynamics, offset, telemetry=telemetry
        )
        if ends is None:
            return None, "plan_dead"
    per_node = [e[-1] for e in ends]
    return RunResult(
        total_seconds=max(per_node),
        per_node_seconds=per_node,
        iteration_ends=ends,
        distribution=distribution,
        iterations=n_iter,
        fast_forwarded=fast_forwarded,
    ), None


# -- module-level convenience ---------------------------------------------------


def _copy_result(result: RunResult) -> RunResult:
    """Fresh copy with private mutable lists (cache-safe to hand out)."""
    return dataclasses.replace(
        result,
        per_node_seconds=list(result.per_node_seconds),
        iteration_ends=[list(ends) for ends in result.iteration_ends],
    )


def _run_store(run_cache):
    """The run cache a ``run_cache=`` argument names: the process-wide
    store for ``None``, none for ``False``, else the store itself."""
    if run_cache is False:
        return None
    if run_cache is None:
        from repro.parallel.cache import default_run_cache

        return default_run_cache()
    return run_cache


def _run_keys(cluster, program, distributions, *, iterations=None,
              io_mode: str = "auto", perturbation=None, dynamics=None,
              iteration_offset: int = 0) -> List[str]:
    """The run-cache key of each of ``distributions`` under the
    :func:`emulate_many` keywords: one
    :meth:`~repro.parallel.cache.RunCache.key_base` digest over the
    resolved configuration, plus each candidate's row counts."""
    from repro.parallel.cache import RunCache

    base = RunCache.key_base(
        cluster, program, _iterations(program, iterations),
        perturbation if perturbation is not None else PerturbationConfig(),
        instrumented=_resolve_io_mode(io_mode)[0],
        dynamics=_resolve_dynamics(cluster, dynamics), io_mode=io_mode,
        iteration_offset=iteration_offset,
    )
    return [RunCache.key_from_base(base, d.counts) for d in distributions]


def emulate(
    cluster: ClusterSpec,
    program: ProgramStructure,
    distribution: GenBlock,
    *,
    iterations: Optional[int] = None,
    io_mode: str = "auto",
    perturbation: Optional[PerturbationConfig] = None,
    dynamics=None,
    run_cache: Union[None, bool, "object"] = None,
    telemetry=None,
    observer: Optional[Observer] = None,
    iteration_offset: int = 0,
) -> RunResult:
    """One emulated run, memoised in the shared content-keyed run cache.

    This is the single keyword-driven entry point for emulation (the
    emulator-side mirror of the consolidated ``predict()``):

    * ``io_mode`` — ``"auto"`` | ``"sync"`` | ``"prefetch"`` |
      ``"instrumented"`` (see :meth:`ClusterEmulator.run`);
    * ``dynamics`` — ``None`` honours whatever
      :class:`~repro.cluster.dynamics.DynamicsSpec` is attached to the
      cluster, an explicit spec overrides it, ``False`` forces the
      static path;
    * ``run_cache`` — ``None`` (default) uses the process-wide
      :func:`repro.parallel.cache.default_run_cache`, ``False``
      bypasses caching entirely, any
      :class:`repro.parallel.cache.RunCache` instance is used directly;
    * ``iteration_offset`` — emulate a mid-run segment (global
      iteration indexing; see :meth:`ClusterEmulator.run`).

    An emulated run is a pure function of ``(cluster, program,
    distribution, iterations, perturbation, dynamics, io_mode)`` — even
    the perturbed and dynamic ones, whose RNG streams are seeded from
    those labels — so identical configurations across experiment
    panels, benchmark repetitions and adaptive-runtime rounds share one
    simulation.  Observed runs always bypass the cache (the observer's
    callbacks are the point of the run).  Hits return a defensive copy,
    so callers may mutate the result freely.

    ``telemetry`` takes a :class:`repro.obs.Recorder`: run-cache
    hit/miss counters land under ``sim/run_cache/``, and cache misses
    record the run's phase telemetry (see :meth:`ClusterEmulator.run`).
    A hit performs no simulation, so only the counters move.
    """
    instr, _ = _resolve_io_mode(io_mode)
    n_iter = _iterations(program, iterations)
    dyn = _resolve_dynamics(cluster, dynamics)
    # dyn is fully resolved; False stops the emulator's own
    # cluster-attached fallback from re-resolving a None.
    emulator = ClusterEmulator(
        cluster, program, perturbation, dynamics=dyn if dyn is not None else False
    )
    if observer is not None or run_cache is False:
        if telemetry:
            telemetry.count("sim/run_cache/bypasses")
        return emulator.run(
            distribution,
            iterations=iterations,
            io_mode=io_mode,
            observer=observer,
            telemetry=telemetry,
            iteration_offset=iteration_offset,
        )

    from repro.parallel.cache import RunCache

    store = _run_store(run_cache)
    key = RunCache.key(
        cluster,
        program,
        distribution,
        n_iter,
        emulator.perturbation,
        instrumented=instr,
        dynamics=dyn,
        io_mode=io_mode,
        iteration_offset=iteration_offset,
    )
    # The store holds frozen (tuple-field) payloads and thaws on get,
    # so hits hand out private mutable lists without a deep copy.
    hit = store.get(key)
    if hit is not None:
        if telemetry:
            telemetry.count("sim/run_cache/hits")
        return hit
    result = emulator.run(
        distribution,
        iterations=iterations,
        io_mode=io_mode,
        telemetry=telemetry,
        iteration_offset=iteration_offset,
    )
    store.put(key, result)
    if telemetry:
        telemetry.count("sim/run_cache/misses")
        stats = store.stats
        telemetry.set("sim/run_cache/size", stats.get("size", 0))
        telemetry.set("sim/run_cache/evictions", stats.get("evictions", 0))
    return result


def emulate_many(
    cluster: ClusterSpec,
    program: ProgramStructure,
    distributions,
    *,
    iterations: Optional[int] = None,
    io_mode: str = "auto",
    perturbation: Optional[PerturbationConfig] = None,
    dynamics=None,
    run_cache: Union[None, bool, "object"] = None,
    telemetry=None,
    iteration_offset: int = 0,
) -> List[RunResult]:
    """Emulate a whole population of candidates in one batched pass.

    The results are bit-identical to looping :func:`emulate` over
    ``distributions`` (pinned by the golden batch suite): every
    candidate takes the route of :meth:`ClusterEmulator.run` on one
    emulator, which pins the compiled
    :class:`~repro.sim.plan_sim.EmulationPlan` once, candidates share
    the plan's memoised per-rank op tapes, and every candidate the
    plan cannot serve runs the engine.

    Keywords mirror :func:`emulate` (``io_mode``, ``dynamics``,
    ``iteration_offset``); ``io_mode``-overridden, dynamic,
    background-loaded, offset and short batches are plan-served like
    single runs.  The run cache is consulted up front
    (duplicates inside the batch are deduplicated too) and all fresh
    results land back in one
    :meth:`~repro.parallel.cache.RunCache.put_many`.  ``run_cache``
    follows :func:`emulate`: ``None`` for the process-wide store,
    ``False`` to bypass, or an explicit
    :class:`~repro.parallel.cache.RunCache`.

    Telemetry: one ``sim/batch/passes`` count per call — the
    coalesced-round invariant the serve verify path asserts — plus
    candidate/hit/plan-run/fallback counters under ``sim/batch/``, and
    each engine-run candidate under ``sim/fallback/<reason>``.
    """
    instr, io_override = _resolve_io_mode(io_mode)
    n_iter = _iterations(program, iterations)
    dyn = _resolve_dynamics(cluster, dynamics)
    distributions = list(distributions)
    emulator = ClusterEmulator(
        cluster, program, perturbation, dynamics=dyn if dyn is not None else False
    )
    store = _run_store(run_cache)
    results: List[Optional[RunResult]] = [None] * len(distributions)
    keys: List[Optional[str]] = [None] * len(distributions)
    cache_hits = 0
    if store is not None:
        # Resolved values resolve to themselves.
        keys = _run_keys(
            cluster, program, distributions, iterations=n_iter,
            io_mode=io_mode, perturbation=emulator.perturbation,
            dynamics=dyn if dyn is not None else False,
            iteration_offset=iteration_offset,
        )
        for i, key in enumerate(keys):
            hit = store.get(key)
            if hit is not None:
                results[i] = hit
                cache_hits += 1

    # Deduplicate the remaining candidates: identical counts are one
    # emulation (runs are pure functions of their configuration).
    first_index: dict = {}
    pending: List[int] = []
    for i, dist in enumerate(distributions):
        if results[i] is not None:
            continue
        counts = tuple(dist.counts)
        if counts in first_index:
            continue
        first_index[counts] = i
        pending.append(i)

    plan_served = 0
    if pending:
        prefetch = _streaming_style(program, io_override)
        for i in pending:
            results[i], served = emulator._route(
                distributions[i], n_iter, instrumented=instr,
                prefetch=prefetch, offset=iteration_offset,
                telemetry=telemetry,
            )
            plan_served += served

        if store is not None:
            store.put_many(
                (keys[i], results[i]) for i in pending if keys[i] is not None
            )

    # Fill batch-internal duplicates with private copies.
    for i, dist in enumerate(distributions):
        if results[i] is None:
            results[i] = _copy_result(results[first_index[tuple(dist.counts)]])

    if telemetry:
        telemetry.count("sim/batch/passes")
        telemetry.count("sim/batch/candidates", len(distributions))
        telemetry.count("sim/batch/cache_hits", cache_hits)
        telemetry.count("sim/batch/plan_runs", plan_served)
        telemetry.count("sim/batch/fallbacks", len(pending) - plan_served)
        if store is not None:
            telemetry.count("sim/run_cache/hits", cache_hits)
            telemetry.count("sim/run_cache/misses", len(pending))
    return results
