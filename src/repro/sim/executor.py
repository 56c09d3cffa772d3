"""Execute a program under a distribution on an emulated cluster.

One generator process per node runs the program's parallel sections
iteration by iteration: stages stream out-of-core variables through the
node's disk in ICLA-sized blocks (synchronously or with one-block-ahead
prefetching), and sections close with the emulated communication pattern
(boundary exchange, pipeline, binomial-tree allreduce, ring allgather).

The emulator is the reproduction's stand-in for the paper's real
cluster: its output is the "Actual" series of Figures 9-11.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.cluster.cluster import ClusterSpec
from repro.cluster.dynamics import DynamicsSpec, DynamicsTimeline
from repro.distribution.genblock import GenBlock
from repro.exceptions import SimulationError
from repro.placement import MemoryPlan, plan_memory_arrays
from repro.program.sections import CommPattern
from repro.program.stages import Stage
from repro.program.structure import ProgramStructure
from repro.sim.disk import DiskModel
from repro.sim.engine import Delay, Engine, Recv, Send
from repro.sim.memory import emulator_policy
from repro.sim.perturbation import PerturbationConfig, PerturbationModel
from repro.sim.steady import (
    FastForwardPolicy,
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
)

__all__ = [
    "ClusterEmulator",
    "RunResult",
    "emulate",
    "emulate_many",
    "set_fast_forward_default",
    "fast_forward_default",
]

#: CPU cost of issuing one asynchronous read (system-call overhead).
PREFETCH_ISSUE_OVERHEAD = 20e-6

#: Process-wide default for ``ClusterEmulator.run(fast_forward=None)``.
#: The CLI's ``--no-fast-forward`` flips it off for a whole invocation.
_FAST_FORWARD_DEFAULT = True


def set_fast_forward_default(enabled: bool) -> bool:
    """Set the process-wide fast-forward default; returns the previous
    value (so tests can restore it)."""
    global _FAST_FORWARD_DEFAULT
    previous = _FAST_FORWARD_DEFAULT
    _FAST_FORWARD_DEFAULT = bool(enabled)
    return previous


def fast_forward_default() -> bool:
    """The current process-wide fast-forward default."""
    return _FAST_FORWARD_DEFAULT


#: Valid ``io_mode`` values for the consolidated emulation API.
IO_MODES = ("auto", "sync", "prefetch", "instrumented")


def _resolve_io_mode(io_mode: str) -> Tuple[bool, Optional[bool]]:
    """``io_mode`` -> ``(instrumented, prefetch_override)``.

    * ``"auto"`` — follow the program (prefetch iff it was built with
      prefetching); the default and the only mode compiled emulation
      plans serve.
    * ``"sync"`` / ``"prefetch"`` — force the streaming style of
      out-of-core stages regardless of how the program was built.
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

    @property
    def mean_iteration_seconds(self) -> float:
        return self.total_seconds / max(self.iterations, 1)

    def iteration_durations(self, node: int) -> List[float]:
        """Per-iteration durations for ``node``."""
        ends = self.iteration_ends[node]
        outs = []
        prev = 0.0
        for e in ends:
            outs.append(e - prev)
            prev = e
        return outs


def _observe_noop(*_args, **_kwargs) -> None:
    """Stand-in for :meth:`_NodeCtx._observe` on unobserved runs: a
    plain function, so the hot path pays one no-op call instead of an
    attribute check plus record construction."""
    return None


class _NodeCtx:
    """Per-node mutable execution state and generator helpers."""

    __slots__ = (
        "rank",
        "spec",
        "net",
        "disk",
        "plan",
        "now",
        "observer",
        "observe",
        "perturb",
        "replicated_bytes",
        "iteration_ends",
        "dyn_compute",
    )

    def __init__(self, rank, spec, net, disk, plan, observer, perturb, replicated):
        self.rank = rank
        self.spec = spec
        self.net = net
        self.disk = disk
        self.plan: MemoryPlan = plan
        self.now = 0.0
        self.observer: Optional[Observer] = observer
        self.observe = self._observe if observer is not None else _observe_noop
        self.perturb: PerturbationModel = perturb
        self.replicated_bytes = replicated
        self.iteration_ends: List[float] = []
        #: Duration multiplier from cluster dynamics for the current
        #: iteration; exactly 1.0 on static runs (never touched).
        self.dyn_compute = 1.0

    # -- tracing -----------------------------------------------------------

    def _observe(self, op, it, section, tile, stage, variable, start, nbytes=0.0, rows=0):
        self.observer(
            EventRecord(
                op=op,
                node=self.rank,
                iteration=it,
                section=section,
                tile=tile,
                stage=stage,
                variable=variable,
                start=start,
                end=self.now,
                nbytes=nbytes,
                rows=rows,
            )
        )

    # -- primitive generators -------------------------------------------------

    def cpu(self, seconds):
        if seconds > 0.0:
            self.now = float((yield Delay(seconds)))

    def sync_read(self, var, nbytes, it, section, tile, stage, rows=0):
        start = self.now
        op = self.disk.submit_read(self.now, var, nbytes)
        yield from self.cpu(op.done - self.now)
        self.observe(Op.READ, it, section, tile, stage, var, start, nbytes, rows)

    def sync_write(self, var, nbytes, it, section, tile, stage, rows=0):
        start = self.now
        op = self.disk.submit_write(self.now, var, nbytes)
        yield from self.cpu(op.done - self.now)
        self.observe(Op.WRITE, it, section, tile, stage, var, start, nbytes, rows)

    def stage_seconds(self, base):
        """Perturbed duration of one stage execution whose noise-free
        cost is ``base``: draws the stage's computation noise (one draw
        per stage execution, in program order) and background load."""
        seconds = base * self.perturb.noise_factor() * self.perturb.background_factor()
        if self.dyn_compute != 1.0:
            seconds *= self.dyn_compute
        return seconds

    def compute(self, total, it, section, tile, stage, rows=1, of=1):
        """Compute ``rows`` of the ``of`` rows a stage execution of
        ``total`` seconds covers (the whole execution by default)."""
        start = self.now
        yield from self.cpu(total * rows / of)
        self.observe(Op.COMPUTE, it, section, tile, stage, None, start)

    def prefetch_issue(self, var, nbytes, it, section, tile, stage, rows):
        """Issue an asynchronous read; returns when it will be done."""
        start = self.now
        yield from self.cpu(PREFETCH_ISSUE_OVERHEAD)
        pending = self.disk.submit_read(self.now, var, nbytes)
        self.observe(
            Op.PREFETCH_ISSUE, it, section, tile, stage, var, start, nbytes, rows
        )
        return pending.done

    def prefetch_wait(self, done, var, nbytes, it, section, tile, stage, rows):
        """Block until the read issued by :meth:`prefetch_issue` is done."""
        start = self.now
        if done > self.now:
            yield from self.cpu(done - self.now)
        self.observe(
            Op.PREFETCH_WAIT, it, section, tile, stage, var, start, nbytes, rows
        )

    def end_iteration(self, it):
        self.iteration_ends.append(self.now)
        self.observe(Op.ITERATION_END, it, "", 0, None, None, self.now)

    def send_msg(self, dst, tag, nbytes, it, section, disk_source=None):
        # Materialise the message from disk when it lives in an
        # out-of-core array on this node (paper Section 4.2.2).
        if disk_source is not None:
            yield from self.sync_read(
                disk_source, nbytes, it, section, 0, None
            )
        start = self.now
        yield from self.cpu(self.net.send_overhead)
        yield Send(dst, tag, transfer=self.net.transfer_seconds(nbytes))
        self.observe(Op.SEND, it, section, 0, None, None, start, nbytes)

    def recv_msg(self, src, tag, it, section):
        start = self.now
        result = yield Recv(src, tag)
        self.now = float(result)
        yield from self.cpu(self.net.recv_overhead)
        self.observe(Op.RECV, it, section, 0, None, None, start)


class ClusterEmulator:
    """Emulate ``program`` on ``cluster``.

    Parameters
    ----------
    cluster, program:
        What to run and where.
    perturbation:
        Ground-truth effect configuration; defaults to all effects on
        (the honest emulator).  :meth:`PerturbationConfig.none` yields an
        idealised machine that matches MHETA's assumptions exactly.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        program: ProgramStructure,
        perturbation: Optional[PerturbationConfig] = None,
        fast_forward_policy: Optional[FastForwardPolicy] = None,
        dynamics=None,
    ) -> None:
        self.cluster = cluster
        self.program = program
        self.perturbation = (
            perturbation if perturbation is not None else PerturbationConfig()
        )
        self.fast_forward_policy = (
            fast_forward_policy
            if fast_forward_policy is not None
            else FastForwardPolicy()
        )
        #: Effective time-varying behaviour: an explicit spec, the
        #: cluster's attached one, or ``None`` (static).  ``False``
        #: forces static even on a dynamic cluster.
        self.dynamics = _resolve_dynamics(cluster, dynamics)
        # Resolved lazily and pinned: the plan LRU lookup hashes the
        # whole (cluster, program, perturbation) content on every call,
        # which would otherwise dominate a warm plan-served run.
        self._emulation_plan = None

    # -- public API ------------------------------------------------------------

    def run(
        self,
        distribution: GenBlock,
        *,
        iterations: Optional[int] = None,
        io_mode: str = "auto",
        fast_forward: Optional[bool] = None,
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

        A run takes one of two routes.  **Plan**: the configuration's
        compiled :class:`~repro.sim.plan_sim.EmulationPlan` replays
        factor-free per-rank op tapes with the engine's exact
        arithmetic, applying each (rank, iteration)'s noise,
        background-load and dynamics factors in the engine's order.  A
        stationary deterministic run longer than the probe window
        replays the probe and, once
        :func:`~repro.sim.steady.steady_deltas` finds it converged,
        extrapolates the rest closed-form (``fast_forwarded``); every
        other run — noisy, background-loaded, dynamic, an offset
        segment, or no longer than the probe — replays all of its
        iterations, bit-identical to the engine.  **Engine**: full
        event-by-event simulation.  The plan route refuses only what a
        tape cannot express: an observer, an instrumented run, a
        non-uniform iteration profile and an ``io_mode`` that overrides
        the program's own streaming style.  Those runs, and any run the
        plan cannot serve (a retired plan, a non-converging
        deterministic probe), take the engine; with ``telemetry`` each
        such run is counted under ``sim/fallback/<reason>``.

        ``fast_forward`` selects the routing: ``None`` follows the
        process-wide default (on; see :func:`set_fast_forward_default`),
        ``False`` forces the engine (the reference every plan-served
        result equals).

        ``iteration_offset`` emulates a mid-run segment: iterations
        ``[offset, offset + n)`` of the global schedule.  Dynamics
        factors and iteration profiles are indexed globally, so a
        segment sees exactly the conditions those iterations of a
        continuous run would (modulo cold pipeline/page-cache state at
        the segment boundary).

        ``telemetry`` takes a :class:`repro.obs.Recorder` and records
        per-node phase totals (a :class:`PhaseAccumulator` chained into
        ``_NodeCtx.observe``) plus the routing decision.  The
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
        if iteration_offset < 0:
            raise SimulationError(
                f"iteration_offset must be >= 0, got {iteration_offset}"
            )
        n_iter = _iterations(self.program, iterations)
        use_fast = _FAST_FORWARD_DEFAULT if fast_forward is None else fast_forward
        reason = None
        if use_fast:
            reason = self._plan_refusal(observer, instr, io_override)
            if reason is None:
                result, reason = self._plan_result(
                    distribution, n_iter, iteration_offset, telemetry
                )
                if result is not None:
                    if telemetry:
                        telemetry.count("sim/plan_runs")
                        self._record_run_telemetry(
                            telemetry, None, result, engine=False
                        )
                    return result
        return self._engine_run(
            distribution, n_iter, instr, io_override, iteration_offset,
            observer, telemetry, reason,
        )

    def _plan_refusal(
        self,
        observer: Optional[Observer],
        instrumented: bool,
        io_override: Optional[bool],
    ) -> Optional[str]:
        """Why a run may not take the plan route, or ``None`` when it
        may (the structural half of the gate; see :meth:`run`)."""
        if observer is not None:
            return "observer"
        if instrumented:
            return "instrumented"
        if self.program.iteration_profile is not None:
            return "iteration_profile"
        # Plans are compiled for the program's own streaming style.
        if io_override is not None and io_override != bool(self.program.prefetch):
            return "io_mode"
        return None

    def _plan_result(
        self, distribution: GenBlock, n_iter: int, offset: int,
        telemetry=None,
    ) -> Tuple[Optional[RunResult], Optional[str]]:
        """Serve one run that passed :meth:`_plan_refusal` from the
        compiled plan: ``(result, None)``, or ``(None, reason)`` when
        the engine must run it."""
        policy = self.fast_forward_policy
        plan = self._emulation_plan
        if plan is None or plan.policy != policy:
            from repro.sim.plan_sim import get_emulation_plan

            plan = get_emulation_plan(
                self.cluster, self.program, self.perturbation, policy,
                telemetry,
            )
            self._emulation_plan = plan
        probe = policy.probe_iterations
        if n_iter <= probe or not supports_fast_forward(
            self.program, self.perturbation, dynamics=self.dynamics
        ):
            # Iterations that differ (noise, background load, dynamics)
            # or a run no longer than the probe: replay all of them.
            ends = plan.replay(distribution, n_iter, self.dynamics, offset)
            if ends is None:
                return None, "plan_dead"
            per_node = [e[-1] for e in ends]
            return RunResult(
                total_seconds=max(per_node),
                per_node_seconds=per_node,
                iteration_ends=ends,
                distribution=distribution,
                iterations=n_iter,
            ), None
        # Stationary and deterministic: the offset changes nothing.
        probe_ends = plan.replay(distribution, probe)
        if probe_ends is None:
            return None, "plan_dead"
        deltas = steady_deltas(probe_ends, policy)
        if deltas is None:
            return None, "not_converged"
        return self._extrapolated_result(
            distribution, probe_ends, deltas, n_iter
        ), None

    def _engine_run(
        self,
        distribution: GenBlock,
        n_iter: int,
        instrumented: bool,
        io_override: Optional[bool],
        offset: int,
        observer: Optional[Observer],
        telemetry,
        reason: Optional[str],
    ) -> RunResult:
        """Full event-by-event simulation; ``reason`` names why the
        plan route did not serve it (``None`` when it was not asked)."""
        timeline: Optional[DynamicsTimeline] = None
        if self.dynamics is not None:
            timeline = self.dynamics.compile(
                self.cluster.n_nodes, n_iter, offset
            )
        phase: Optional[PhaseAccumulator] = None
        sim_observer = observer
        if telemetry:
            phase = PhaseAccumulator()
            sim_observer = chain_observers(phase, observer)
            if reason is not None:
                telemetry.count(f"sim/fallback/{reason}")
        result = self._simulate(
            distribution, sim_observer, instrumented, n_iter,
            timeline=timeline, offset=offset, io_override=io_override,
        )
        if telemetry:
            self._record_run_telemetry(telemetry, phase, result, engine=True)
        return result

    @staticmethod
    def _record_run_telemetry(
        rec, phase: Optional[PhaseAccumulator], result: RunResult, *,
        engine: bool,
    ) -> None:
        rec.count("sim/runs")
        if result.fast_forwarded:
            rec.count("sim/fast_forwarded")
        elif engine:
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

    def _simulate(
        self,
        distribution: GenBlock,
        observer: Optional[Observer],
        instrumented: bool,
        n_iter: int,
        timeline: Optional[DynamicsTimeline] = None,
        offset: int = 0,
        io_override: Optional[bool] = None,
    ) -> RunResult:
        """Full event-by-event simulation of ``n_iter`` iterations."""
        engine = Engine()
        contexts = self._make_contexts(distribution, observer, instrumented)
        for ctx in contexts:
            engine.add_process(
                self._node_process(
                    ctx, contexts, distribution, n_iter, instrumented,
                    timeline, offset, io_override,
                ),
                node=ctx.rank,
            )
        total = engine.run()
        return RunResult(
            total_seconds=total,
            per_node_seconds=[
                ctx.iteration_ends[-1] if ctx.iteration_ends else 0.0
                for ctx in contexts
            ],
            iteration_ends=[list(ctx.iteration_ends) for ctx in contexts],
            distribution=distribution,
            iterations=n_iter,
        )

    def _extrapolated_result(
        self,
        distribution: GenBlock,
        probe_ends: List[List[float]],
        deltas: List[float],
        n_iter: int,
    ) -> RunResult:
        """Closed-form result from converged probe iteration ends."""
        iteration_ends = [
            extrapolate_ends(ends, delta, n_iter)
            for ends, delta in zip(probe_ends, deltas)
        ]
        per_node = [ends[-1] if ends else 0.0 for ends in iteration_ends]
        return RunResult(
            total_seconds=max(per_node) if per_node else 0.0,
            per_node_seconds=per_node,
            iteration_ends=iteration_ends,
            distribution=distribution,
            iterations=n_iter,
            fast_forwarded=True,
        )

    # -- setup -------------------------------------------------------------------

    def _make_context(
        self,
        rank: int,
        rows: int,
        counts_label: str,
        observer: Optional[Observer],
        instrumented: bool,
        factory=_NodeCtx,
        plan: Optional[MemoryPlan] = None,
    ) -> _NodeCtx:
        """Execution state for one node given its row count.

        Everything here depends only on ``(rank, rows)`` (the
        ``counts_label`` only seeds RNG streams) — the compiled
        emulation plans (:mod:`repro.sim.plan_sim`) rely on this to
        record single ranks standalone, passing their recording
        context class as ``factory``.
        """
        program = self.program
        spec = self.cluster.nodes[rank]
        if plan is None:
            plan = self._plans([rank], [rows], instrumented)[0]
        resident = plan.resident_bytes + program.replicated_bytes
        disk = DiskModel(
            spec,
            resident_bytes=resident,
            cache_enabled=self.perturbation.os_read_cache,
        )
        for name, placement in plan.placements.items():
            if not placement.in_core:
                disk.register_variable(name, placement.ocla_bytes)
        return factory(
            rank,
            spec,
            self.cluster.network,
            disk,
            plan,
            observer,
            self._perturbation_model(rank, counts_label, instrumented),
            program.replicated_bytes,
        )

    def _perturbation_model(
        self, rank: int, counts_label: str, instrumented: bool
    ) -> PerturbationModel:
        """The RNG-bearing perturbation sampler of one node in one run."""
        return PerturbationModel(
            self.perturbation,
            run_labels=(
                self.cluster.name,
                self.program.name,
                counts_label,
                rank,
                "instr" if instrumented else "run",
            ),
        )

    def _make_contexts(
        self,
        distribution: GenBlock,
        observer: Optional[Observer],
        instrumented: bool,
    ) -> List[_NodeCtx]:
        label = "x".join(map(str, distribution.counts))
        ranks = range(self.cluster.n_nodes)
        plans = self._plans(ranks, distribution.counts, instrumented)
        return [
            self._make_context(
                rank, distribution[rank], label, observer, instrumented,
                plan=plans[rank],
            )
            for rank in ranks
        ]

    def _plans(self, ranks, rows, instrumented: bool) -> List[MemoryPlan]:
        """Memory plans of ``ranks`` holding ``rows``, in one pass."""
        overhead = self.perturbation.runtime_overhead
        return plan_memory_arrays(
            self.program, rows,
            [self.cluster.nodes[r].memory_bytes for r in ranks],
            forced_out_of_core=instrumented,
            **(emulator_policy(self.program) if overhead else {}),
        ).plans()

    # -- node program ---------------------------------------------------------------

    def _node_process(
        self, ctx, contexts, distribution, n_iter, instrumented,
        timeline=None, offset=0, io_override=None,
    ):
        program = self.program
        for local_it in range(n_iter):
            it = local_it + offset
            if timeline is not None:
                ctx.dyn_compute = timeline.compute_multiplier(ctx.rank, it)
                ctx.disk.slowdown = timeline.disk_slowdown(ctx.rank, it)
            for si, section in enumerate(program.sections):
                yield from self._run_section(
                    ctx, distribution, it, si, section, instrumented,
                    io_override,
                )
            ctx.end_iteration(it)

    def _run_section(
        self, ctx, distribution, it, si, section, instrumented,
        io_override=None,
    ):
        pattern = section.comm.pattern
        rank = ctx.rank
        P = self.cluster.n_nodes

        if pattern is CommPattern.PIPELINE and P > 1:
            nbytes = section.comm.message_bytes
            for tile in range(section.tiles):
                if rank > 0:
                    yield from ctx.recv_msg(
                        rank - 1, f"{it}:{si}:pipe:{tile}", it, section.name
                    )
                yield from self._run_stages(
                    ctx, distribution, it, si, section, tile, instrumented,
                    io_override,
                )
                if rank < P - 1:
                    yield from ctx.send_msg(
                        rank + 1,
                        f"{it}:{si}:pipe:{tile}",
                        nbytes,
                        it,
                        section.name,
                    )
            return

        for tile in range(section.tiles):
            yield from self._run_stages(
                ctx, distribution, it, si, section, tile, instrumented,
                io_override,
            )

        if P == 1 or pattern is CommPattern.NONE:
            return
        if pattern is CommPattern.NEAREST_NEIGHBOR:
            yield from self._nearest_neighbor(ctx, it, si, section)
        elif pattern is CommPattern.REDUCTION:
            yield from self._reduce_bcast(ctx, it, si, section)
        elif pattern is CommPattern.ALLGATHER:
            yield from self._allgather(ctx, it, si, section)
        elif pattern is CommPattern.PIPELINE:
            return  # single node: nothing to pipe to
        else:  # pragma: no cover - exhaustiveness guard
            raise SimulationError(f"unknown pattern {pattern}")

    # -- communication patterns ---------------------------------------------------

    def _nn_disk_source(self, ctx, section) -> Optional[str]:
        """Disk source for boundary messages: the section's source
        variable, when it is out of core on this node."""
        src = section.comm.source_variable
        if src is None:
            return None
        placement = ctx.plan.placements.get(src)
        if placement is not None and not placement.in_core:
            return src
        return None

    def _nearest_neighbor(self, ctx, it, si, section):
        rank, P = ctx.rank, self.cluster.n_nodes
        nbytes = section.comm.message_bytes
        disk_source = self._nn_disk_source(ctx, section)
        neighbors = [r for r in (rank - 1, rank + 1) if 0 <= r < P]
        for nb in neighbors:
            yield from ctx.send_msg(
                nb, f"{it}:{si}:nn", nbytes, it, section.name, disk_source
            )
        for nb in neighbors:
            yield from ctx.recv_msg(nb, f"{it}:{si}:nn", it, section.name)

    def _reduce_bcast(self, ctx, it, si, section):
        """Binomial-tree reduce to node 0, binomial broadcast back."""
        rank, P = ctx.rank, self.cluster.n_nodes
        nbytes = section.comm.message_bytes
        start = ctx.now
        mask = 1
        while mask < P:
            if rank & mask:
                yield from ctx.send_msg(
                    rank - mask, f"{it}:{si}:red:{mask}", nbytes, it, section.name
                )
                break
            partner = rank | mask
            if partner < P:
                yield from ctx.recv_msg(
                    partner, f"{it}:{si}:red:{mask}", it, section.name
                )
            mask <<= 1
        pot = 1
        while pot < P:
            pot <<= 1
        mask = pot >> 1
        while mask > 0:
            if rank % (2 * mask) == 0:
                if rank + mask < P:
                    yield from ctx.send_msg(
                        rank + mask, f"{it}:{si}:bc:{mask}", nbytes, it, section.name
                    )
            elif rank % (2 * mask) == mask:
                yield from ctx.recv_msg(
                    rank - mask, f"{it}:{si}:bc:{mask}", it, section.name
                )
            mask >>= 1
        ctx.observe(
            Op.COLLECTIVE, it, section.name, 0, None, None, start, nbytes
        )

    def _allgather(self, ctx, it, si, section):
        """Ring allgather: P-1 steps, passing a fixed chunk around."""
        rank, P = ctx.rank, self.cluster.n_nodes
        nbytes = section.comm.message_bytes
        start = ctx.now
        right = (rank + 1) % P
        left = (rank - 1) % P
        for step in range(P - 1):
            yield from ctx.send_msg(
                right, f"{it}:{si}:ag:{step}", nbytes, it, section.name
            )
            yield from ctx.recv_msg(left, f"{it}:{si}:ag:{step}", it, section.name)
        ctx.observe(
            Op.COLLECTIVE, it, section.name, 0, None, None, start, nbytes
        )

    # -- stages -------------------------------------------------------------------

    def _stage_base_seconds(self, ctx, it, stage, tile_lo, tile_hi) -> float:
        """Noise-free ground-truth compute seconds (nominal times the
        deterministic cache factor) for one stage on one tile's rows
        during iteration ``it``; :meth:`_NodeCtx.stage_seconds` adds
        the stochastic effects.

        The stage's ``fixed_work`` is an aggregate cost distributed with
        the global rows (a zero-row node does none of it), keeping all
        ground-truth work in the row-proportional regime MHETA models.
        """
        program = self.program
        if self.perturbation.sparse_weights and program.row_weights is not None:
            weight = program.weight_of_rows(tile_lo, tile_hi)
        else:
            weight = float(tile_hi - tile_lo)
        row_fraction = (tile_hi - tile_lo) / program.n_rows
        work = stage.work_per_row * weight + stage.fixed_work * row_fraction
        if it < program.iterations:
            work *= program.iteration_multiplier(it)
        nominal = ctx.spec.compute_seconds(work)
        ws = self._working_set_bytes(ctx, stage)
        return nominal * ctx.perturb.compute_factor(ctx.spec, ws)

    def _working_set_bytes(self, ctx, stage: Stage) -> float:
        ws = float(ctx.replicated_bytes)
        for name in stage.touched:
            placement = ctx.plan.placements.get(name)
            if placement is None:
                continue  # replicated, already counted
            ws += placement.local_bytes if placement.in_core else placement.icla_bytes
        return ws

    def _run_stages(
        self, ctx, distribution, it, si, section, tile, instrumented,
        io_override=None,
    ):
        start_row, stop_row = distribution.rows_of(ctx.rank)
        tile_lo, tile_hi = _tile_bounds(start_row, stop_row, section.tiles, tile)
        for stage in section.stages:
            yield from self._run_stage(
                ctx, it, section, stage, tile, tile_lo, tile_hi,
                instrumented, io_override,
            )

    def _run_stage(
        self, ctx, it, section, stage, tile, tile_lo, tile_hi,
        instrumented, io_override=None,
    ):
        program = self.program
        total_compute = ctx.stage_seconds(
            self._stage_base_seconds(ctx, it, stage, tile_lo, tile_hi)
        )
        var_map = program.variable_map

        def _ooc(name: str) -> bool:
            p = ctx.plan.placements.get(name)
            return p is not None and not p.in_core

        reads_ooc = [v for v in stage.reads if _ooc(v)]
        writes_ooc = [v for v in stage.writes if _ooc(v)]
        primary = reads_ooc[0] if reads_ooc else None
        tile_rows = tile_hi - tile_lo

        # Secondary out-of-core reads: streamed synchronously up front.
        for name in reads_ooc[1:]:
            yield from self._stream_var(
                ctx, name, tile_rows, it, section.name, tile, stage.name, write=False
            )

        if primary is None or tile_rows == 0:
            yield from ctx.compute(
                total_compute, it, section.name, tile, stage.name
            )
        else:
            write_back = primary in stage.writes and var_map[primary].writes_back
            prefetch = (
                program.prefetch if io_override is None else io_override
            )
            use_prefetch = prefetch and not instrumented
            yield from self._primary_loop(
                ctx,
                primary,
                tile_rows,
                total_compute,
                write_back,
                use_prefetch,
                it,
                section.name,
                tile,
                stage.name,
            )

        # Remaining out-of-core writes stream out after the compute
        # (the primary read-write variable was written back block by block).
        for name in writes_ooc:
            if name == primary:
                continue
            yield from self._stream_var(
                ctx, name, tile_rows, it, section.name, tile, stage.name,
                write=True, read=False,
            )

    def _blocks(self, ctx, name: str, tile_rows: int) -> List[int]:
        """Row counts of the ICLA blocks streaming ``tile_rows`` of ``name``."""
        block_rows = ctx.plan.placements[name].block_rows
        blocks = []
        remaining = tile_rows
        while remaining > 0:
            take = min(block_rows, remaining)
            blocks.append(take)
            remaining -= take
        return blocks

    def _stream_var(
        self, ctx, name, tile_rows, it, section, tile, stage, *,
        write: bool, read: bool = True,
    ):
        """Synchronously stream a variable's tile share block by block."""
        if tile_rows == 0:
            return
        row_bytes = self.program.variable(name).row_bytes
        for rows in self._blocks(ctx, name, tile_rows):
            nbytes = rows * row_bytes
            if read:
                yield from ctx.sync_read(name, nbytes, it, section, tile, stage, rows)
            if write:
                yield from ctx.sync_write(name, nbytes, it, section, tile, stage, rows)

    def _primary_loop(
        self, ctx, name, tile_rows, total_compute, write_back, use_prefetch,
        it, section, tile, stage,
    ):
        """Stream the primary variable, interleaving the stage's compute.

        Synchronous: read block, compute its share, write it back.
        Prefetching: the unrolled loop of paper Figure 6 — read block 1,
        then issue the next read asynchronously while computing on the
        current block.
        """
        row_bytes = self.program.variable(name).row_bytes
        blocks = self._blocks(ctx, name, tile_rows)

        if not use_prefetch or len(blocks) == 1:
            for rows in blocks:
                nbytes = rows * row_bytes
                yield from ctx.sync_read(name, nbytes, it, section, tile, stage, rows)
                yield from ctx.compute(
                    total_compute, it, section, tile, stage, rows, tile_rows
                )
                if write_back:
                    yield from ctx.sync_write(
                        name, nbytes, it, section, tile, stage, rows
                    )
            return

        # Unrolled prefetch loop.
        nbytes0 = blocks[0] * row_bytes
        yield from ctx.sync_read(name, nbytes0, it, section, tile, stage, blocks[0])
        for i in range(1, len(blocks)):
            nbytes = blocks[i] * row_bytes
            done = yield from ctx.prefetch_issue(
                name, nbytes, it, section, tile, stage, blocks[i]
            )
            # Overlapping computation on the previous block.
            yield from ctx.compute(
                total_compute, it, section, tile, stage, blocks[i - 1], tile_rows
            )
            yield from ctx.prefetch_wait(
                done, name, nbytes, it, section, tile, stage, blocks[i]
            )
            if write_back:
                prev_bytes = blocks[i - 1] * row_bytes
                yield from ctx.sync_write(
                    name, prev_bytes, it, section, tile, stage, blocks[i - 1]
                )
        yield from ctx.compute(
            total_compute, it, section, tile, stage, blocks[-1], tile_rows
        )
        if write_back:
            last_bytes = blocks[-1] * row_bytes
            yield from ctx.sync_write(
                name, last_bytes, it, section, tile, stage, blocks[-1]
            )


# -- module-level convenience ---------------------------------------------------


def _copy_result(result: RunResult) -> RunResult:
    """Fresh copy with private mutable lists (cache-safe to hand out)."""
    return dataclasses.replace(
        result,
        per_node_seconds=list(result.per_node_seconds),
        iteration_ends=[list(ends) for ends in result.iteration_ends],
    )


def emulate(
    cluster: ClusterSpec,
    program: ProgramStructure,
    distribution: GenBlock,
    *,
    iterations: Optional[int] = None,
    io_mode: str = "auto",
    perturbation: Optional[PerturbationConfig] = None,
    dynamics=None,
    fast_forward: Optional[bool] = None,
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
            fast_forward=fast_forward,
            observer=observer,
            telemetry=telemetry,
            iteration_offset=iteration_offset,
        )

    from repro.parallel.cache import RunCache, default_run_cache

    store = default_run_cache() if run_cache is None else run_cache
    use_fast = _FAST_FORWARD_DEFAULT if fast_forward is None else bool(fast_forward)
    key = RunCache.key(
        cluster,
        program,
        distribution,
        n_iter,
        emulator.perturbation,
        instrumented=instr,
        fast_forward=use_fast,
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
        fast_forward=fast_forward,
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
    fast_forward: Optional[bool] = None,
    run_cache: Union[None, bool, "object"] = None,
    telemetry=None,
    iteration_offset: int = 0,
) -> List[RunResult]:
    """Emulate a whole population of candidates in one batched pass.

    The results are bit-identical to looping :func:`emulate` over
    ``distributions`` (pinned by the golden batch suite): the batch
    resolves the routing gate and the compiled
    :class:`~repro.sim.plan_sim.EmulationPlan` once, candidates share
    the plan's memoised per-rank op tapes, and every candidate the
    plan cannot serve runs the engine — the routes of
    :meth:`ClusterEmulator.run`, only amortised differently.

    Keywords mirror :func:`emulate` (``io_mode``, ``dynamics``,
    ``iteration_offset``); dynamic, background-loaded, offset and short
    batches are plan-served like single runs, every iteration
    replayed.  The run cache is consulted up front
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
    use_fast = _FAST_FORWARD_DEFAULT if fast_forward is None else bool(fast_forward)

    store = None
    if run_cache is not False:
        from repro.parallel.cache import default_run_cache

        store = default_run_cache() if run_cache is None else run_cache

    results: List[Optional[RunResult]] = [None] * len(distributions)
    keys: List[Optional[str]] = [None] * len(distributions)
    cache_hits = 0
    if store is not None:
        from repro.parallel.cache import RunCache

        base = RunCache.key_base(
            cluster,
            program,
            n_iter,
            emulator.perturbation,
            instrumented=instr,
            fast_forward=use_fast,
            dynamics=dyn,
            io_mode=io_mode,
            iteration_offset=iteration_offset,
        )
        for i, dist in enumerate(distributions):
            keys[i] = RunCache.key_from_base(base, dist.counts)
            hit = store.get(keys[i])
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
    fallbacks = 0
    if pending:
        reason = None
        if use_fast:
            reason = emulator._plan_refusal(None, instr, io_override)
        for i in pending:
            dist = distributions[i]
            result = None
            if use_fast and reason is None:
                result, why = emulator._plan_result(
                    dist, n_iter, iteration_offset, telemetry
                )
            else:
                why = reason
            if result is not None:
                plan_served += 1
            else:
                result = emulator._engine_run(
                    dist, n_iter, instr, io_override, iteration_offset,
                    None, telemetry, why,
                )
                fallbacks += 1
            results[i] = result

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
        telemetry.count("sim/batch/fallbacks", fallbacks)
        if store is not None:
            telemetry.count("sim/run_cache/hits", cache_hits)
            telemetry.count("sim/run_cache/misses", len(pending))
    return results
