"""AdaptiveRuntime: instrument, search, redistribute, run — in rounds.

The end-to-end system of paper Section 6, against the emulated cluster,
is one loop of rounds.  Each round

1. runs one **instrumented iteration** under the current distribution
   (Blk at the start unless told otherwise), paying the measured
   instrumented-iteration time;
2. builds MHETA from the measurements and **searches** for a better
   distribution (GBS by default; any
   :class:`~repro.search.base.SearchAlgorithm` works), paying the
   measured search wall time;
3. estimates the **redistribution cost** and switches only if it
   amortises over the remaining iterations;
4. runs plain iterations under the chosen distribution, in segments.

On a static cluster the first round runs every remaining iteration as
one segment, and the run ends there.  On a *dynamic* cluster (a truthy
:class:`~repro.cluster.dynamics.DynamicsSpec`, attached to the cluster
or passed explicitly) the runtime earns its name: the segments are
``check_interval`` iterations long, each segment's observed per-node
times are compared against the round's per-node prediction, and when
the worst relative deviation exceeds ``drift_threshold`` the next round
fires — measured on the cluster's *current* effective speeds.

The report is its rounds: every total is a sum over the
:class:`AdaptiveRound` records, and the adaptive end-to-end time is
compared against staying on the starting distribution — quantifying
what the paper's proposed infrastructure would buy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cluster.cluster import ClusterSpec
from repro.core.model import MhetaModel
from repro.distribution.factories import block
from repro.distribution.genblock import GenBlock
from repro.instrument.collect import _collect, collect_inputs
from repro.obs import Recorder, as_recorder
from repro.program.structure import ProgramStructure
from repro.runtime.redistribution import RedistributionModel
from repro.search.base import SearchAlgorithm
from repro.search.gbs import GeneralizedBinarySearch
# ``emulate``, ``emulate_many`` and ``collect_inputs`` stay attributes of
# this module, looked up at call time: the end-to-end benchmark's tracer
# (``benchmarks/e2e/worker.py::install_patches``) patches them here by
# name.
from repro.sim.executor import _resolve_dynamics, emulate, emulate_many  # noqa: F401
from repro.sim.perturbation import PerturbationConfig
from repro.util.units import seconds_to_human

__all__ = ["AdaptiveReport", "AdaptiveRound", "AdaptiveRuntime"]


@dataclass(frozen=True)
class AdaptiveRound:
    """One instrument-search-(re)distribute round of an adaptive run."""

    index: int
    at_iteration: int  #: global iteration the round was triggered at
    trigger: str  #: ``"start"`` (round 0) or ``"drift"``
    drift: float  #: worst observed/predicted relative deviation seen
    instrumented_seconds: float
    search_wall_seconds: float
    search_evaluations: int
    from_distribution: GenBlock
    to_distribution: GenBlock
    switched: bool
    redistribution_seconds: float
    #: Emulated seconds and count of the plain iterations this round's
    #: layout governed (until the next round fired, or the run ended).
    segment_seconds: float
    iterations: int
    #: The round's model prediction for that segment: its layout over
    #: its iterations (0 for an empty segment).
    predicted_seconds: float

    @property
    def overhead_seconds(self) -> float:
        """What the round cost on top of plain iterations."""
        return (
            self.instrumented_seconds
            + self.search_wall_seconds
            + self.redistribution_seconds
        )


@dataclass(frozen=True)
class AdaptiveReport:
    """Outcome of one adaptive run: its rounds, and every total summed
    over them in round order."""

    start_distribution: GenBlock
    static_seconds: float  #: the whole run under the start distribution
    #: Per-round records; a static or stationary run has exactly one.
    rounds: Tuple[AdaptiveRound, ...]

    @property
    def chosen_distribution(self) -> GenBlock:
        """The layout the last round left running."""
        return self.rounds[-1].to_distribution

    @property
    def switched(self) -> bool:
        return any(r.switched for r in self.rounds)

    @property
    def instrumented_seconds(self) -> float:
        return sum(r.instrumented_seconds for r in self.rounds)

    @property
    def search_wall_seconds(self) -> float:
        """Real time spent searching."""
        return sum(r.search_wall_seconds for r in self.rounds)

    @property
    def search_evaluations(self) -> int:
        return sum(r.search_evaluations for r in self.rounds)

    @property
    def redistribution_seconds(self) -> float:
        """0 when never switching."""
        return sum(r.redistribution_seconds for r in self.rounds)

    @property
    def remaining_seconds(self) -> float:
        """Plain (non-instrumented) iterations."""
        return sum(r.segment_seconds for r in self.rounds)

    @property
    def predicted_remaining_seconds(self) -> float:
        """The rounds' segment predictions, so it predicts exactly what
        ``remaining_seconds`` measures."""
        return sum(r.predicted_seconds for r in self.rounds)

    @property
    def adaptive_seconds(self) -> float:
        """End-to-end adaptive time, everything included."""
        return (
            self.instrumented_seconds
            + self.search_wall_seconds
            + self.redistribution_seconds
            + self.remaining_seconds
        )

    @property
    def speedup_vs_static(self) -> float:
        return self.static_seconds / self.adaptive_seconds

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    def describe(self) -> str:
        lines = [
            "Adaptive runtime report",
            f"  start distribution : {list(self.start_distribution.counts)}",
            f"  chosen distribution: {list(self.chosen_distribution.counts)}"
            + ("" if self.switched else "  (kept start)"),
            f"  instrumented iters : {seconds_to_human(self.instrumented_seconds)}",
            f"  search             : {seconds_to_human(self.search_wall_seconds)} "
            f"({self.search_evaluations} MHETA evaluations)",
            f"  redistribution     : {seconds_to_human(self.redistribution_seconds)}",
            f"  remaining iters    : {seconds_to_human(self.remaining_seconds)} "
            f"(predicted {seconds_to_human(self.predicted_remaining_seconds)})",
            f"  adaptive total     : {seconds_to_human(self.adaptive_seconds)}",
            f"  static total       : {seconds_to_human(self.static_seconds)}",
            f"  speedup            : {self.speedup_vs_static:.2f}x",
        ]
        if len(self.rounds) > 1:
            lines.append(f"  rounds             : {len(self.rounds)}")
            for r in self.rounds:
                action = (
                    f"-> {list(r.to_distribution.counts)}"
                    if r.switched
                    else "kept layout"
                )
                lines.append(
                    f"    [{r.index}] it={r.at_iteration} {r.trigger}"
                    f" (drift {r.drift:.2f}) {action},"
                    f" overhead {seconds_to_human(r.overhead_seconds)},"
                    f" {r.iterations} iters in"
                    f" {seconds_to_human(r.segment_seconds)}"
                )
        return "\n".join(lines)


class AdaptiveRuntime:
    """The paper's proposed runtime system, on the emulated cluster.

    ``dynamics`` follows the emulator convention: ``None`` honours
    whatever :class:`~repro.cluster.dynamics.DynamicsSpec` is attached
    to ``cluster``, an explicit spec overrides it, and ``False`` runs
    the static protocol on the cluster without its attached dynamics.
    ``check_interval`` (iterations between drift checks) and
    ``drift_threshold`` (worst per-node relative deviation of observed
    vs predicted iteration time that fires a new round) only matter on
    dynamic clusters.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        program: ProgramStructure,
        perturbation: Optional[PerturbationConfig] = None,
        search: Optional[SearchAlgorithm] = None,
        search_budget: int = 120,
        safety_factor: float = 1.2,
        *,
        dynamics=None,
        check_interval: int = 10,
        drift_threshold: float = 0.25,
    ) -> None:
        if check_interval < 1:
            raise ValueError(
                f"check_interval must be >= 1, got {check_interval}"
            )
        if drift_threshold <= 0.0:
            raise ValueError(
                f"drift_threshold must be > 0, got {drift_threshold}"
            )
        self.cluster = cluster
        self.program = program
        self.perturbation = perturbation
        self._search = search
        self.search_budget = search_budget
        self.safety_factor = safety_factor
        self.dynamics = _resolve_dynamics(cluster, dynamics)
        self.check_interval = check_interval
        self.drift_threshold = drift_threshold

    def run(
        self,
        start: Optional[GenBlock] = None,
        *,
        telemetry: Optional[Recorder] = None,
    ) -> AdaptiveReport:
        """Execute the adaptive protocol and report.

        ``telemetry`` (a :class:`repro.obs.Recorder`) receives the
        searcher's counters plus the protocol-level phase gauges
        (``adaptive/…``) when supplied.
        """
        rec = as_recorder(telemetry)
        program = self.program
        n_total = program.iterations
        if start is None:
            start = block(self.cluster, program.n_rows)
        # The emulator convention: False leaves attached dynamics out.
        dynamics = self.dynamics or False
        # A static cluster runs everything after round 0 as one segment.
        interval = n_total if self.dynamics is None else self.check_interval

        rounds: List[AdaptiveRound] = []
        current = start
        iteration = 0
        trigger, drift = "start", 0.0
        while True:
            (
                instrumented_seconds,
                snapshot,
                model,
                result,
                search_wall,
            ) = self._instrument_round(current, iteration, telemetry)
            at = iteration
            iteration += 1  # the instrumented iteration
            switch, redist_cost = self._decide_switch(
                snapshot, model, current, result.best, n_total - iteration
            )
            previous = current
            if switch:
                current = result.best
            # Per-node steady iteration seconds the round's model
            # expects for its layout: the drift reference.
            expected = (
                [
                    n.iteration_seconds
                    for n in model.predict(current, report=True).nodes
                ]
                if self.dynamics is not None
                else None
            )

            segment_seconds = 0.0
            segment_iters = 0
            fired = None  # the drift that ends this round early
            while iteration < n_total:
                seg = min(interval, n_total - iteration)
                seg_run = emulate(
                    self.cluster,
                    program,
                    current,
                    perturbation=self.perturbation,
                    dynamics=dynamics,
                    iterations=seg,
                    iteration_offset=iteration,
                    telemetry=telemetry,
                )
                segment_seconds += seg_run.total_seconds
                segment_iters += seg
                iteration += seg
                # Re-instrumenting burns one of the remaining iterations;
                # with fewer than two left there is nothing to win back.
                if expected is None or n_total - iteration < 2:
                    continue
                worst = max(
                    abs(seg_run.per_node_seconds[node] / seg - want) / want
                    for node, want in enumerate(expected)
                    if want > 0.0
                )
                if worst > self.drift_threshold:
                    fired = worst
                    break

            rounds.append(
                AdaptiveRound(
                    index=len(rounds),
                    at_iteration=at,
                    trigger=trigger,
                    drift=drift,
                    instrumented_seconds=instrumented_seconds,
                    search_wall_seconds=search_wall,
                    search_evaluations=result.evaluations,
                    from_distribution=previous,
                    to_distribution=current,
                    switched=switch,
                    redistribution_seconds=redist_cost,
                    segment_seconds=segment_seconds,
                    iterations=segment_iters,
                    predicted_seconds=(
                        model.predict(current, iterations=segment_iters)
                        if segment_iters
                        else 0.0
                    ),
                )
            )
            if fired is None:
                break
            trigger, drift = "drift", fired

        # Baseline: the whole job on the start distribution, under the
        # same dynamics.
        static_seconds = emulate(
            self.cluster,
            program,
            start,
            perturbation=self.perturbation,
            dynamics=dynamics,
        ).total_seconds
        report = AdaptiveReport(
            start_distribution=start,
            static_seconds=static_seconds,
            rounds=tuple(rounds),
        )
        if rec:
            rec.count("adaptive/runs")
            rec.set("adaptive/rounds", report.n_rounds)
            rec.set("adaptive/instrumented_seconds", report.instrumented_seconds)
            rec.set("adaptive/search_wall_seconds", report.search_wall_seconds)
            rec.set(
                "adaptive/redistribution_seconds",
                report.redistribution_seconds,
            )
            rec.set("adaptive/remaining_seconds", report.remaining_seconds)
            rec.set("adaptive/static_seconds", static_seconds)
            rec.set("adaptive/switched", 1.0 if report.switched else 0.0)
        return report

    def _instrument_round(self, dist: GenBlock, iteration: int, telemetry):
        """One round's measurement pass: pay an instrumented iteration
        at ``iteration``, fit MHETA on the cluster as it stands then,
        and search from ``dist``.

        A static round's measured run is the paid one, on the cluster
        without attached dynamics.  A dynamic round pays its iteration
        on the live cluster and measures the cluster's effective speeds
        at ``iteration``."""
        if self.dynamics is None:
            snapshot = (
                self.cluster.with_dynamics(None)
                if self.cluster.dynamics
                else self.cluster
            )
            inputs, instrumented_run = _collect(
                snapshot, self.program, dist, perturbation=self.perturbation
            )
        else:
            instrumented_run = emulate(
                self.cluster,
                self.program,
                dist,
                perturbation=self.perturbation,
                dynamics=self.dynamics,
                io_mode="instrumented",
                iterations=1,
                iteration_offset=iteration,
            )
            snapshot = self.dynamics.effective_cluster(self.cluster, iteration)
            inputs = collect_inputs(
                snapshot, self.program, dist, perturbation=self.perturbation
            )
        model = MhetaModel(self.program, snapshot, inputs)
        search = self._search or GeneralizedBinarySearch(model, snapshot)
        wall_start = time.perf_counter()
        result = search.search(
            budget=self.search_budget, start=dist, telemetry=telemetry
        )
        search_wall = time.perf_counter() - wall_start
        return (
            instrumented_run.total_seconds,
            snapshot,
            model,
            result,
            search_wall,
        )

    def _decide_switch(self, cluster, model, dist, candidate, remaining):
        """Amortisation decision on a round's cluster: one batched
        stay/move prediction over the ``remaining`` iterations and one
        redistribution estimate.  Returns ``(switch, redistribution
        seconds)``."""
        if remaining <= 0 or candidate == dist:
            return False, 0.0
        predicted_stay, predicted_move = model.predict(
            [dist, candidate], iterations=remaining, batch=True
        ).tolist()
        savings = (predicted_stay - predicted_move) / remaining
        cost = RedistributionModel(cluster, self.program)._switch_cost(
            dist, candidate, savings, remaining, self.safety_factor
        )
        if cost is None:
            return False, 0.0
        return True, cost
