"""AdaptiveRuntime: instrument, search, redistribute, run — repeatedly.

The end-to-end system of paper Section 6, against the emulated cluster:

1. run the **first iteration instrumented** under the starting
   distribution (Blk unless told otherwise), paying the measured
   instrumented-iteration time;
2. build MHETA from the measurements and **search** for a better
   distribution (GBS by default; any
   :class:`~repro.search.base.SearchAlgorithm` works), paying the
   measured search wall time;
3. estimate the **redistribution cost** and switch only if it amortises
   over the remaining iterations;
4. run the remaining iterations under the chosen distribution.

On a *dynamic* cluster (a truthy
:class:`~repro.cluster.dynamics.DynamicsSpec`, attached to the cluster
or passed explicitly) the runtime earns its name: the remaining
iterations run in segments of ``check_interval``, each segment's
observed per-node times are compared against the current model's
per-node prediction, and when the worst relative deviation exceeds
``drift_threshold`` a new round fires — one instrumented iteration on
the cluster's *current* effective speeds, a fresh MHETA search, and a
redistribution charged against the predicted remaining gain.  Every
round is recorded as an :class:`AdaptiveRound` in the report.

The report compares the adaptive end-to-end time against staying on the
starting distribution — quantifying what the paper's proposed
infrastructure would buy.
"""

from __future__ import annotations

import dataclasses
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
from repro.sim.executor import _resolve_dynamics, emulate, emulate_many
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
    """Outcome of one adaptive run."""

    start_distribution: GenBlock
    chosen_distribution: GenBlock
    switched: bool
    instrumented_seconds: float  #: all instrumented iterations, summed
    search_wall_seconds: float  #: real time spent searching, summed
    search_evaluations: int
    redistribution_seconds: float  #: 0 when never switching
    remaining_seconds: float  #: plain (non-instrumented) iterations
    static_seconds: float  #: the whole run under the start distribution
    #: Sum of the rounds' segment predictions, so it predicts exactly
    #: what ``remaining_seconds`` measures.
    predicted_remaining_seconds: float
    #: Per-round records; a stationary run has exactly one round.
    rounds: Tuple[AdaptiveRound, ...] = ()

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
        return len(self.rounds) if self.rounds else 1

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
    to ``cluster``, an explicit spec overrides it, and ``False`` forces
    the static single-round protocol.  ``check_interval`` (iterations
    between drift checks) and ``drift_threshold`` (worst per-node
    relative deviation of observed vs predicted iteration time that
    fires a new round) only matter on dynamic clusters.
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
        """Execute the full adaptive protocol and report.

        ``telemetry`` (a :class:`repro.obs.Recorder`) receives the
        searcher's counters plus the protocol-level phase gauges
        (``adaptive/…``) when supplied.
        """
        rec = as_recorder(telemetry)
        program = self.program
        if start is None:
            start = block(self.cluster, program.n_rows)
        if self.dynamics is not None:
            return self._run_dynamic(start, rec, telemetry)

        # Every plain emulated phase goes through the shared
        # content-keyed run cache, so repeated adaptive experiments
        # (benchmark panels, variant comparisons) stop re-simulating
        # identical configurations.

        # 1. Instrumented first iteration (slower than a plain one: the
        # forced I/O and blocking prefetches are part of the price); the
        # run the measurements come from is the one the job pays for.
        inputs, instrumented_run = _collect(
            self.cluster, program, start, perturbation=self.perturbation
        )
        instrumented_seconds = instrumented_run.total_seconds

        # 2. Search with MHETA.
        model = MhetaModel(program, self.cluster, inputs)
        search = self._search or GeneralizedBinarySearch(model, self.cluster)
        wall_start = time.perf_counter()
        result = search.search(
            budget=self.search_budget, start=start, telemetry=telemetry
        )
        search_wall = time.perf_counter() - wall_start

        # 3. Amortisation decision.
        remaining = max(program.iterations - 1, 0)
        switch, redistribution_seconds = self._decide_switch(
            self.cluster, model, start, result.best, remaining
        )
        chosen = result.best if switch else start
        predicted_remaining = self._predict_segment(model, chosen, remaining)

        # 4. Remaining iterations under the chosen distribution.  Both
        # what-if candidates (stay vs switch) go through one batched
        # emulation pass — the plan walks them as a single (2, P)
        # recurrence and the RunCache dedups a kept start for free.
        if remaining:
            what_if = emulate_many(
                self.cluster,
                program,
                [start, result.best],
                perturbation=self.perturbation,
                iterations=remaining,
                telemetry=telemetry,
            )
            remaining_seconds = what_if[
                1 if chosen == result.best else 0
            ].total_seconds
        else:
            remaining_seconds = 0.0

        # Baseline: the whole job statically on the start distribution.
        static_seconds = emulate(
            self.cluster, program, start, perturbation=self.perturbation
        ).total_seconds

        if rec:
            rec.count("adaptive/runs")
            rec.set("adaptive/rounds", 1)
            rec.set("adaptive/instrumented_seconds", instrumented_seconds)
            rec.set("adaptive/search_wall_seconds", search_wall)
            rec.set("adaptive/redistribution_seconds", redistribution_seconds)
            rec.set("adaptive/remaining_seconds", remaining_seconds)
            rec.set("adaptive/static_seconds", static_seconds)
            rec.set("adaptive/switched", 1.0 if switch else 0.0)

        round0 = AdaptiveRound(
            index=0,
            at_iteration=0,
            trigger="start",
            drift=0.0,
            instrumented_seconds=instrumented_seconds,
            search_wall_seconds=search_wall,
            search_evaluations=result.evaluations,
            from_distribution=start,
            to_distribution=chosen,
            switched=switch,
            redistribution_seconds=redistribution_seconds,
            segment_seconds=remaining_seconds,
            iterations=remaining,
            predicted_seconds=predicted_remaining,
        )
        return AdaptiveReport(
            start_distribution=start,
            chosen_distribution=chosen,
            switched=switch,
            instrumented_seconds=instrumented_seconds,
            search_wall_seconds=search_wall,
            search_evaluations=result.evaluations,
            redistribution_seconds=redistribution_seconds,
            remaining_seconds=remaining_seconds,
            static_seconds=static_seconds,
            predicted_remaining_seconds=predicted_remaining,
            rounds=(round0,),
        )

    # -- dynamic clusters ---------------------------------------------------

    def _instrument_round(self, dist: GenBlock, iteration: int, telemetry):
        """One round's measurement pass: pay an instrumented iteration
        on the live (dynamic) cluster, then fit MHETA on the cluster's
        effective speeds at ``iteration``."""
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
        """Amortisation decision on a round's cluster (the live one, or
        a dynamic round's snapshot): one batched stay/move prediction
        over the ``remaining`` iterations and one redistribution
        estimate.  Returns ``(switch, redistribution seconds)``."""
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

    @staticmethod
    def _predict_segment(model, layout, iterations) -> float:
        """What ``model`` predicts for a segment of ``iterations`` plain
        iterations under ``layout`` (0 when nothing ran)."""
        if not iterations:
            return 0.0
        return model.predict(layout, iterations=iterations)

    def _run_dynamic(self, start, rec, telemetry) -> AdaptiveReport:
        """Multi-round protocol: segments of ``check_interval``
        iterations, drift checks against the round's model, and a fresh
        instrument-search-switch round whenever drift exceeds the
        threshold and enough iterations remain to pay for it."""
        program = self.program
        n_total = program.iterations
        n_nodes = self.cluster.n_nodes

        rounds: List[AdaptiveRound] = []
        current = start

        # Round 0 consumes iteration 0 (instrumented).
        (
            instrumented_seconds,
            snapshot,
            model,
            result,
            search_wall,
        ) = self._instrument_round(start, 0, telemetry)
        iteration = 1
        switch, redist_cost = self._decide_switch(
            snapshot, model, start, result.best, n_total - iteration
        )
        if switch:
            current = result.best
        rounds.append(
            AdaptiveRound(
                index=0,
                at_iteration=0,
                trigger="start",
                drift=0.0,
                instrumented_seconds=instrumented_seconds,
                search_wall_seconds=search_wall,
                search_evaluations=result.evaluations,
                from_distribution=start,
                to_distribution=current,
                switched=switch,
                redistribution_seconds=redist_cost,
                segment_seconds=0.0,
                iterations=0,
                predicted_seconds=0.0,
            )
        )
        # Per-node steady iteration seconds the current model expects
        # for the current layout — the drift reference.
        reference = model.predict(current, report=True)
        expected = [n.iteration_seconds for n in reference.nodes]

        segment_seconds = 0.0  # accumulated within the current round
        segment_iters = 0

        def close_round() -> None:
            rounds[-1] = dataclasses.replace(
                rounds[-1],
                segment_seconds=segment_seconds,
                iterations=segment_iters,
                predicted_seconds=self._predict_segment(
                    model, current, segment_iters
                ),
            )

        while iteration < n_total:
            seg = min(self.check_interval, n_total - iteration)
            seg_run = emulate(
                self.cluster,
                program,
                current,
                perturbation=self.perturbation,
                dynamics=self.dynamics,
                iterations=seg,
                iteration_offset=iteration,
                telemetry=telemetry,
            )
            segment_seconds += seg_run.total_seconds
            segment_iters += seg
            iteration += seg
            if iteration >= n_total:
                break

            observed = [
                seg_run.per_node_seconds[node] / seg for node in range(n_nodes)
            ]
            drift = max(
                abs(observed[node] - expected[node]) / expected[node]
                for node in range(n_nodes)
                if expected[node] > 0.0
            )
            # Re-instrumenting burns one of the remaining iterations;
            # with fewer than two left there is nothing to win back.
            if drift <= self.drift_threshold or n_total - iteration < 2:
                continue

            close_round()
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
            rounds.append(
                AdaptiveRound(
                    index=len(rounds),
                    at_iteration=at,
                    trigger="drift",
                    drift=drift,
                    instrumented_seconds=instrumented_seconds,
                    search_wall_seconds=search_wall,
                    search_evaluations=result.evaluations,
                    from_distribution=previous,
                    to_distribution=current,
                    switched=switch,
                    redistribution_seconds=redist_cost,
                    segment_seconds=0.0,
                    iterations=0,
                    predicted_seconds=0.0,
                )
            )
            reference = model.predict(current, report=True)
            expected = [n.iteration_seconds for n in reference.nodes]
            segment_seconds = 0.0
            segment_iters = 0

        close_round()

        # Baseline: the whole job statically on the start distribution,
        # under the same dynamics.
        static_seconds = emulate(
            self.cluster,
            program,
            start,
            perturbation=self.perturbation,
            dynamics=self.dynamics,
        ).total_seconds

        total_instrumented = sum(r.instrumented_seconds for r in rounds)
        total_search = sum(r.search_wall_seconds for r in rounds)
        total_redist = sum(r.redistribution_seconds for r in rounds)
        total_segments = sum(r.segment_seconds for r in rounds)
        switched = any(r.switched for r in rounds)

        if rec:
            rec.count("adaptive/runs")
            rec.set("adaptive/rounds", len(rounds))
            rec.set("adaptive/instrumented_seconds", total_instrumented)
            rec.set("adaptive/search_wall_seconds", total_search)
            rec.set("adaptive/redistribution_seconds", total_redist)
            rec.set("adaptive/remaining_seconds", total_segments)
            rec.set("adaptive/static_seconds", static_seconds)
            rec.set("adaptive/switched", 1.0 if switched else 0.0)

        return AdaptiveReport(
            start_distribution=start,
            chosen_distribution=current,
            switched=switched,
            instrumented_seconds=total_instrumented,
            search_wall_seconds=total_search,
            search_evaluations=sum(r.search_evaluations for r in rounds),
            redistribution_seconds=total_redist,
            remaining_seconds=total_segments,
            static_seconds=static_seconds,
            predicted_remaining_seconds=sum(
                r.predicted_seconds for r in rounds
            ),
            rounds=tuple(rounds),
        )
