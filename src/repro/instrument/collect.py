"""Collect MHETA inputs from one instrumented iteration.

The instrumented iteration runs the real application (on the emulator)
with three changes, matching paper Section 4.1:

* every distributed variable is **forced out of core** so read/write
  latencies exist even for data that happens to fit in memory under the
  instrumented distribution;
* prefetch issues are turned into **blocking reads** and waits into
  no-ops, so both the read latency and the overlap computation ``To``
  can be timed precisely (Figure 5);
* pre/post hooks time every I/O call and every stage (Figure 3).

Timers are not free: every recorded duration is perturbed by a small
multiplicative bias plus an absolute timer overhead
(:class:`MeasurementConfig`).  The paper reports this perturbation costs
MHETA up to ~1% even when predicting the instrumented distribution
itself (Section 5.2.1); the self-prediction benchmark checks ours stays
in that band.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.cluster.cluster import ClusterSpec
from repro.distribution.genblock import GenBlock
from repro.exceptions import InstrumentationError
from repro.instrument.hooks import HookRegistry
from repro.instrument.inputs import (
    MhetaInputs,
    NodeCosts,
    StageCost,
    VariableIOCost,
)
from repro.instrument.microbench import Microbenchmarks, run_microbenchmarks
from repro.program.structure import ProgramStructure
from repro.sim.executor import ClusterEmulator, RunResult
from repro.sim.perturbation import PerturbationConfig
from repro.sim.trace import EventRecord, Op
from repro.util.rng import stream

__all__ = ["MeasurementConfig", "collect_inputs"]


@dataclass(frozen=True)
class MeasurementConfig:
    """How imperfect the instrumentation timers are."""

    relative_bias: float = 0.004  #: timers systematically read slightly long
    relative_sigma: float = 0.003  #: per-measurement jitter
    timer_overhead: float = 2e-6  #: absolute seconds added per measurement

    @classmethod
    def perfect(cls) -> "MeasurementConfig":
        """Idealised timers (used to validate the model equations)."""
        return cls(relative_bias=0.0, relative_sigma=0.0, timer_overhead=0.0)


#: The ``[seconds, bytes, accesses]`` cell of an unaccessed variable.
_NO_IO = (0.0, 0.0, 0)


class _Accumulator:
    """Aggregates hook records into per-node costs.

    Each hook queues its record's cell and true duration; :meth:`settle`
    then draws the timer jitter of the whole run as one vector, one
    normal per queued record in arrival order (the same values as one
    scalar draw per record), and folds the measured durations into
    their cells in that order.
    """

    def __init__(self, measurement: MeasurementConfig, rng) -> None:
        self._m = measurement
        self._rng = rng
        # (cell, true duration, bytes or None for a compute record)
        self._queued: list = []
        # (node, section, stage) -> [total_compute, n_records]
        self.compute: Dict[Tuple[int, str, str], list] = defaultdict(
            lambda: [0.0, 0]
        )
        # (node, var, kind) -> [total_seconds, total_bytes, n_accesses]
        self.io: Dict[Tuple[int, str, str], list] = defaultdict(
            lambda: [0.0, 0.0, 0]
        )

    def on_compute(self, record: EventRecord) -> None:
        if record.stage is None:
            return
        cell = self.compute[(record.node, record.section, record.stage)]
        self._queued.append((cell, record.duration, None))

    def on_read(self, record: EventRecord) -> None:
        if record.variable is None:
            return
        cell = self.io[(record.node, record.variable, "read")]
        self._queued.append((cell, record.duration, record.nbytes))

    def on_write(self, record: EventRecord) -> None:
        if record.variable is None:
            return
        cell = self.io[(record.node, record.variable, "write")]
        self._queued.append((cell, record.duration, record.nbytes))

    def settle(self) -> None:
        """Measure every queued record: ``true * (1 + bias + jitter) +
        overhead`` into its cell."""
        m, queued = self._m, self._queued
        rels = (
            m.relative_bias + self._rng.normal(0.0, m.relative_sigma, len(queued))
        ).tolist()
        for (cell, duration, nbytes), rel in zip(queued, rels):
            cell[0] += duration * (1.0 + rel) + m.timer_overhead
            if nbytes is None:
                cell[1] += 1
            else:
                cell[1] += nbytes
                cell[2] += 1
        queued.clear()


def _measure(emulator, distribution, measurement: MeasurementConfig, rng):
    """Run ``emulator``'s instrumented iteration under ``distribution``
    with timer hooks on every compute, read and write: ``(accumulator,
    run)``.  The run marks and records only those three op kinds."""
    acc = _Accumulator(measurement, rng)
    hooks = HookRegistry()
    hooks.register(Op.COMPUTE, acc.on_compute)
    hooks.register(Op.READ, acc.on_read)
    hooks.register(Op.WRITE, acc.on_write)
    run = emulator.run(
        distribution, observer=hooks, io_mode="instrumented", iterations=1
    )
    acc.settle()
    return acc, run


def _per_byte(cell, seek: float, unmeasured: float) -> float:
    """Seconds per byte of one ``[seconds, bytes, accesses]`` I/O cell,
    net of one seek per access; ``unmeasured`` when no byte moved."""
    seconds, nbytes, accesses = cell
    if nbytes > 0:
        return max(seconds - accesses * seek, 0.0) / nbytes
    return unmeasured


def collect_inputs(
    cluster: ClusterSpec,
    program: ProgramStructure,
    distribution0: GenBlock,
    *,
    perturbation: Optional[PerturbationConfig] = None,
    measurement: Optional[MeasurementConfig] = None,
    micro: Optional[Microbenchmarks] = None,
) -> MhetaInputs:
    """Run the instrumented iteration and return the internal MHETA file.

    ``distribution0`` is the distribution the instrumented iteration uses
    (the paper instruments under ``Blk``).  ``micro`` may be supplied to
    reuse previously measured microbenchmarks.
    """
    return _collect(
        cluster, program, distribution0, perturbation=perturbation,
        measurement=measurement, micro=micro,
    )[0]


def _collect(
    cluster: ClusterSpec,
    program: ProgramStructure,
    distribution0: GenBlock,
    *,
    perturbation: Optional[PerturbationConfig] = None,
    measurement: Optional[MeasurementConfig] = None,
    micro: Optional[Microbenchmarks] = None,
) -> Tuple[MhetaInputs, RunResult]:
    """:func:`collect_inputs`, plus the instrumented run it measured."""
    if distribution0.n_rows != program.n_rows:
        raise InstrumentationError(
            "instrumented distribution does not cover the program's rows"
        )
    measurement = measurement or MeasurementConfig()
    micro = micro or run_microbenchmarks(cluster)

    acc, run = _measure(
        ClusterEmulator(cluster, program, perturbation), distribution0,
        measurement, stream("measurement", cluster.name, program.name),
    )

    nodes = []
    for rank in range(cluster.n_nodes):
        stages: Dict[str, StageCost] = {}
        for section in program.sections:
            for stage in section.stages:
                total, count = acc.compute.get(
                    (rank, section.name, stage.name), (0.0, 0)
                )
                if count == 0:
                    continue
                overlap = total / count if program.prefetch and count > 1 else 0.0
                stages[NodeCosts.stage_key(section.name, stage.name)] = StageCost(
                    compute_seconds=total,
                    overlap_per_block=overlap,
                    blocks_measured=count,
                )
        io: Dict[str, VariableIOCost] = {}
        disk = micro.disks[rank]
        for variable in program.distributed_variables:
            read = acc.io.get((rank, variable.name, "read"), _NO_IO)
            write = acc.io.get((rank, variable.name, "write"), _NO_IO)
            if read[2] == 0 and write[2] == 0:
                continue
            io[variable.name] = VariableIOCost(
                read_seconds_per_byte=_per_byte(read, disk.read_seek, 0.0),
                write_seconds_per_byte=_per_byte(write, disk.write_seek, 0.0),
                bytes_observed=read[1] + write[1],
                accesses_observed=read[2] + write[2],
            )
        nodes.append(
            NodeCosts(rows0=distribution0[rank], stages=stages, io=io)
        )

    inputs = MhetaInputs(
        program_name=program.name,
        prefetch=program.prefetch,
        distribution0=tuple(distribution0.counts),
        micro=micro,
        nodes=tuple(nodes),
    )
    return inputs, run
