"""Execution trace records emitted by the emulator.

The instrumentation layer (:mod:`repro.instrument`) consumes these the
way MPI-Jack consumes PMPI callbacks in the paper: each record carries
the ids of the enclosing parallel section, tile and stage, the variable
involved, and the measured duration.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

__all__ = [
    "Op",
    "ALL_OPS",
    "EventRecord",
    "TraceCollector",
    "PhaseAccumulator",
    "chain_observers",
]


class Op:
    """Kinds of traced operations (string constants, not an enum, so the
    hot emulator path avoids enum overhead)."""

    COMPUTE = "compute"
    READ = "read"
    WRITE = "write"
    PREFETCH_ISSUE = "prefetch_issue"
    PREFETCH_WAIT = "prefetch_wait"
    SEND = "send"
    RECV = "recv"
    COLLECTIVE = "collective"
    ITERATION_END = "iteration_end"


#: Every kind of traced operation.
ALL_OPS = frozenset({
    Op.COMPUTE, Op.READ, Op.WRITE, Op.PREFETCH_ISSUE, Op.PREFETCH_WAIT,
    Op.SEND, Op.RECV, Op.COLLECTIVE, Op.ITERATION_END,
})


@dataclass(frozen=True, slots=True)
class EventRecord:
    """One traced operation."""

    op: str
    node: int
    iteration: int
    section: str
    tile: int
    stage: Optional[str]
    variable: Optional[str]
    start: float
    end: float
    nbytes: float = 0.0
    rows: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


Observer = Callable[[EventRecord], None]


class TraceCollector:
    """An observer that stores every record (tests, debugging).

    Records are additionally indexed by op kind, node and iteration as
    they arrive, so the accessor methods are O(result) instead of
    rescanning the full trace on every call — instrumentation-heavy
    tests and :mod:`repro.instrument` query these thousands of times.
    """

    def __init__(self) -> None:
        self.records: List[EventRecord] = []
        self._by_op: Dict[str, List[EventRecord]] = defaultdict(list)
        self._by_node: Dict[int, List[EventRecord]] = defaultdict(list)
        self._by_iteration: Dict[int, List[EventRecord]] = defaultdict(list)

    def __call__(self, record: EventRecord) -> None:
        self.records.append(record)
        self._by_op[record.op].append(record)
        self._by_node[record.node].append(record)
        self._by_iteration[record.iteration].append(record)

    def of_kind(self, op: str) -> List[EventRecord]:
        return list(self._by_op.get(op, ()))

    def for_node(self, node: int) -> List[EventRecord]:
        return list(self._by_node.get(node, ()))

    def for_iteration(self, iteration: int) -> List[EventRecord]:
        return list(self._by_iteration.get(iteration, ()))

    def total(self, op: str, node: Optional[int] = None) -> float:
        """Sum of durations of ``op`` records (optionally one node's)."""
        records = self._by_op.get(op, ())
        if node is None:
            return sum(r.end - r.start for r in records)
        return sum(r.end - r.start for r in records if r.node == node)


class PhaseAccumulator:
    """An observer that folds the event stream into per-node phase
    totals instead of storing records.

    Each record adds its duration to the ``(node, op)`` cell —
    constant memory however long the run — and ``ITERATION_END``
    records count completed iterations per node, so per-iteration phase
    means are ``totals[(n, op)] / iterations[n]``.  This is what the
    telemetry layer chains onto an engine run's record stream; unlike
    :class:`TraceCollector` it is safe to leave attached to long runs.
    """

    def __init__(self) -> None:
        self.totals: Dict[tuple, float] = defaultdict(float)
        self.counts: Dict[tuple, int] = defaultdict(int)
        self.iterations: Dict[int, int] = defaultdict(int)

    def __call__(self, record: EventRecord) -> None:
        key = (record.node, record.op)
        self.totals[key] += record.end - record.start
        self.counts[key] += 1
        if record.op == Op.ITERATION_END:
            self.iterations[record.node] += 1

    def record_into(self, rec, prefix: str = "sim") -> None:
        """Dump the accumulated phases into a ``repro.obs`` recorder:
        per-node gauges (``sim/node0/read/seconds``), per-op aggregate
        counters, and per-node iteration counts."""
        per_op_seconds: Dict[str, float] = defaultdict(float)
        per_op_events: Dict[str, int] = defaultdict(int)
        for (node, op), seconds in sorted(self.totals.items()):
            events = self.counts[(node, op)]
            rec.set(f"{prefix}/node{node}/{op}/seconds", seconds)
            rec.count(f"{prefix}/node{node}/{op}/events", events)
            per_op_seconds[op] += seconds
            per_op_events[op] += events
        for op, seconds in sorted(per_op_seconds.items()):
            rec.observe(
                f"{prefix}/phase/{op}", seconds, per_op_events[op]
            )
        for node, iters in sorted(self.iterations.items()):
            rec.set(f"{prefix}/node{node}/iterations", iters)


def observed_kinds(*observers: Optional[Observer]) -> frozenset:
    """The op kinds whose records ``observers`` read: the ``kinds`` an
    observer names (a :class:`~repro.instrument.hooks.HookRegistry`
    does), every kind for any other observer (a
    :class:`PhaseAccumulator` or :class:`TraceCollector` reads them
    all), none for ``None`` entries.  An emulator marks only these
    ops, so records of other kinds are never built."""
    kinds: frozenset = frozenset()
    for obs in observers:
        if obs is not None:
            kinds |= getattr(obs, "kinds", ALL_OPS)
    return kinds


def chain_observers(*observers: Optional[Observer]) -> Optional[Observer]:
    """Compose observers into one callback (``None`` entries dropped);
    returns the single survivor unwrapped, or ``None`` when empty."""
    live = [obs for obs in observers if obs is not None]
    if not live:
        return None
    if len(live) == 1:
        return live[0]

    def chained(record: EventRecord) -> None:
        for obs in live:
            obs(record)

    return chained
