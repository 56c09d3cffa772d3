"""MPI-Jack-style pre/post hook registry.

The paper's MPI-Jack tool [1] exploits PMPI to let arbitrary code run
before and after any intercepted MPI call (paper Figure 3).  Our
runtime's interposition point is the emulator's observer stream: every
I/O, computation and communication primitive emits an
:class:`~repro.sim.trace.EventRecord` on completion.  The registry
dispatches each record to the handlers registered for its operation
kind, giving collection code the same "hook functions" shape as the
paper's Figure 3 (variable id, stage id, tile id, parallel-section id,
measured duration).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, DefaultDict, List

from repro.sim.trace import ALL_OPS, EventRecord

__all__ = ["HookRegistry"]

Handler = Callable[[EventRecord], None]


class HookRegistry:
    """Dispatch emulator events to registered hooks.

    Use as the ``observer`` of :meth:`ClusterEmulator.run`::

        hooks = HookRegistry()
        hooks.register(Op.READ, record_read_latency)
        hooks.register_all(log_everything)
        emulator.run(distribution, observer=hooks)
    """

    def __init__(self) -> None:
        self._handlers: DefaultDict[str, List[Handler]] = defaultdict(list)
        self._catch_all: List[Handler] = []

    def register(self, op: str, handler: Handler) -> None:
        """Call ``handler`` after every completed operation of kind ``op``."""
        self._handlers[op].append(handler)

    def register_all(self, handler: Handler) -> None:
        """Call ``handler`` after every completed operation."""
        self._catch_all.append(handler)

    def unregister(self, op: str, handler: Handler) -> None:
        """Remove a previously registered handler (no-op if absent)."""
        try:
            self._handlers[op].remove(handler)
        except ValueError:
            pass

    @property
    def kinds(self) -> frozenset:
        """The op kinds some hook reads (every kind once a catch-all
        hook is registered): an emulator builds records of these kinds
        only."""
        if self._catch_all:
            return ALL_OPS
        return frozenset(op for op, handlers in self._handlers.items() if handlers)

    def __call__(self, record: EventRecord) -> None:
        for handler in self._handlers.get(record.op, ()):  # post hooks
            handler(record)
        for handler in self._catch_all:
            handler(record)
