"""A minimal generator-based discrete-event engine: the test oracle.

The library interprets op tapes in one flat event loop
(:func:`repro.sim.executor._run_tapes`); this engine, on which that
loop's semantics were first written, is what the tests check it
against (:mod:`tests.emulator_reference`).

Processes are Python generators that ``yield`` request objects:

* :class:`Delay`  — advance this process's clock by ``seconds``;
* :class:`Send`   — deposit a message for ``(dst, tag)``; the message is
  *delivered* after the in-flight transfer time, but the sender resumes
  immediately (send overhead is charged by the caller as a Delay);
* :class:`Recv`   — block until a matching message has been delivered,
  then resume with the message payload;
* :class:`Spawn`  — start a new process (used for asynchronous I/O).

Every resume sends the process its current simulation time, so helper
sub-generators can track ``now`` without global state.  The engine is
deterministic: ties in the event heap break by insertion sequence.

The dispatch loop (one call per yielded request) avoids
generic-but-slow constructs, so the oracle stays cheap to run: requests
dispatch through a type-keyed table instead of an ``isinstance`` chain,
generator startup is tracked with a per-pid flag instead of
``inspect.getgeneratorstate``, and the request/record dataclasses use
``slots``.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Generator, List, Optional, Set, Tuple

from repro.exceptions import SimulationError

__all__ = ["Delay", "Send", "Recv", "Spawn", "Engine"]

Process = Generator[Any, float, None]


@dataclass(frozen=True, slots=True)
class Delay:
    """Advance the yielding process by ``seconds`` of simulated time."""

    seconds: float

    def __post_init__(self) -> None:
        if self.seconds < 0 or self.seconds != self.seconds:  # NaN guard
            raise SimulationError(f"invalid delay: {self.seconds}")


@dataclass(frozen=True, slots=True)
class Send:
    """Deposit a message.

    ``transfer`` is the in-flight time: the message becomes available to
    the receiver at ``now + transfer``.  ``payload`` is handed to the
    matching :class:`Recv`.
    """

    dst: int
    tag: str
    transfer: float = 0.0
    payload: Any = None

    def __post_init__(self) -> None:
        if self.transfer < 0:
            raise SimulationError(f"negative transfer time: {self.transfer}")


@dataclass(frozen=True, slots=True)
class Recv:
    """Block until a message from ``src`` with ``tag`` is delivered."""

    src: int
    tag: str


@dataclass(frozen=True, slots=True)
class Spawn:
    """Start ``process`` as a sibling at the current time."""

    process: Process


@dataclass(slots=True)
class _Mailbox:
    """Messages delivered (or in flight) for one (dst, src, tag) channel."""

    queue: Deque[Tuple[float, Any]] = field(default_factory=deque)
    waiter: Optional[int] = None  # pid blocked on this channel


#: Type-keyed request dispatch: exact request classes map to small
#: integer codes checked in the hot loop.  Subclasses are admitted
#: lazily through :func:`_register_request_type` so the common case is
#: one dict lookup.
_DELAY, _SEND, _RECV, _SPAWN = 0, 1, 2, 3
_REQUEST_KIND: Dict[type, int] = {
    Delay: _DELAY,
    Send: _SEND,
    Recv: _RECV,
    Spawn: _SPAWN,
}


def _register_request_type(request: Any) -> Optional[int]:
    """Slow path for request types not yet in the dispatch table:
    subclasses of the four request kinds are registered under their
    concrete type; anything else returns ``None``."""
    for cls, kind in (
        (Delay, _DELAY),
        (Send, _SEND),
        (Recv, _RECV),
        (Spawn, _SPAWN),
    ):
        if isinstance(request, cls):
            _REQUEST_KIND[type(request)] = kind
            return kind
    return None


class Engine:
    """Run a set of processes to completion and report the end time.

    Parameters
    ----------
    trace_hook:
        Optional callable ``(time, pid, request)`` invoked for every
        request the engine dispatches; used by tests and debugging.
    """

    def __init__(self, trace_hook=None) -> None:
        self._heap: List[Tuple[float, int, int, Any]] = []
        self._seq = 0
        self._procs: Dict[int, Process] = {}
        self._mail: Dict[Tuple[int, int, str], _Mailbox] = {}
        self._pid_node: Dict[int, int] = {}
        self._finish_times: Dict[int, float] = {}
        self._started: Set[int] = set()
        self._next_pid = 0
        self._trace_hook = trace_hook
        self.now = 0.0

    # -- setup ---------------------------------------------------------------

    def add_process(self, process: Process, node: int, start: float = 0.0) -> int:
        """Register ``process`` as belonging to ``node``; it starts at
        ``start`` seconds.  Returns the process id."""
        pid = self._next_pid
        self._next_pid += 1
        self._procs[pid] = process
        self._pid_node[pid] = node
        self._push(start, pid)
        return pid

    def _push(self, time: float, pid: int) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, pid, None))

    def _push_with_value(self, time: float, pid: int, value: Any) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, pid, value))

    # -- mailboxes -----------------------------------------------------------

    def _box(self, dst: int, src: int, tag: str) -> _Mailbox:
        key = (dst, src, tag)
        box = self._mail.get(key)
        if box is None:
            box = _Mailbox()
            self._mail[key] = box
        return box

    # -- main loop -----------------------------------------------------------

    def run(self) -> float:
        """Dispatch until every process finishes.  Returns the latest
        finish time.  Raises :class:`SimulationError` on deadlock (blocked
        receivers with an empty event heap)."""
        heap = self._heap
        procs = self._procs
        pop = heapq.heappop
        advance = self._advance
        while heap:
            time, _, pid, value = pop(heap)
            if time < self.now - 1e-12:
                raise SimulationError("time went backwards (engine bug)")
            if time > self.now:
                self.now = time
            proc = procs.get(pid)
            if proc is None:
                continue
            advance(pid, proc, time, value)
        blocked = [
            key for key, box in self._mail.items() if box.waiter is not None
        ]
        if blocked:
            detail = ", ".join(
                f"node{dst}<-node{src}:{tag}" for dst, src, tag in blocked[:5]
            )
            raise SimulationError(f"deadlock: receivers blocked on {detail}")
        if not self._finish_times:
            return 0.0
        return max(self._finish_times.values())

    def _advance(self, pid: int, proc: Process, time: float, value: Any) -> None:
        """Resume ``proc`` at ``time``, dispatching requests until it
        blocks or finishes."""
        send_value: Any = time if value is None else value
        started = self._started
        first = pid not in started
        if first:
            started.add(pid)
        trace_hook = self._trace_hook
        kinds = _REQUEST_KIND
        while True:
            try:
                if first:
                    request = next(proc)
                    first = False
                else:
                    request = proc.send(send_value)
            except StopIteration:
                del self._procs[pid]
                started.discard(pid)
                self._finish_times[pid] = time
                return
            if trace_hook is not None:
                trace_hook(time, pid, request)
            kind = kinds.get(request.__class__)
            if kind is None:
                kind = _register_request_type(request)
                if kind is None:
                    raise SimulationError(f"unknown request: {request!r}")
            if kind == _DELAY:
                seconds = request.seconds
                if seconds == 0.0:
                    send_value = time
                    continue
                self._push(time + seconds, pid)
                return
            if kind == _SEND:
                node = self._pid_node[pid]
                box = self._box(request.dst, node, request.tag)
                deliver = time + request.transfer
                box.queue.append((deliver, request.payload))
                if box.waiter is not None:
                    waiter = box.waiter
                    box.waiter = None
                    d, payload = box.queue.popleft()
                    self._push_with_value(
                        max(d, time), waiter, _RecvResult(max(d, time), payload)
                    )
                send_value = time
                continue
            if kind == _RECV:
                node = self._pid_node[pid]
                box = self._box(node, request.src, request.tag)
                if box.queue:
                    deliver, payload = box.queue.popleft()
                    if deliver <= time:
                        send_value = _RecvResult(time, payload)
                        continue
                    self._push_with_value(
                        deliver, pid, _RecvResult(deliver, payload)
                    )
                    return
                if box.waiter is not None:
                    raise SimulationError(
                        f"two processes receiving on node{node}"
                        f"<-node{request.src}:{request.tag}"
                    )
                box.waiter = pid
                return
            # kind == _SPAWN
            self.add_process(request.process, self._pid_node[pid], time)
            send_value = time
            continue


@dataclass(frozen=True, slots=True)
class _RecvResult:
    """Value sent into a process resuming from a Recv: the current time
    plus the message payload.  Exposed via float conversion so helpers
    that only need the time can treat it like the plain-time resume."""

    time: float
    payload: Any

    def __float__(self) -> float:
        # The clock may be a numpy scalar; __float__ must return a float.
        return float(self.time)
