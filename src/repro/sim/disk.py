"""Per-node disk model with an OS page-cache approximation.

Synchronous reads/writes cost a seek plus a bandwidth-proportional
transfer.  The page cache captures the effect the paper observed in
configuration IO ("better than expected I/O performance of the remaining
iterations"): the emulated application memory is capped artificially, but
the *physical* machine still caches file pages, so once a variable's
out-of-core local array has been streamed once, a fraction of subsequent
reads is served from memory.

The cache model is deliberately simple and conservative:

* the first full pass over a variable is always cold;
* on later passes, a fraction ``effectiveness * min(1, cache_share /
  ocla_bytes)`` of each read is served at ``cache_bandwidth`` with no
  seek, where ``cache_share`` is the variable's proportional share of the
  node's page cache after the application's own resident set is
  subtracted (a cyclic scan through an array much larger than the cache
  sees almost no hits, matching LRU behaviour; a nearly-in-core array
  sees most of them);
* writes are write-through and never benefit.

The disk is a single serial device: asynchronous (prefetch) requests
queue behind whatever the disk is already doing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.cluster.node import NodeSpec
from repro.exceptions import SimulationError

__all__ = ["DiskModel", "DiskOp"]


@dataclass(frozen=True)
class DiskOp:
    """A scheduled disk operation: done when the clock reaches ``done``."""

    start: float
    done: float
    nbytes: float
    cached_fraction: float


class DiskModel:
    """Serial disk + page cache for one node."""

    #: Bandwidth at which page-cache hits are served (memory copy speed).
    CACHE_BANDWIDTH = 600e6
    #: Fraction of theoretically cacheable bytes that actually hit.
    EFFECTIVENESS = 0.28

    def __init__(
        self,
        node: NodeSpec,
        resident_bytes: float = 0.0,
        cache_enabled: bool = True,
    ) -> None:
        self._node = node
        self._free_at = 0.0
        self._cache_enabled = cache_enabled
        #: Multiplier applied to every operation's service time; the
        #: emulator updates it per iteration when cluster dynamics
        #: degrade disk bandwidth.  Exactly 1.0 leaves durations
        #: untouched (bitwise), preserving static-run outputs.
        self.slowdown = 1.0
        # Page cache left after the application's resident set.
        self._cache_capacity = max(0.0, node.os_cache_bytes - resident_bytes)
        # Per-variable streaming state.
        self._ocla_bytes: Dict[str, float] = {}
        self._streamed: Dict[str, float] = {}
        self._warm: Dict[str, bool] = {}

    # -- configuration --------------------------------------------------------

    def register_variable(self, name: str, ocla_bytes: float) -> None:
        """Declare that ``name`` will be streamed from this disk with an
        out-of-core local array of ``ocla_bytes``."""
        if ocla_bytes < 0:
            raise SimulationError(f"{name}: negative OCLA")
        self._ocla_bytes[name] = ocla_bytes
        self._streamed[name] = 0.0
        self._warm[name] = False

    def cache_share(self, name: str) -> float:
        """Page-cache bytes notionally available to ``name``."""
        total = sum(self._ocla_bytes.values())
        if total <= 0:
            return self._cache_capacity
        return self._cache_capacity * self._ocla_bytes[name] / total

    def hit_fraction(self, name: str) -> float:
        """Fraction of a warm read of ``name`` served from the cache."""
        if not self._cache_enabled or not self._warm.get(name, False):
            return 0.0
        ocla = self._ocla_bytes.get(name, 0.0)
        if ocla <= 0:
            return 0.0
        return self.EFFECTIVENESS * min(1.0, self.cache_share(name) / ocla)

    # -- operations ------------------------------------------------------------

    def _advance_stream(self, name: str, nbytes: float) -> None:
        if name not in self._streamed:
            self.register_variable(name, nbytes)
        self._streamed[name] += nbytes
        ocla = self._ocla_bytes[name]
        if not self._warm[name] and ocla > 0 and self._streamed[name] >= ocla:
            self._warm[name] = True  # first full pass completed

    def read_duration(self, name: str, nbytes: float) -> float:
        """Seconds for a read of ``nbytes`` of ``name`` issued now,
        ignoring queueing (pure service time)."""
        frac = self.hit_fraction(name)
        cold = nbytes * (1.0 - frac)
        hot = nbytes * frac
        seek = self._node.disk_read_seek * (1.0 - frac)
        return seek + cold / self._node.disk_read_bw + hot / self.CACHE_BANDWIDTH

    def write_duration(self, nbytes: float) -> float:
        """Seconds for a write-through of ``nbytes``."""
        return self._node.disk_write_seek + nbytes / self._node.disk_write_bw

    def read_service(self, name: str, nbytes: float) -> Tuple[float, float]:
        """Service one read of ``nbytes`` of ``name`` without queueing
        it: returns ``(duration, cached_fraction)`` and advances the
        variable's stream (page-cache warmth) exactly as
        :meth:`submit_read` does.  The emulator's lowering takes durations
        through this; the tape interpreters apply the queueing."""
        frac = self.hit_fraction(name)
        duration = self.read_duration(name, nbytes)
        if self.slowdown != 1.0:
            duration *= self.slowdown
        self._advance_stream(name, nbytes)
        return duration, frac

    def write_service(self, nbytes: float) -> float:
        """Service time of one write-through of ``nbytes``."""
        duration = self.write_duration(nbytes)
        if self.slowdown != 1.0:
            duration *= self.slowdown
        return duration

    def stream_state(self) -> Dict[str, Tuple[float, bool]]:
        """``name -> (bytes streamed, warm)`` for every registered
        variable: the only disk state (besides the queue) that a later
        operation's duration depends on."""
        return {
            name: (streamed, self._warm[name])
            for name, streamed in self._streamed.items()
        }

    def _schedule(self, now: float, duration: float, nbytes: float,
                  frac: float) -> DiskOp:
        start = max(now, self._free_at)
        self._free_at = start + duration
        return DiskOp(
            start=start, done=self._free_at, nbytes=nbytes, cached_fraction=frac
        )

    def submit_read(self, now: float, name: str, nbytes: float) -> DiskOp:
        """Queue a read; returns the scheduled operation.  The caller
        blocks until ``op.done`` (synchronous) or continues computing and
        waits later (prefetch)."""
        duration, frac = self.read_service(name, nbytes)
        return self._schedule(now, duration, nbytes, frac)

    def submit_write(self, now: float, name: str, nbytes: float) -> DiskOp:
        """Queue a write-through."""
        return self._schedule(now, self.write_service(nbytes), nbytes, 0.0)
