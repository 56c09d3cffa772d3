"""The process-wide emulation-plan LRU.

Compiled :class:`repro.sim.plan_sim.EmulationPlan` objects are costly
to build and pure functions of their configuration, so they are shared
process-wide through one bounded LRU keyed by a content key.
:func:`plan_cache_stats` exposes hit/miss/compile counters for
``repro stats``, ``repro serve``'s ``stats`` op and benchmark JSON.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Optional

from repro.obs import Recorder
from repro.util.lru import LRUCache

__all__ = [
    "DEFAULT_PLAN_CACHE_ENTRIES",
    "get_plan",
    "compile_timer",
    "discard_plan",
    "plan_cache_stats",
    "reset_plan_cache",
]

#: Bound of the process-wide compiled-plan LRU.  The bound exists so
#: unattended services cycling through many (app, cluster) pairs stay
#: flat.
DEFAULT_PLAN_CACHE_ENTRIES = 32

_plan_cache = LRUCache(DEFAULT_PLAN_CACHE_ENTRIES, threadsafe=True)
_compiles = 0
_compile_seconds = 0.0


def get_plan(
    *,
    key: str,
    factory: Callable[[], object],
    telemetry: Optional[Recorder] = None,
):
    """The plan cached under ``key``: a cache hit when an equivalent
    configuration built one earlier in this process, otherwise
    ``factory()``, counted as a compile.  The factory only constructs
    the plan; the plan times its own compile (:func:`compile_timer`)."""
    global _compiles
    plan = _plan_cache.get(key)
    if plan is None:
        plan = factory()
        _compiles += 1
        _plan_cache.put(key, plan)
        if telemetry:
            telemetry.count("model/plan_cache/compiles")
    return plan


@contextmanager
def compile_timer(telemetry: Optional[Recorder] = None):
    """Time one plan compile into the process-wide ``compile_seconds``
    and, with ``telemetry``, under ``span/plan/compile``."""
    global _compile_seconds
    t0 = time.perf_counter()
    try:
        if telemetry:
            with telemetry.span("plan/compile"):
                yield
        else:
            yield
    finally:
        _compile_seconds += time.perf_counter() - t0


def discard_plan(key: str) -> bool:
    """Drop one cached plan; returns whether an entry was present."""
    return _plan_cache.pop(key, None) is not None


def plan_cache_stats() -> dict:
    """The process-wide plan cache's LRU counters (size, hits, misses,
    evictions), plus the plans built (``compiles``) and the seconds
    their compiles took (``compile_seconds``)."""
    stats = _plan_cache.stats
    stats["compiles"] = _compiles
    stats["compile_seconds"] = _compile_seconds
    # No JIT remains; the key stays for readers of older result files.
    stats["numba_active"] = False
    return stats


def reset_plan_cache() -> None:
    """Clear the plan cache and counters (tests and benchmarks)."""
    global _compiles, _compile_seconds
    _plan_cache.clear()
    _plan_cache.hits = 0
    _plan_cache.misses = 0
    _plan_cache.evictions = 0
    _compiles = 0
    _compile_seconds = 0.0
