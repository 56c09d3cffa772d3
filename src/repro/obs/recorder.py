"""Lightweight, zero-dependency telemetry: spans, counters, gauges.

The whole observability layer is one mutable :class:`Recorder` that
entry points accept as a ``telemetry=`` keyword.  Three primitives
cover everything the reproduction needs:

``count(name, n)``
    monotonic counters (cache hits, evaluations, emulator runs);
``set(name, value)``
    gauges — last-write-wins scalars (phase breakdowns, cache sizes);
``observe(name, value, n)``
    accumulating series with total/count/min/max (per-round candidate
    batches, per-node emulated phase seconds);
``span(name)``
    a context manager timing a region; nested spans build a
    slash-joined hierarchical path (``predict/tables``) and feed the
    wall time into ``observe("span/" + path, dt)``.

Names are flat slash-separated strings (``model/plan_cache/compiles``);
there is no registry and no schema — a name exists once something
records to it.

Cost discipline: a *disabled* recorder must be near-free.  Two
mechanisms enforce that.  ``Recorder.__bool__`` returns ``enabled``,
so hot paths guard with ``if telemetry:`` and pay one truthiness
check when telemetry is off (``None`` and a disabled recorder are both
falsy).  For call sites that prefer unconditional calls,
:data:`NULL_RECORDER` (a :class:`NullRecorder`) turns every primitive
into a constant-return no-op with no allocation; :func:`as_recorder`
normalises ``None``/falsy to it.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, Optional

__all__ = [
    "Recorder",
    "NullRecorder",
    "NULL_RECORDER",
    "as_recorder",
]


class _Span:
    """Timed region handle; re-entrant per instance is not supported —
    each ``span()`` call makes a fresh one."""

    __slots__ = ("_rec", "_name", "_start")

    def __init__(self, rec: "Recorder", name: str) -> None:
        self._rec = rec
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_Span":
        rec = self._rec
        rec._stack.append(self._name)
        self._start = rec._clock()
        return self

    def __exit__(self, *exc: object) -> None:
        rec = self._rec
        dt = rec._clock() - self._start
        path = "/".join(rec._stack)
        rec._stack.pop()
        rec.observe("span/" + path, dt)


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Recorder:
    """Collects counters, gauges, and observation series in plain dicts.

    A recorder is cheap to create and purely in-memory; nothing is
    global.  It is *not* thread- or process-safe — parallel layers
    record on the coordinating side only (worker processes cannot
    mutate the parent's recorder) and :meth:`merge` folds one
    recorder into another when a caller collects several.
    """

    __slots__ = ("enabled", "counters", "gauges", "series", "_stack", "_clock")

    def __init__(
        self,
        enabled: bool = True,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.enabled = bool(enabled)
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        # name -> [total, count, min, max]
        self.series: Dict[str, List[float]] = {}
        self._stack: List[str] = []
        self._clock = clock

    def __bool__(self) -> bool:
        return self.enabled

    # -- primitives ----------------------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + n

    def set(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        self.gauges[name] = value

    def observe(self, name: str, value: float, n: int = 1) -> None:
        if not self.enabled:
            return
        cell = self.series.get(name)
        if cell is None:
            self.series[name] = [value, n, value, value]
        else:
            cell[0] += value
            cell[1] += n
            if value < cell[2]:
                cell[2] = value
            if value > cell[3]:
                cell[3] = value

    def span(self, name: str):
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name)

    # -- aggregation ---------------------------------------------------------

    def merge(self, other: "Recorder") -> None:
        """Fold ``other``'s data into this recorder: counters add,
        gauges take the other's value, series combine."""
        for k, v in other.counters.items():
            self.counters[k] = self.counters.get(k, 0) + v
        self.gauges.update(other.gauges)
        for k, cell in other.series.items():
            mine = self.series.get(k)
            if mine is None:
                self.series[k] = list(cell)
            else:
                mine[0] += cell[0]
                mine[1] += cell[1]
                mine[2] = min(mine[2], cell[2])
                mine[3] = max(mine[3], cell[3])

    def clear(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.series.clear()
        del self._stack[:]

    # -- export --------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        series = {}
        for name, (total, count, lo, hi) in sorted(self.series.items()):
            series[name] = {
                "total": total,
                "count": count,
                "min": lo,
                "max": hi,
                "mean": total / count if count else 0.0,
            }
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "series": series,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=False)

    def to_csv(self) -> str:
        """Flat CSV: ``kind,name,value,count,min,max,mean`` — counters
        and gauges leave the statistics columns empty."""
        lines = ["kind,name,value,count,min,max,mean"]
        for name, v in sorted(self.counters.items()):
            lines.append(f"counter,{name},{v!r},,,,")
        for name, v in sorted(self.gauges.items()):
            lines.append(f"gauge,{name},{v!r},,,,")
        for name, (total, count, lo, hi) in sorted(self.series.items()):
            mean = total / count if count else 0.0
            lines.append(
                f"series,{name},{total!r},{count},{lo!r},{hi!r},{mean!r}"
            )
        return "\n".join(lines) + "\n"

    def describe(self) -> str:
        """Human-readable dump, sections in counter/gauge/series order."""
        out: List[str] = []
        if self.counters:
            out.append("counters:")
            for name, v in sorted(self.counters.items()):
                out.append(f"  {name:<44s} {v:g}")
        if self.gauges:
            out.append("gauges:")
            for name, v in sorted(self.gauges.items()):
                out.append(f"  {name:<44s} {v:.6g}")
        if self.series:
            out.append("series:")
            for name, (total, count, lo, hi) in sorted(self.series.items()):
                mean = total / count if count else 0.0
                out.append(
                    f"  {name:<44s} total={total:.6g} n={count:g}"
                    f" mean={mean:.3g} min={lo:.3g} max={hi:.3g}"
                )
        return "\n".join(out) if out else "(no telemetry recorded)"


class NullRecorder(Recorder):
    """A recorder that records nothing and is always falsy.

    Exists so internal code can normalise ``telemetry=None`` once (via
    :func:`as_recorder`) and then call primitives unconditionally in
    warm-but-not-hot paths without per-call ``if`` guards.
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(enabled=False)

    def __bool__(self) -> bool:
        return False

    def count(self, name: str, n: float = 1) -> None:
        return None

    def set(self, name: str, value: float) -> None:
        return None

    def observe(self, name: str, value: float, n: int = 1) -> None:
        return None

    def span(self, name: str):
        return _NULL_SPAN


NULL_RECORDER = NullRecorder()


def as_recorder(telemetry: Optional[Recorder]) -> Recorder:
    """Normalise a ``telemetry=`` argument: ``None`` (or any falsy
    recorder) becomes :data:`NULL_RECORDER`."""
    return telemetry if telemetry else NULL_RECORDER
