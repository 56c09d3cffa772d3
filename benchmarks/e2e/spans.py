"""Benchmark-side spans around calls into the program's layers.

The program has no trace context of its own yet, so a traced run wraps
the public functions each layer exposes — at the call sites the other
layers use — in spans recorded here.  A span is ``(id, parent, op,
name, start_ns, end_ns, n)``: ``op`` is the job, run or request it
belongs to, ``n`` the number of distributions it handled, and ``name``
is ``<layer>.<function>``.  Spans stay in memory and are written out as
JSON when the run ends.

A span's *self* time is its duration minus the part its child spans
cover.  A layer's busy time is the self time of its spans, so the
layers' busy times plus the *unattributed* time (the part of each
operation's root span no child covers) add up to the operations' wall
time.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

# Field order of one recorded span.
ID, PARENT, OP, NAME, START, END, N = range(7)


def layer(span: list) -> str:
    return span[NAME].split(".", 1)[0]


def duration(span: list) -> int:
    return span[END] - span[START]


class Tracer:
    """In-memory span recorder; disabled spans cost one attribute test."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.enabled = False
        self.op: Optional[int] = None
        self._stack: List[list] = []
        self._patches: List[tuple] = []

    # -- recording -------------------------------------------------------

    def begin(self, name: str, n: int = 1) -> Optional[list]:
        if not self.enabled:
            return None
        parent = self._stack[-1][ID] if self._stack else 0
        span = [len(self.spans) + 1, parent, self.op, name,
                time.perf_counter_ns(), 0, n]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Optional[list]) -> None:
        if span is not None:
            span[END] = time.perf_counter_ns()
            self._stack.pop()

    def record(self, name: str, parent: int, op: int, start: int, end: int) -> int:
        """A finished span, for concurrent operations that cannot share
        the stack (the serve workload's in-flight requests)."""
        self.spans.append([len(self.spans) + 1, parent, op, name, start, end, 1])
        return len(self.spans)

    def call(self, name: str, fn: Callable, *args, n: int = 1, **kwargs):
        span = self.begin(name, n)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(span)

    # -- wrapping the program's layer functions -----------------------------

    def patch(self, owner, attr: str, name: str, count: Callable = None) -> None:
        """Replace ``owner.attr`` by a wrapper that opens a span while
        tracing is enabled; ``count(args, kwargs)`` gives its ``n``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            span = tracer.begin(name, count(args, kwargs) if count else 1)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end(span)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> Dict[int, int]:
        """Span id -> self time in ns (duration minus children's)."""
        child_ns: Dict[int, int] = {}
        for s in self.spans:
            if s[PARENT]:
                child_ns[s[PARENT]] = child_ns.get(s[PARENT], 0) + duration(s)
        return {s[ID]: duration(s) - child_ns.get(s[ID], 0) for s in self.spans}

    def roots(self) -> List[list]:
        return [s for s in self.spans if not s[PARENT]]

    def named(self, name: str) -> List[list]:
        return [s for s in self.spans if s[NAME] == name]

    def outermost(self, layer_name: str) -> List[tuple]:
        """Spans of ``layer_name`` with no ancestor of the same layer,
        each with the layer's self time inside its subtree (ns)."""
        by_id = {s[ID]: s for s in self.spans}
        selfs = self.self_times()
        outer: Dict[int, list] = {}
        busy: Dict[int, int] = {}
        for s in self.spans:
            if layer(s) != layer_name:
                continue
            top, p = s, s[PARENT]
            while p:
                if layer(by_id[p]) == layer_name:
                    top = by_id[p]
                p = by_id[p][PARENT]
            outer[top[ID]] = top
            busy[top[ID]] = busy.get(top[ID], 0) + selfs[s[ID]]
        return [(outer[i], busy[i]) for i in outer]

    def unattributed_pct(self) -> float:
        """Share of all operations' time that no child span covers."""
        selfs = self.self_times()
        roots = self.roots()
        total = sum(duration(s) for s in roots)
        return 100.0 * sum(selfs[s[ID]] for s in roots) / total if total else 0.0

    def dump(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("id", "parent", "op", "name", "start_ns", "end_ns", "n")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"meta": meta, "spans": [dict(zip(fields, s)) for s in self.spans]},
                fh,
            )
