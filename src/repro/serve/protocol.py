"""Wire protocol of the distribution-advisor service.

One JSON object per line, both directions (newline-delimited JSON over
a local TCP or unix-domain stream).  A request carries an ``op`` plus
op-specific fields; the response echoes the request ``id`` so clients
may pipeline many outstanding queries on one connection:

request::

    {"id": 7, "op": "predict", "app": "jacobi", "config": "HY1",
     "dist": "blk", "scale": 0.1}

response::

    {"id": 7, "ok": true, "result": {"predicted_seconds": ..., ...}}
    {"id": 7, "ok": false, "error": "unknown app 'jacobo'"}

:class:`Query` is the parsed, *normalised* form: every field the answer
depends on is folded into :meth:`Query.coalesce_key`, so two clients
asking the same question within one gather window are answered by one
model pass (see :mod:`repro.serve.batcher`).  Parsing is strict —
unknown ops, unknown apps/configs and malformed counts raise
:class:`~repro.exceptions.ServeError` *before* any model work, and the
error travels back to the offending client only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.apps import APPLICATIONS
from repro.cluster.configs import DYNAMICS_SCENARIOS, TABLE1_CONFIGS
from repro.distribution import ANCHORS
from repro.exceptions import ServeError
from repro.search import SEARCHERS

__all__ = [
    "PROTOCOL_VERSION",
    "OPS",
    "Query",
    "encode_message",
    "decode_message",
    "error_response",
    "ok_response",
]

PROTOCOL_VERSION = 1

#: Everything the coordinator answers.  ``predict`` scores one
#: distribution, ``search`` runs a budgeted searcher, ``verify``
#: additionally emulates the distribution, ``stats`` snapshots the
#: server's telemetry and cache counters, ``ping`` is liveness,
#: ``shutdown`` asks the server to drain and exit.
OPS = ("predict", "search", "verify", "stats", "ping", "shutdown")

#: Longest accepted message line; also the stream limit of the server
#: and of the asyncio client.
_MAX_LINE_BYTES = 1 << 20


def encode_message(message: Dict[str, Any]) -> bytes:
    """One message -> one newline-terminated JSON line."""
    return (json.dumps(message, separators=(",", ":")) + "\n").encode()


def decode_message(line: bytes) -> Dict[str, Any]:
    """Parse one received line; raises :class:`ServeError` on garbage."""
    if len(line.rstrip(b"\n")) > _MAX_LINE_BYTES:
        raise ServeError(f"message exceeds {_MAX_LINE_BYTES} bytes")
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServeError(f"malformed message: {exc}") from None
    if not isinstance(message, dict):
        raise ServeError("message must be a JSON object")
    return message


def ok_response(request_id: Any, result: Dict[str, Any]) -> Dict[str, Any]:
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id: Any, error: str) -> Dict[str, Any]:
    return {"id": request_id, "ok": False, "error": error}


def _require_choice(payload: Dict[str, Any], field: str, choices, default=None):
    """``payload[field]`` (else ``default``): a name in ``choices``."""
    value = payload.get(field, default)
    if value is None:
        raise ServeError(f"{field!r} is required for op {payload.get('op')!r}")
    choices = tuple(choices)
    if value not in choices:
        raise ServeError(f"unknown {field} {value!r}; choose from {choices}")
    return value


@dataclass(frozen=True)
class Query:
    """One parsed, normalised advisor query.

    ``counts`` (an explicit GEN_BLOCK) and ``dist`` (a named anchor,
    resolved against the target program by the coordinator) are mutually
    exclusive; ``counts`` wins when both appear.
    """

    op: str
    app: Optional[str] = None
    config: str = "HY1"
    scale: float = 0.1
    dist: Optional[str] = None
    counts: Optional[Tuple[int, ...]] = None
    budget: int = 150
    algorithm: str = "gbs"
    batch_size: int = 64
    #: Named dynamics scenario for ``verify`` (None = static cluster).
    dynamics: Optional[str] = None

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "Query":
        op = payload.get("op")
        if op not in OPS:
            raise ServeError(f"unknown op {op!r}; choose from {OPS}")
        if op in ("stats", "ping", "shutdown"):
            return cls(op=op)
        app = _require_choice(payload, "app", APPLICATIONS)
        config = _require_choice(
            payload, "config", TABLE1_CONFIGS, default="HY1"
        )
        try:
            scale = float(payload.get("scale", 0.1))
        except (TypeError, ValueError):
            raise ServeError(f"bad scale {payload.get('scale')!r}") from None
        if not (scale > 0 and math.isfinite(scale)):
            raise ServeError(
                f"scale must be positive and finite, got {scale!r}"
            )
        counts: Optional[Tuple[int, ...]] = None
        dist: Optional[str] = None
        budget = 150
        algorithm = "gbs"
        batch_size = 64
        dynamics = payload.get("dynamics")
        if dynamics is not None:
            if op != "verify":
                raise ServeError(
                    f"'dynamics' is only valid for op 'verify', not {op!r}"
                )
            if dynamics not in DYNAMICS_SCENARIOS:
                raise ServeError(
                    f"unknown dynamics {dynamics!r}; "
                    f"choose from {DYNAMICS_SCENARIOS}"
                )
        if op == "search":
            algorithm = _require_choice(
                payload, "algorithm", SEARCHERS, default="gbs"
            )
            try:
                budget = int(payload.get("budget", 150))
                batch_size = int(payload.get("batch_size", 64))
            except (TypeError, ValueError):
                raise ServeError("budget/batch_size must be integers") from None
            if budget < 1 or batch_size < 1:
                raise ServeError("budget and batch_size must be >= 1")
        else:  # predict / verify
            raw = payload.get("counts")
            if raw is not None:
                # Integral floats (3.0) pass; strings, bools do not.
                if not isinstance(raw, list) or not all(
                    isinstance(c, int) and not isinstance(c, bool)
                    or isinstance(c, float) and c.is_integer()
                    for c in raw
                ):
                    raise ServeError(f"bad counts {raw!r}")
                counts = tuple(int(c) for c in raw)
                if not counts or any(c < 1 for c in counts):
                    raise ServeError(
                        "counts must be a non-empty list of positive ints"
                    )
            else:
                dist = _require_choice(payload, "dist", ANCHORS, default="blk")
        return cls(
            op=op,
            app=app,
            config=config,
            scale=scale,
            dist=dist,
            counts=counts,
            budget=budget,
            algorithm=algorithm,
            batch_size=batch_size,
            dynamics=dynamics,
        )

    def model_key(self) -> Tuple:
        """Key of the resident model this query runs against."""
        return (self.app, self.config, self.scale)

    def coalesce_key(self) -> Tuple:
        """Everything the answer depends on.  Two queries with equal
        keys are satisfied by one computation (and one cache entry)."""
        if self.op == "search":
            return (
                "search",
                self.model_key(),
                self.algorithm,
                self.budget,
                self.batch_size,
            )
        if self.op == "verify":
            return (
                "verify",
                self.model_key(),
                self.dist,
                self.counts,
                self.dynamics,
            )
        return (self.op, self.model_key(), self.dist, self.counts)
