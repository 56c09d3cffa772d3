"""Content-keyed memoisation of spectrum evaluations.

Spectrum sweeps, accuracy panels and spread tables all reduce to the
same primitive: run the emulator and the model on one ``(cluster,
program, distribution)`` triple and keep the ``(actual, predicted)``
pair.  Different experiments — and repeated CLI/benchmark invocations —
revisit the same triples constantly (every leg of the spectrum shares
its endpoints with the next), so :class:`SweepCache` memoises the pairs,
in memory and optionally on disk.

Keys are *content* hashes, not object identities or names: two
``ClusterSpec`` objects describing the same hardware hash identically,
and any change to a node's memory, a program's row count, or a
perturbation flag changes the key.  Hashing uses SHA-256 over a
canonical recursive encoding (dataclasses by field, numpy arrays by
shape/dtype/bytes), so keys are stable across processes and sessions —
``PYTHONHASHSEED`` never enters.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import hashlib
import json
import os
import tempfile
import threading
import weakref
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterable, Iterator, Optional, Tuple, Union,
)

import numpy as np

from repro.exceptions import DistributionError
from repro.util.lru import LRUCache

__all__ = ["SweepCache", "RunCache", "content_key", "default_run_cache"]


def _canonical(obj: Any) -> Any:
    """Reduce ``obj`` to JSON-encodable structure that captures content."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr round-trips doubles exactly; float('nan') etc. included.
        return ["f", repr(obj)]
    if isinstance(obj, enum.Enum):
        return ["enum", type(obj).__name__, obj.name]
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj)
        return [
            "ndarray",
            list(data.shape),
            str(data.dtype),
            hashlib.sha256(data.tobytes()).hexdigest(),
        ]
    if isinstance(obj, np.generic):
        return _canonical(obj.item())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return [
            "dc",
            type(obj).__name__,
            [
                [f.name, _canonical(getattr(obj, f.name))]
                for f in dataclasses.fields(obj)
            ],
        ]
    if isinstance(obj, (list, tuple)):
        return ["seq", [_canonical(v) for v in obj]]
    if isinstance(obj, dict):
        return [
            "map",
            sorted(
                ([_canonical(k), _canonical(v)] for k, v in obj.items()),
                key=json.dumps,
            ),
        ]
    # Last resort: a stable repr (covers simple value objects).
    return ["repr", type(obj).__name__, repr(obj)]


@contextlib.contextmanager
def _file_lock(path: Path) -> Iterator[None]:
    """Exclusive inter-process lock covering updates of ``path``.

    ``os.replace`` makes each write atomic, but the read-merge-replace
    in :func:`_save_entries` is not: two processes that both read
    before either replaces silently drop one side's entries.  An
    ``flock`` over the whole critical section serialises the merge.
    The lock is taken on the *parent directory's* fd: the data file's
    inode changes on every ``os.replace`` (locking it races), and a
    sidecar lock file would either litter the directory or race its
    own cleanup.  Platforms without ``fcntl`` fall back to the
    unserialised (but still atomic-per-write) behaviour.
    """
    try:
        import fcntl
    except ImportError:  # non-POSIX: keep the previous best effort
        yield
        return
    fd = os.open(str(path.parent), os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
    finally:
        os.close(fd)


def _load_entries(path: Path, decode: Callable[[Any], Any]) -> Dict[str, Any]:
    """The on-disk tier's ``key -> decode(entry)`` mapping.  An
    unreadable file (undecodable bytes, bad JSON, a top-level
    non-object) loads as an empty mapping, and an entry the decoder
    rejects (wrong shape, or a :class:`DistributionError` for counts no
    distribution can have) is skipped.  So a half-written file from a
    pre-atomic-write version never bricks every later run, and one bad
    entry costs only itself: the next save keeps every good one."""
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    if not isinstance(raw, dict):
        return {}
    entries = {}
    for k, v in raw.items():
        try:
            entries[k] = decode(v)
        except (
            ValueError, TypeError, KeyError, AttributeError,
            DistributionError,
        ):
            continue
    return entries


def _save_entries(
    path: Path,
    entries: Iterable[Tuple[str, Any]],
    decode: Callable[[Any], Any],
    encode: Callable[[Any], Any],
) -> None:
    """Merge ``entries`` into the on-disk tier at ``path``.

    The write is a read-merge-replace: entries another process wrote to
    the file since it was loaded are re-read and kept (``entries`` win
    on key collisions — stored values are deterministic, so colliding
    values agree anyway).  The whole read-merge-replace runs under an
    inter-process file lock and the merged payload lands via a
    same-directory temp file + :func:`os.replace`, so a crash mid-write
    can never leave a truncated file and two processes saving
    interleaved lose nothing.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with _file_lock(path):
        merged = _load_entries(path, decode)
        merged.update(entries)
        payload = {k: encode(v) for k, v in sorted(merged.items())}
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(payload, indent=0, sort_keys=True) + "\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


# Identity-memoised canonical texts for the key hot path: every fresh
# emulation, batch and hit-heavy loop re-keys the same cluster, program,
# perturbation and dynamics objects, and canonicalising a full
# ProgramStructure dominates the cost of a key.  Only frozen dataclass
# instances are memoised (treated as immutable, arrays included), keyed
# by identity and guarded by a weakref: a recycled id() after garbage
# collection must never alias, and the weakref's callback drops the
# entry of a collected object, so the memo holds live objects only.
_TEXT_MEMO: Dict[int, Tuple[weakref.ref, str]] = {}
_TEXT_MEMO_MAX = 256
# Digests by their texts, so a repeated key (an emulate() hit) skips
# hashing the payload; keyed by content, it cannot alias.
_DIGEST_MEMO: Dict[Tuple[str, ...], str] = {}


def _canonical_text(obj: Any) -> str:
    """``obj``'s canonical encoding as compact JSON text."""
    # Scalars are their own canonical form; written as json.dumps
    # writes them, without its per-call encoder for non-strings.
    if obj is None or isinstance(obj, bool):
        return "null" if obj is None else ("true" if obj else "false")
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    entry = _TEXT_MEMO.get(id(obj))
    if entry is not None and entry[0]() is obj:
        return entry[1]
    text = json.dumps(_canonical(obj), separators=(",", ":"), sort_keys=False)
    if (
        dataclasses.is_dataclass(obj)
        and not isinstance(obj, type)
        and obj.__dataclass_params__.frozen
        and hasattr(obj, "__weakref__")
    ):
        if len(_TEXT_MEMO) >= _TEXT_MEMO_MAX:
            _TEXT_MEMO.clear()
        key = id(obj)
        drop = lambda _ref: _TEXT_MEMO.pop(key, None)  # noqa: E731
        _TEXT_MEMO[key] = (weakref.ref(obj, drop), text)
    return text


def content_key(*objects: Any) -> str:
    """SHA-256 hex digest of the objects' canonical content encoding,
    as one compact JSON list (joining the items' texts is exactly how
    ``json.dumps`` writes the list)."""
    texts = tuple(_canonical_text(obj) for obj in objects)
    digest = _DIGEST_MEMO.get(texts)
    if digest is None:
        payload = "[" + ",".join(texts) + "]"
        digest = hashlib.sha256(payload.encode()).hexdigest()
        if len(_DIGEST_MEMO) >= _TEXT_MEMO_MAX:
            _DIGEST_MEMO.clear()
        _DIGEST_MEMO[texts] = digest
    return digest


def _float_pair(entry) -> Tuple[float, float]:
    """An ``(actual, predicted)`` pair from its JSON list (or a stored
    pair); anything but two numbers raises."""
    actual, predicted = entry
    return float(actual), float(predicted)


class SweepCache:
    """Memoised ``(cluster, program, distribution) -> (actual, predicted)``.

    Parameters
    ----------
    path:
        Optional JSON file for on-disk persistence.  If it exists it is
        loaded eagerly; :meth:`save` writes the merged contents back
        (what is on disk now — including entries another process wrote
        since load — merged with this cache's entries) atomically, so
        repeated benchmark/CLI invocations skip redundant emulation and
        a fleet of processes can share one history file.

    The store is one unbounded dict, and ``hits``/``misses`` count
    :meth:`lookup` results.  All operations (and the read-merge-write
    in :meth:`save`) run under an ``RLock``, so one cache may be shared
    between threads.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self.path = Path(path) if path is not None else None
        self._lock = threading.RLock()
        self._store: Dict[str, Tuple[float, float]] = {}
        self.hits = 0
        self.misses = 0
        if self.path is not None and self.path.exists():
            self._store.update(_load_entries(self.path, _float_pair))

    @property
    def stats(self) -> dict:
        """Counter snapshot."""
        return {
            "size": len(self),
            "hits": self.hits,
            "misses": self.misses,
        }

    def __len__(self) -> int:
        return len(self._store)

    @staticmethod
    def key(cluster, program, distribution, perturbation=None) -> str:
        return content_key(
            cluster, program, tuple(distribution.counts), perturbation
        )

    def lookup(
        self, cluster, program, distribution, perturbation=None
    ) -> Optional[Tuple[float, float]]:
        """Return the cached ``(actual, predicted)`` pair, or ``None``."""
        key = self.key(cluster, program, distribution, perturbation)
        with self._lock:
            pair = self._store.get(key)
            if pair is None:
                self.misses += 1
            else:
                self.hits += 1
            return pair

    def store(
        self,
        cluster,
        program,
        distribution,
        actual: float,
        predicted: float,
        perturbation=None,
    ) -> None:
        with self._lock:
            key = self.key(cluster, program, distribution, perturbation)
            self._store[key] = (float(actual), float(predicted))

    def save(self) -> None:
        """Persist to ``path`` (no-op for purely in-memory caches): an
        atomic read-merge-replace under the parent-directory file lock
        (:func:`_save_entries`), so entries another process wrote since
        this cache loaded are kept and this cache's pairs win on key
        collisions."""
        if self.path is None:
            return
        with self._lock:
            _save_entries(
                self.path, self._store.items(), _float_pair, _float_pair
            )


class RunCache:
    """Bounded content-keyed memoisation of whole emulator ``RunResult``s.

    Where :class:`SweepCache` keeps only the scalar ``(actual,
    predicted)`` pair of a spectrum point, this cache keeps the full
    :class:`~repro.sim.executor.RunResult` (total, per-node times,
    iteration ends), so any layer that re-emulates an identical
    configuration — grid experiments sharing spectrum endpoints across
    panels, the adaptive runtime re-running its static baseline, repeat
    benchmark rounds — gets the stored run back instead.

    Keys follow the same content-hash discipline as :func:`content_key`
    everywhere else, and the store is the shared bounded LRU
    (:class:`repro.util.lru.LRUCache`), so long sweeps hold memory at a
    fixed ceiling.

    The stored payload is *frozen* — its mutable list fields are
    converted to tuples on :meth:`put` and fresh lists are rebuilt on
    :meth:`get` — so a caller mutating a returned result can never
    poison the cache, without the deep defensive copy the hit path
    used to pay.

    ``path`` adds an optional on-disk tier with :class:`SweepCache`
    semantics: loaded eagerly, persisted by :meth:`save` as an atomic
    read-merge-replace under the parent-directory file lock, so a fleet
    of processes shares one emulation history.
    """

    DEFAULT_MAX_ENTRIES = 512

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        path: Optional[Union[str, Path]] = None,
    ) -> None:
        self._store = LRUCache(max_entries)
        self._lock = threading.RLock()
        self.path = Path(path) if path is not None else None
        self.loaded_from_disk = 0
        if self.path is not None and self.path.exists():
            for k, result in _load_entries(
                self.path, self._deserialize
            ).items():
                self._store.put(k, result)
                self.loaded_from_disk += 1

    @staticmethod
    def key_base(
        cluster,
        program,
        iterations: int,
        perturbation,
        *,
        instrumented: bool = False,
        dynamics=None,
        io_mode: str = "auto",
        iteration_offset: int = 0,
    ) -> str:
        """Partial content hash over everything but the distribution.

        Built from the memoised canonical texts of its objects, because
        batched emulation, adaptive rounds and hit-heavy loops re-key
        the same cluster/program objects constantly.

        ``dynamics``/``io_mode``/``iteration_offset`` contribute to the
        digest only when they differ from their static defaults, so
        every key minted before those keywords existed is reproduced
        byte-for-byte.
        """
        payload = [
            "run", cluster, program, int(iterations), perturbation,
            # A retired routing flag's slot: ``--run-cache`` files keep keys.
            bool(instrumented), True,
        ]
        if dynamics is not None:
            payload.extend(["dynamics", dynamics])
        if io_mode != "auto":
            payload.extend(["io_mode", str(io_mode)])
        if iteration_offset:
            payload.extend(["offset", int(iteration_offset)])
        return content_key(*payload)

    @staticmethod
    def key_from_base(base: str, counts) -> str:
        """Full run key from a :meth:`key_base` digest plus the
        candidate's GEN_BLOCK row counts."""
        payload = base + "|" + ",".join(str(int(c)) for c in counts)
        return hashlib.sha256(payload.encode()).hexdigest()

    @staticmethod
    def key(
        cluster,
        program,
        distribution,
        iterations: int,
        perturbation,
        *,
        instrumented: bool = False,
        dynamics=None,
        io_mode: str = "auto",
        iteration_offset: int = 0,
    ) -> str:
        """Content hash of everything an emulated run depends on."""
        return RunCache.key_from_base(
            RunCache.key_base(
                cluster,
                program,
                iterations,
                perturbation,
                instrumented=instrumented,
                dynamics=dynamics,
                io_mode=io_mode,
                iteration_offset=iteration_offset,
            ),
            distribution.counts,
        )

    # -- frozen payloads ------------------------------------------------------

    @staticmethod
    def _freeze(result):
        """Immutable-field copy safe to share from the cache."""
        if not hasattr(result, "per_node_seconds"):
            return result
        return dataclasses.replace(
            result,
            per_node_seconds=tuple(result.per_node_seconds),
            iteration_ends=tuple(
                tuple(ends) for ends in result.iteration_ends
            ),
        )

    @staticmethod
    def _thaw(result):
        """Fresh mutable-field copy handed to the caller."""
        if not hasattr(result, "per_node_seconds"):
            return result
        return dataclasses.replace(
            result,
            per_node_seconds=list(result.per_node_seconds),
            iteration_ends=[list(ends) for ends in result.iteration_ends],
        )

    def get(self, key: str):
        """A private mutable copy of the cached
        :class:`~repro.sim.executor.RunResult`, or ``None``."""
        hit = self._store.get(key)
        if hit is None:
            return None
        return self._thaw(hit)

    def put(self, key: str, result) -> None:
        self._store.put(key, self._freeze(result))

    def put_many(self, pairs: Iterable[Tuple[str, Any]]) -> None:
        """Store a whole batch of ``(key, result)`` pairs (one batched
        emulation pass lands its population in one call)."""
        for key, result in pairs:
            self.put(key, result)

    def clear(self) -> None:
        self._store.clear()

    def __len__(self) -> int:
        return len(self._store)

    @property
    def hits(self) -> int:
        return self._store.hits

    @property
    def misses(self) -> int:
        return self._store.misses

    @property
    def stats(self) -> dict:
        stats = self._store.stats
        stats["loaded_from_disk"] = self.loaded_from_disk
        return stats

    # -- on-disk tier ---------------------------------------------------------

    @staticmethod
    def _serialize(result) -> list:
        return [
            result.total_seconds,
            list(result.per_node_seconds),
            [list(ends) for ends in result.iteration_ends],
            [int(c) for c in result.distribution.counts],
            int(result.iterations),
            bool(result.fast_forwarded),
        ]

    @staticmethod
    def _deserialize(payload):
        from repro.distribution.genblock import GenBlock
        from repro.sim.executor import RunResult

        total, per_node, ends, counts, iterations, fast = payload
        return RunResult(
            total_seconds=float(total),
            per_node_seconds=tuple(float(v) for v in per_node),
            iteration_ends=tuple(
                tuple(float(v) for v in row) for row in ends
            ),
            distribution=GenBlock(tuple(int(c) for c in counts)),
            iterations=int(iterations),
            fast_forwarded=bool(fast),
        )

    def save(self) -> None:
        """Persist to ``path`` (no-op for purely in-memory caches);
        read-merge-replace under the parent-directory lock, exactly
        like :meth:`SweepCache.save`."""
        if self.path is None:
            return
        with self._lock:
            _save_entries(
                self.path,
                self._store.items(),
                self._deserialize,
                self._serialize,
            )


#: Process-wide shared run cache used by :func:`repro.sim.executor.emulate`
#: when no explicit cache is passed.  Worker processes of a parallel
#: sweep each hold their own (caches do not cross ``fork``/``spawn``
#: boundaries usefully), which is still a win: a worker revisits the
#: same configurations across the tasks it is handed.
_DEFAULT_RUN_CACHE: Optional[RunCache] = None


def default_run_cache() -> RunCache:
    """The lazily created process-wide :class:`RunCache`."""
    global _DEFAULT_RUN_CACHE
    if _DEFAULT_RUN_CACHE is None:
        _DEFAULT_RUN_CACHE = RunCache()
    return _DEFAULT_RUN_CACHE
