"""The always-on distribution-advisor coordinator.

``repro serve`` turns the call-per-use library stack into a resident
service: an asyncio server accepts concurrent ``(app, cluster, budget)``
queries over a local TCP or unix-domain socket, and a single
:class:`ServeCoordinator` answers all of them from one warm set of
model state — the same shape an inference server takes.

Where the speed comes from:

* **Resident models.**  Building a model instruments an iteration (an
  emulator run); the coordinator builds each ``(app, config, scale)``
  model once and keeps it in a bounded LRU, so its persistent table
  cache stays warm across every later query.
* **Micro-batched predictions.**  Concurrent ``predict``/``verify``
  queries gather for a short window (:class:`~repro.serve.batcher.
  MicroBatcher`), identical queries coalesce to one computation, and
  the distinct candidates that share a model are scored by one
  vectorised ``predict(batch=True)`` pass.
* **Shared search rounds.**  Searches are deterministic given their
  parameters, so identical concurrent ``search`` queries await one
  in-flight run and repeats hit a bounded result cache.
* **Warm cache tiers.**  Per-model :class:`~repro.search.base.
  EvaluationCache` entries persist across requests (a repeat candidate
  never reaches the kernel), and emulator runs share a
  :class:`~repro.parallel.cache.RunCache`, whose optional on-disk tier
  lets a fleet of server processes share emulation history (its
  merge-on-save makes interleaved saves safe).

Model and emulator work runs on a single executor thread so the event
loop keeps accepting and coalescing while a pass computes; the caches
it touches are constructed thread-safe (see ``repro.util.lru``).
Telemetry is recorded on the loop side only — the
:class:`~repro.obs.Recorder` is not thread-safe, so worker-side
recorders are merged back after each call returns.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from repro.exceptions import ReproError, ServeError
from repro.obs import Recorder, as_recorder
from repro.serve.batcher import MicroBatcher
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    Query,
    decode_message,
    encode_message,
    error_response,
    ok_response,
)
from repro.util.lru import LRUCache

__all__ = ["ServeCoordinator", "ServerHandle"]

#: Evaluation-cache ceiling per resident model: past this many distinct
#: candidates the cache is reset rather than grown without bound (it is
#: a plain dict by design — see ``repro.search.base``).
EVAL_CACHE_CEILING = 100_000

#: Periodic persistence of the shared disk tier: every N emulated runs.
RUN_CACHE_SAVE_EVERY = 64


class _ModelEntry:
    """One resident model plus the per-model caches kept warm for it."""

    __slots__ = ("model", "cluster", "program", "eval_cache")

    def __init__(self, model, cluster, program) -> None:
        from repro.search.base import EvaluationCache

        self.model = model
        self.cluster = cluster
        self.program = program
        self.eval_cache = EvaluationCache(model.predict)


class ServeCoordinator:
    """Answer advisor queries from one warm, shared set of model state.

    Parameters
    ----------
    window_seconds / max_batch:
        Gather window and distinct-key ceiling of the predict/verify
        micro-batcher.
    jobs:
        Worker processes for the emulator fan-out of ``verify`` rounds
        (:func:`repro.parallel.verify_distributions`); ``1`` = serial.
    run_cache:
        Optional :class:`~repro.parallel.cache.RunCache` used by the
        batched emulation passes behind ``verify`` (``None`` keeps the
        process-default in-memory cache).  When constructed with a
        ``path`` it is saved (merge + atomic replace) every
        ``RUN_CACHE_SAVE_EVERY`` emulated runs and at shutdown, so a
        fleet shares emulation history.
    model_cache_entries:
        Bound of the resident-model LRU.
    telemetry:
        Server-side :class:`~repro.obs.Recorder`; every request lands in
        counters and per-op latency series (``span/serve/<op>``).
    """

    def __init__(
        self,
        *,
        window_seconds: float = 0.002,
        max_batch: int = 256,
        jobs: int = 1,
        run_cache=None,
        model_cache_entries: int = 16,
        telemetry: Optional[Recorder] = None,
    ) -> None:
        self.jobs = jobs
        self.run_cache = run_cache
        self.telemetry = as_recorder(telemetry)
        self._models = LRUCache(model_cache_entries, threadsafe=True)
        self._model_locks: Dict[Tuple, asyncio.Lock] = {}
        # One worker thread: passes serialise, the loop keeps gathering.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-model"
        )
        self._batcher = MicroBatcher(
            self._flush_round,
            window_seconds=window_seconds,
            max_batch=max_batch,
            telemetry=self.telemetry,
        )
        self._search_results = LRUCache(256)
        self._search_inflight: Dict[Tuple, asyncio.Future] = {}
        self._run_cache_stores = 0
        self.requests_handled = 0
        self._shutdown = asyncio.Event()

    # -- model residency -----------------------------------------------------

    async def _entry(self, query: Query) -> _ModelEntry:
        """The resident model for the query, building it on first use.

        The per-key asyncio lock makes concurrent first queries build
        one model, not one each; later queries hit the LRU.
        """
        key = query.model_key()
        entry = self._models.get(key)
        if entry is not None:
            return entry
        lock = self._model_locks.setdefault(key, asyncio.Lock())
        async with lock:
            entry = self._models.get(key)
            if entry is None:
                rec = self.telemetry
                started = time.perf_counter()
                entry = await self._run_blocking(self._build_entry, query)
                self._models.put(key, entry)
                if rec:
                    rec.count("serve/models_built")
                    rec.observe(
                        "span/serve/build_model",
                        time.perf_counter() - started,
                    )
        return entry

    def _build_entry(self, query: Query) -> _ModelEntry:
        from repro.apps import application_by_name
        from repro.cluster import table1_configs
        from repro.experiments import build_model

        cluster = table1_configs()[query.config]
        program = application_by_name(query.app, query.scale).structure
        model = build_model(cluster, program)
        return _ModelEntry(model, cluster, program)

    async def _run_blocking(self, fn, *args):
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, fn, *args
        )

    # -- request handling ----------------------------------------------------

    async def handle(self, query: Query) -> Dict[str, Any]:
        """Answer one parsed query (the transport-independent core)."""
        rec = self.telemetry
        started = time.perf_counter()
        try:
            if query.op == "ping":
                return {"pong": True, "version": PROTOCOL_VERSION}
            if query.op == "stats":
                return self._stats()
            if query.op == "shutdown":
                self._shutdown.set()
                return {"stopping": True}
            if query.op == "search":
                return await self._handle_search(query)
            # predict / verify ride the micro-batcher.
            return await self._batcher.submit(query.coalesce_key(), query)
        finally:
            self.requests_handled += 1
            if rec:
                rec.count(f"serve/op/{query.op}")
                # Recorded directly (not via Recorder.span): concurrent
                # handlers interleave, and the span stack is shared.
                rec.observe(
                    f"span/serve/{query.op}", time.perf_counter() - started
                )

    # -- predict / verify rounds ---------------------------------------------

    async def _flush_round(self, queries: List[Query]) -> List[Dict[str, Any]]:
        """Score one gathered round: group by model, resolve candidates,
        batch the distinct evaluation-cache misses through the kernel,
        and (for ``verify``) fan the emulator runs out in parallel."""
        groups: Dict[Tuple, List[int]] = {}
        for i, query in enumerate(queries):
            groups.setdefault(query.model_key(), []).append(i)
        results: List[Optional[Dict[str, Any]]] = [None] * len(queries)
        for key, indices in groups.items():
            try:
                entry = await self._entry(queries[indices[0]])
                await self._score_group(
                    entry, [queries[i] for i in indices], indices, results
                )
            except ReproError as exc:
                # A group-level failure (model build, batched pass)
                # answers this model's queries; other groups proceed.
                for i in indices:
                    if results[i] is None:
                        results[i] = exc
        return results  # type: ignore[return-value]

    def _resolve(self, entry: _ModelEntry, query: Query):
        from repro.distribution import (
            balanced,
            block,
            GenBlock,
            in_core,
            in_core_balanced,
        )

        if query.counts is not None:
            return GenBlock(query.counts)
        name = query.dist or "blk"
        if name == "blk":
            return block(entry.cluster, entry.program.n_rows)
        if name == "bal":
            return balanced(entry.cluster, entry.program.n_rows)
        if name == "ic":
            return in_core(entry.cluster, entry.program)
        return in_core_balanced(entry.cluster, entry.program)

    async def _score_group(
        self,
        entry: _ModelEntry,
        queries: List[Query],
        indices: List[int],
        results: List[Optional[Dict[str, Any]]],
    ) -> None:
        rec = self.telemetry
        cache = entry.eval_cache
        if len(cache) > EVAL_CACHE_CEILING:
            cache = entry.eval_cache = type(cache)(entry.model.predict)
            if rec:
                rec.count("serve/eval_cache_resets")
        # Resolve and validate per query: a malformed distribution must
        # answer its own client with the error, not poison the shared
        # round it happened to be coalesced into.
        dists = []
        for pos, query in enumerate(queries):
            try:
                d = self._resolve(entry, query)
                if d.n_nodes != len(entry.cluster.nodes):
                    raise ServeError(
                        "counts do not match the cluster's node count"
                    )
                if d.n_rows != entry.program.n_rows:
                    raise ServeError(
                        f"counts must sum to {entry.program.n_rows} rows "
                        f"for {query.app!r} at scale {query.scale}"
                    )
            except ReproError as exc:
                results[indices[pos]] = exc
                d = None
            dists.append(d)
        queries = [q for q, d in zip(queries, dists) if d is not None]
        indices = [i for i, d in zip(indices, dists) if d is not None]
        dists = [d for d in dists if d is not None]
        if not dists:
            return
        missing = [d for d in dists if d.counts not in cache]
        if missing:
            values = await self._run_blocking(
                self._predict_batch, entry.model, missing
            )
            cache.put_many([d.counts for d in missing], values)
        if rec:
            rec.count("serve/eval_cache_hits", len(dists) - len(missing))
            rec.count("serve/kernel_evaluations", len(missing))
        predicted = [cache.value(d.counts) for d in dists]
        actuals: Dict[int, float] = {}
        verify_idx = [i for i, q in enumerate(queries) if q.op == "verify"]
        if verify_idx:
            # Rounds may mix static and dynamic-scenario verifies;
            # each scenario is one batched emulation pass of its own.
            by_scenario: Dict[Optional[str], List[int]] = {}
            for i in verify_idx:
                by_scenario.setdefault(queries[i].dynamics, []).append(i)
            for scenario, idxs in by_scenario.items():
                values = await self._verify(
                    entry,
                    [dists[i] for i in idxs],
                    dynamics=self._dynamics_spec(entry, scenario),
                )
                for i, value in zip(idxs, values):
                    actuals[i] = value
        for pos, (i, query) in enumerate(zip(indices, queries)):
            result = {
                "app": query.app,
                "config": query.config,
                "counts": list(dists[pos].counts),
                "predicted_seconds": predicted[pos],
            }
            if query.op == "verify":
                actual = actuals[pos]
                result["actual_seconds"] = actual
                result["error_percent"] = (
                    abs(predicted[pos] - actual)
                    / min(predicted[pos], actual)
                    * 100.0
                )
                if query.dynamics is not None:
                    result["dynamics"] = query.dynamics
            results[i] = result

    def _predict_batch(self, model, dists) -> List[float]:
        """Executor-side kernel pass over a round's distinct misses; each
        answer is bit-identical to a one-shot ``model.predict(d)``."""
        return model.predict(dists, batch=True).tolist()

    @staticmethod
    def _dynamics_spec(entry: _ModelEntry, scenario: Optional[str]):
        """Resolve a verify query's scenario name to a DynamicsSpec.

        ``None`` (static) and the falsy ``stationary`` spec both come
        back as ``None`` so they share the static emulation/cache path.
        """
        if scenario is None:
            return None
        from repro.cluster.configs import dynamics_scenario

        spec = dynamics_scenario(scenario, len(entry.cluster.nodes))
        return spec if spec else None

    async def _verify(
        self, entry: _ModelEntry, dists, *, dynamics=None
    ) -> List[float]:
        """Emulated actual seconds for a round's verify queries, through
        the run cache and the parallel runner.

        The run cache's keys fold in the dynamics spec, so static and
        dynamic-scenario verifies of one layout never share an entry.
        """
        rec = self.telemetry
        worker_rec = Recorder() if rec else None
        actuals = await self._run_blocking(
            self._emulate, entry, dists, worker_rec, dynamics
        )
        if rec and worker_rec is not None:
            rec.merge(worker_rec)
        run_cache = self.run_cache
        if run_cache is not None and run_cache.path is not None:
            self._run_cache_stores += len(dists)
            if self._run_cache_stores >= RUN_CACHE_SAVE_EVERY:
                self._run_cache_stores = 0
                await self._run_blocking(run_cache.save)
        if rec:
            rec.count("serve/verify_emulated", len(dists))
            if dynamics is not None:
                rec.count("serve/verify_dynamic", len(dists))
        return actuals

    def _emulate(
        self, entry: _ModelEntry, dists, telemetry=None, dynamics=None
    ) -> List[float]:
        # One coalesced verify round = one batched emulation pass (the
        # ``sim/batch/passes`` counter proves it) — sharded only when
        # ``jobs > 1`` asks for worker processes.
        from repro.parallel import verify_distributions

        return verify_distributions(
            entry.cluster,
            entry.program,
            dists,
            jobs=self.jobs,
            dynamics=dynamics if dynamics is not None else False,
            run_cache=self.run_cache,
            telemetry=telemetry,
        )

    # -- search --------------------------------------------------------------

    async def _handle_search(self, query: Query) -> Dict[str, Any]:
        """Deterministic searches coalesce: identical concurrent queries
        await one in-flight run; repeats hit the bounded result cache."""
        rec = self.telemetry
        key = query.coalesce_key()
        cached = self._search_results.get(key)
        if cached is not None:
            if rec:
                rec.count("serve/search_result_hits")
            return cached
        inflight = self._search_inflight.get(key)
        if inflight is not None:
            if rec:
                rec.count("serve/coalesced")
                rec.count("serve/search_coalesced")
            return await asyncio.shield(inflight)
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._search_inflight[key] = future
        try:
            entry = await self._entry(query)
            worker_rec = Recorder() if rec else None
            result = await self._run_blocking(
                self._run_search, entry, query, worker_rec
            )
            if rec and worker_rec is not None:
                rec.merge(worker_rec)
            self._search_results.put(key, result)
            future.set_result(result)
            return result
        except BaseException as exc:
            future.set_exception(exc)
            # Mark retrieved: shielded waiters still receive it, but an
            # unobserved future must not log at interpreter exit.
            future.exception()
            raise
        finally:
            self._search_inflight.pop(key, None)

    def _run_search(
        self, entry: _ModelEntry, query: Query, telemetry: Optional[Recorder]
    ) -> Dict[str, Any]:
        from repro.search import SEARCHERS

        searcher = SEARCHERS[query.algorithm](
            entry.model, entry.cluster, batch_size=query.batch_size
        )
        result = searcher.search(budget=query.budget, telemetry=telemetry)
        return {
            "app": query.app,
            "config": query.config,
            "algorithm": result.algorithm,
            "counts": list(result.best.counts),
            "predicted_seconds": result.predicted_seconds,
            "evaluations": result.evaluations,
            "cache_hits": result.cache_hits,
        }

    # -- stats ---------------------------------------------------------------

    def _stats(self) -> Dict[str, Any]:
        from repro.core.plan import plan_cache_stats

        models = {}
        for key in list(self._models):
            entry = self._models.get(key)
            if entry is None:
                continue
            app, config, scale = key
            models["/".join([app, config, str(scale)])] = {
                "table_cache": entry.model.table_cache_stats,
                "eval_cache_entries": len(entry.eval_cache),
                "eval_cache_hits": entry.eval_cache.hits,
            }
        stats: Dict[str, Any] = {
            "version": PROTOCOL_VERSION,
            "requests_handled": self.requests_handled,
            "models_resident": len(self._models),
            "models": models,
            "plan_cache": plan_cache_stats(),
            "telemetry": self.telemetry.snapshot()
            if self.telemetry
            else None,
        }
        if self.run_cache is not None:
            stats["run_cache"] = self.run_cache.stats
        return stats

    # -- transport -----------------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        tasks: set = set()

        async def _answer(message: Dict[str, Any]) -> None:
            request_id = message.get("id")
            try:
                query = Query.from_payload(message)
                result = await self.handle(query)
                response = ok_response(request_id, result)
            except ReproError as exc:
                if self.telemetry:
                    self.telemetry.count("serve/errors")
                response = error_response(request_id, str(exc))
            async with write_lock:
                writer.write(encode_message(response))
                try:
                    await writer.drain()
                except ConnectionError:
                    pass

        try:
            while True:
                try:
                    line = await reader.readline()
                except ConnectionError:
                    break
                except asyncio.CancelledError:
                    # Loop/server teardown cancels idle connection
                    # handlers; finish cleanly so teardown stays quiet.
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    message = decode_message(line)
                except ServeError as exc:
                    async with write_lock:
                        writer.write(
                            encode_message(error_response(None, str(exc)))
                        )
                        await writer.drain()
                    continue
                # One task per request: pipelined queries from a single
                # connection coalesce exactly like separate clients.
                task = asyncio.ensure_future(_answer(message))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                # Server teardown cancels connection handlers; the
                # socket is closed either way and nothing follows.
                pass

    async def start(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        socket_path: Optional[str] = None,
    ) -> "ServerHandle":
        """Start listening; returns a handle with the bound address."""
        if socket_path is not None:
            server = await asyncio.start_unix_server(
                self._serve_connection, path=socket_path
            )
            return ServerHandle(self, server, socket_path=socket_path)
        server = await asyncio.start_server(
            self._serve_connection, host=host, port=port
        )
        bound = server.sockets[0].getsockname()
        return ServerHandle(self, server, host=bound[0], port=bound[1])

    async def wait_shutdown(self) -> None:
        await self._shutdown.wait()

    def request_shutdown(self) -> None:
        self._shutdown.set()

    async def aclose(self) -> None:
        """Drain the batcher, persist the disk tier, stop the executor."""
        await self._batcher.drain()
        if self.run_cache is not None and self.run_cache.path is not None:
            await self._run_blocking(self.run_cache.save)
        self._executor.shutdown(wait=True)


class ServerHandle:
    """A started server: its bound address plus serve/close helpers."""

    def __init__(
        self,
        coordinator: ServeCoordinator,
        server: asyncio.AbstractServer,
        host: Optional[str] = None,
        port: Optional[int] = None,
        socket_path: Optional[str] = None,
    ) -> None:
        self.coordinator = coordinator
        self.server = server
        self.host = host
        self.port = port
        self.socket_path = socket_path

    @property
    def address(self) -> str:
        if self.socket_path is not None:
            return self.socket_path
        return f"{self.host}:{self.port}"

    async def serve_until_shutdown(self) -> None:
        """Serve until a ``shutdown`` query (or
        :meth:`ServeCoordinator.request_shutdown`) arrives, then drain
        and close."""
        async with self.server:
            await self.server.start_serving()
            await self.coordinator.wait_shutdown()
        await self.coordinator.aclose()

    async def aclose(self) -> None:
        self.server.close()
        await self.server.wait_closed()
        await self.coordinator.aclose()
