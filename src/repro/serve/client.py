"""Clients for the distribution-advisor service.

Two flavours over the same line protocol
(:mod:`repro.serve.protocol`):

* :class:`ServeClient` — blocking, stdlib-socket, one outstanding
  request at a time.  What ``repro query`` and simple scripts use.
* :class:`AsyncServeClient` — asyncio, *pipelined*: many outstanding
  requests share one connection, matched back to their futures by
  request ``id``.  What the load benchmark and the concurrency suite
  drive thousands of simultaneous queries with.

Both raise :class:`~repro.exceptions.ServeError` when the server
answers ``ok: false``; transport failures surface as the usual
``OSError`` family.
"""

from __future__ import annotations

import asyncio
import json
import socket
from typing import Any, Dict, Optional

from repro.exceptions import ServeError
from repro.serve.protocol import _MAX_LINE_BYTES, encode_message

__all__ = ["ServeClient", "AsyncServeClient"]


def _check(response: Dict[str, Any]) -> Dict[str, Any]:
    if not isinstance(response, dict) or "ok" not in response:
        raise ServeError(f"malformed server response: {response!r}")
    if not response["ok"]:
        raise ServeError(response.get("error", "unknown server error"))
    return response.get("result", {})


class _QueryMixin:
    """op-specific convenience wrappers shared by both clients; the
    subclass provides ``request(payload) -> result`` (sync or async)."""

    def predict(self, app: str, **fields) -> Any:
        return self.request({"op": "predict", "app": app, **fields})

    def verify(self, app: str, **fields) -> Any:
        return self.request({"op": "verify", "app": app, **fields})

    def search(self, app: str, **fields) -> Any:
        return self.request({"op": "search", "app": app, **fields})

    def stats(self) -> Any:
        return self.request({"op": "stats"})

    def ping(self) -> Any:
        return self.request({"op": "ping"})

    def shutdown(self) -> Any:
        return self.request({"op": "shutdown"})


class ServeClient(_QueryMixin):
    """Blocking client: one connection, sequential request/response.

    ``socket_path`` selects a unix-domain socket; otherwise TCP to
    ``host:port``.  Usable as a context manager.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7421,
        socket_path: Optional[str] = None,
        timeout: float = 60.0,
    ) -> None:
        if socket_path is not None:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(timeout)
            self._sock.connect(socket_path)
        else:
            self._sock = socket.create_connection(
                (host, port), timeout=timeout
            )
        self._file = self._sock.makefile("rb")
        self._next_id = 0

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        self._next_id += 1
        request_id = self._next_id
        self._sock.sendall(encode_message({"id": request_id, **payload}))
        line = self._file.readline()
        if not line:
            raise ServeError("server closed the connection")
        response = json.loads(line.decode("utf-8"))
        if response.get("id") != request_id:
            raise ServeError(
                f"response id {response.get('id')!r} does not match "
                f"request id {request_id!r}"
            )
        return _check(response)

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class AsyncServeClient(_QueryMixin):
    """Pipelining asyncio client.

    Create with :meth:`open`; every :meth:`request` writes immediately
    and awaits its own future, so any number of requests may be in
    flight on the one connection — the server answers out of order and
    a background reader routes each response by ``id``.
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._next_id = 0
        self._waiting: Dict[int, asyncio.Future] = {}
        self._reader_task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def open(
        cls,
        host: str = "127.0.0.1",
        port: int = 7421,
        socket_path: Optional[str] = None,
    ) -> "AsyncServeClient":
        if socket_path is not None:
            reader, writer = await asyncio.open_unix_connection(
                socket_path, limit=_MAX_LINE_BYTES
            )
        else:
            reader, writer = await asyncio.open_connection(
                host, port, limit=_MAX_LINE_BYTES
            )
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                response = json.loads(line.decode("utf-8"))
                future = self._waiting.pop(response.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(response)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            closed = ServeError("server closed the connection")
            for future in self._waiting.values():
                if not future.done():
                    future.set_exception(closed)
            self._waiting.clear()

    async def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        self._next_id += 1
        request_id = self._next_id
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._waiting[request_id] = future
        self._writer.write(encode_message({"id": request_id, **payload}))
        await self._writer.drain()
        return _check(await future)

    async def aclose(self) -> None:
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except ConnectionError:
            pass

    async def __aenter__(self) -> "AsyncServeClient":
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.aclose()
