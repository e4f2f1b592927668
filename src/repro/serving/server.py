"""Asyncio HTTP/1.1 front door for :class:`~repro.serving.app.ServingApp`.

Stdlib only: ``asyncio.start_server`` accepts connections, a small
HTTP/1.1 codec parses requests (keep-alive, ``Content-Length`` bodies,
bounded header/body sizes), and handlers run on a thread pool so the
event loop never blocks on engine work.  The loop stays free to accept
sockets and serve ``/health`` while a multi-second bulk ingest runs.

Graceful shutdown is the part worth reading closely.  On SIGTERM/SIGINT
(or :meth:`ServingServer.stop`) the ordering is strict:

1. **stop accepting** -- the listening socket closes first, so a load
   balancer's next connection attempt fails fast instead of queueing;
2. **drain** -- requests already being handled run to completion
   (requests parsed after this point get ``503 draining``); idle
   keep-alive connections are closed;
3. **checkpoint + close** -- the backend is closed *with* a final
   checkpoint, which flushes dirty state and releases the store lease;
4. **exit 0** -- a drained shutdown is a success, not a crash.

Because every applied ingest batch is WAL-journaled *before* the engine
mutates (the durability contract from the layers below), a SIGKILL or
power cut at any point in this sequence still recovers the surviving WAL
prefix exactly; the graceful path just avoids replay work and releases
the lease promptly.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import signal
import sys
import threading
from typing import Awaitable, Callable
from urllib.parse import parse_qsl, urlsplit

from repro.serving.app import Request, Response, ServingApp

__all__ = ["ServingServer"]

#: request line + headers must fit in this many bytes
_MAX_HEADER_BYTES = 64 * 1024
#: default ceiling on a request body (a 1000-key x 4096-round grid is ~32 MB)
_MAX_BODY_BYTES = 256 * 1024 * 1024
#: a request must arrive whole within this many seconds of the server
#: starting to wait for it; an idle or stalled connection is dropped
_KEEPALIVE_IDLE_SECONDS = 120.0

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    415: "Unsupported Media Type",
    422: "Unprocessable Entity",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    505: "HTTP Version Not Supported",
}


class _BadRequest(Exception):
    """A connection-level protocol violation: reply and close."""

    def __init__(self, status: int, detail: str):
        super().__init__(detail)
        self.status = status
        self.detail = detail


def _render(response: Response, *, keep_alive: bool) -> bytes:
    reason = _REASONS.get(response.status, "Unknown")
    headers = dict(response.headers)
    headers.setdefault("Content-Type", response.content_type)
    headers["Content-Length"] = str(len(response.body))
    headers.setdefault(
        "Connection", "keep-alive" if keep_alive else "close"
    )
    lines = [f"HTTP/1.1 {response.status} {reason}"]
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + response.body


def _kernel_field(health: dict, field: str) -> str:
    """One field of the kernel reports behind a backend's health.

    ``field`` is ``"body"`` (``native``, ``native+numpy``) or ``"vector"``
    (``avx512f``, ``avx2+default``).  An engine backend reports its own
    process; a cluster front builds no kernel, so its line carries what
    its shards' workers reported.
    """
    if "kernel" in health:
        reports = [health["kernel"]]
    else:
        reports = [shard["kernel"] for shard in health["shards"].values()]
    values = {report[field] for report in reports if report and report[field]}
    return "+".join(sorted(values)) or "unknown"


class ServingServer:
    """Serve a :class:`ServingApp` over HTTP/1.1 on one listening socket.

    Two ways to run it:

    * :meth:`run` -- blocking, installs SIGTERM/SIGINT handlers, returns
      the process exit code (0 after a drained shutdown).  This is what
      ``python -m repro.serving`` calls.
    * :meth:`start_in_thread` / :meth:`stop` -- for tests, examples, and
      benchmarks: the loop runs on a daemon thread, ``start_in_thread``
      returns once the socket is bound, ``stop`` performs the same
      drain-checkpoint shutdown and joins the thread.
    """

    def __init__(
        self,
        app: ServingApp,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int = 8,
        max_body_bytes: int = _MAX_BODY_BYTES,
        checkpoint_interval: float | None = None,
        ready_stream=None,
    ):
        self.app = app
        self.host = host
        self.port = int(port)  # 0 = ephemeral; real port set at bind time
        self.max_body_bytes = int(max_body_bytes)
        self.checkpoint_interval = checkpoint_interval
        self._ready_stream = ready_stream
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=int(workers), thread_name_prefix="repro-serving"
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._connections: set[asyncio.Task] = set()
        self._busy = 0  # requests currently being handled (loop-thread only)
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._closed = False

    # ------------------------------------------------------------- codec

    async def _read_request(self, reader: asyncio.StreamReader) -> Request | None:
        """Parse one request; ``None`` on clean EOF or an idle connection.

        Head and body share one deadline, so a client cannot hold a
        connection by sending nothing, nor by stopping mid-body (that
        one is answered 408).
        """
        deadline = asyncio.get_running_loop().time() + _KEEPALIVE_IDLE_SECONDS
        try:
            async with asyncio.timeout_at(deadline):
                head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, ConnectionResetError, TimeoutError):
            return None
        except asyncio.LimitOverrunError:
            raise _BadRequest(431, "request head exceeds the header limit")
        if len(head) > _MAX_HEADER_BYTES:
            raise _BadRequest(431, "request head exceeds the header limit")
        try:
            text = head.decode("latin-1")
        except UnicodeDecodeError:  # pragma: no cover - latin-1 total
            raise _BadRequest(400, "request head is not latin-1")
        request_line, _, header_block = text.partition("\r\n")
        parts = request_line.split(" ")
        if len(parts) != 3:
            raise _BadRequest(400, f"malformed request line {request_line!r}")
        method, target, version = parts
        if version not in ("HTTP/1.1", "HTTP/1.0"):
            raise _BadRequest(505, f"unsupported HTTP version {version!r}")
        headers: dict = {}
        for line in header_block.split("\r\n"):
            if not line:
                continue
            name, separator, value = line.partition(":")
            if not separator:
                raise _BadRequest(400, f"malformed header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        split = urlsplit(target)
        query = dict(parse_qsl(split.query, keep_blank_values=True))
        body = b""
        length_text = headers.get("content-length")
        if length_text is not None:
            try:
                length = int(length_text)
            except ValueError:
                raise _BadRequest(400, "content-length is not an integer")
            if length < 0:
                raise _BadRequest(400, "content-length is negative")
            if length > self.max_body_bytes:
                raise _BadRequest(
                    413,
                    f"body of {length} bytes exceeds the "
                    f"{self.max_body_bytes}-byte limit",
                )
            try:
                async with asyncio.timeout_at(deadline):
                    body = await reader.readexactly(length)
            except (asyncio.IncompleteReadError, ConnectionResetError):
                return None
            except TimeoutError:
                raise _BadRequest(
                    408,
                    f"body of {length} bytes not received within "
                    f"{_KEEPALIVE_IDLE_SECONDS:g} s",
                ) from None
        elif "chunked" in headers.get("transfer-encoding", "").lower():
            raise _BadRequest(
                400, "chunked bodies are not supported; send Content-Length"
            )
        return Request(
            method=method.upper(),
            path=split.path,
            query=query,
            headers=headers,
            body=body,
        )

    # ------------------------------------------------------- connections

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        loop = asyncio.get_running_loop()
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadRequest as error:
                    from repro.serving.protocol import dump_json

                    response = Response(
                        status=error.status,
                        body=dump_json(
                            {"error": "bad_request", "detail": error.detail}
                        ),
                    )
                    writer.write(_render(response, keep_alive=False))
                    await writer.drain()
                    return
                if request is None:
                    return
                self._busy += 1
                try:
                    response = await loop.run_in_executor(
                        self._executor, self.app.handle, request
                    )
                finally:
                    self._busy -= 1
                keep_alive = (
                    not self.app.draining
                    and request.headers.get("connection", "").lower()
                    != "close"
                    and response.headers.get("Connection", "").lower()
                    != "close"
                )
                writer.write(_render(response, keep_alive=keep_alive))
                await writer.drain()
                if not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            # CancelledError too: a drain-cancelled task re-raises on every
            # await, and this close must not surface as a loop error
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    def _track(
        self, handler: Callable[..., Awaitable[None]]
    ) -> Callable[..., Awaitable[None]]:
        async def tracked(reader, writer) -> None:
            task = asyncio.current_task()
            assert task is not None
            self._connections.add(task)
            try:
                await handler(reader, writer)
            finally:
                self._connections.discard(task)

        return tracked

    # --------------------------------------------------------- lifecycle

    async def _serve(self) -> None:
        """Bind, announce readiness, serve until stopped, then drain."""
        self._loop = asyncio.get_running_loop()
        if self._stop_event is None:  # run() pre-creates it for signals
            self._stop_event = asyncio.Event()
        server = await asyncio.start_server(
            self._track(self._handle_connection),
            self.host,
            self.port,
            limit=_MAX_HEADER_BYTES,
        )
        self.port = server.sockets[0].getsockname()[1]
        stream = self._ready_stream if self._ready_stream is not None else sys.stdout
        # One line, port last: launchers parse it as ``...:PORT``.
        health = self.app.backend.health()
        print(
            f"repro-serving (kernel: {_kernel_field(health, 'body')}) "
            f"(vector: {_kernel_field(health, 'vector')}) "
            f"ready on http://{self.host}:{self.port}",
            file=stream,
            flush=True,
        )
        self._ready.set()
        checkpointer: asyncio.Task | None = None
        if self.checkpoint_interval:
            checkpointer = asyncio.create_task(self._checkpoint_loop())
        try:
            await self._stop_event.wait()
        finally:
            # 1. stop accepting
            server.close()
            await server.wait_closed()
            if checkpointer is not None:
                checkpointer.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await checkpointer
            # 2. drain: in-flight requests finish; new ones get 503
            self.app.draining = True
            while self._busy:
                await asyncio.sleep(0.005)
            for task in list(self._connections):
                task.cancel()
            if self._connections:
                await asyncio.gather(
                    *self._connections, return_exceptions=True
                )
            # 3. checkpoint + close: flush state, release the store lease
            await asyncio.get_running_loop().run_in_executor(
                self._executor, self._close_backend
            )

    def _close_backend(self) -> None:
        if not self._closed:
            self._closed = True
            self.app.close(checkpoint=True)

    async def _checkpoint_loop(self) -> None:
        assert self.checkpoint_interval
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.checkpoint_interval)
            await loop.run_in_executor(self._executor, self.app.checkpoint)

    def request_stop(self) -> None:
        """Begin the drain-checkpoint shutdown (thread-safe, idempotent)."""
        loop, event = self._loop, self._stop_event
        if loop is None or event is None:
            return
        loop.call_soon_threadsafe(event.set)

    def run(self) -> int:
        """Serve until SIGTERM/SIGINT; return the process exit code."""

        async def bootstrap() -> None:
            # _stop_event must exist before the signal handlers that set
            # it; _serve() would create it too late relative to a very
            # early signal, so stage the setup here.
            self._loop = asyncio.get_running_loop()
            self._stop_event = asyncio.Event()
            for signum in (signal.SIGTERM, signal.SIGINT):
                self._loop.add_signal_handler(signum, self._stop_event.set)
            await self._serve()

        try:
            asyncio.run(bootstrap())
        finally:
            self._executor.shutdown(wait=True)
        return 0

    # ------------------------------------------------------ thread-hosted

    def start_in_thread(self, timeout: float = 30.0) -> tuple[str, int]:
        """Run the server on a daemon thread; return ``(host, port)``."""
        if self._thread is not None:
            raise RuntimeError("server already started")

        def thread_main() -> None:
            try:
                asyncio.run(self._serve())
            finally:
                self._ready.set()  # unblock a waiter even on bind failure

        self._thread = threading.Thread(
            target=thread_main, name="repro-serving-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server did not become ready in time")
        if self._loop is None:
            raise RuntimeError("server failed to start (bind error?)")
        return self.host, self.port

    def stop(self, timeout: float = 60.0) -> None:
        """Drain, checkpoint, release the lease, and join the loop thread."""
        self.request_stop()
        if self._thread is not None:
            self._thread.join(timeout)
            if self._thread.is_alive():
                raise RuntimeError("server thread did not stop in time")
            self._thread = None
        self._executor.shutdown(wait=True)
