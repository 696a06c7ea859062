"""The HTTP face of the job service: routing, streaming, lifecycle.

A deliberately small HTTP/1.1 server on raw ``asyncio`` streams — no
frameworks, no new dependencies.  One accept loop, one coroutine per
connection; compute never runs on the event loop (jobs execute on the
:class:`~repro.serve.jobs.JobManager` worker threads and fan out through
:mod:`repro.exec` process pools), so the loop only ever parses small
requests and shovels bytes.

Routes (see ``docs/serving.md`` for the full API):

========  =========================  =======================================
 method    path                       behaviour
========  =========================  =======================================
 GET       /healthz                   liveness + version + job counts
 GET       /metrics                   obs counter snapshot (when armed)
 POST      /jobs                      submit ``{"type": t, "request": {...}}``
 GET       /jobs                      list all jobs
 GET       /jobs/<id>                 one job's status
 GET       /jobs/<id>/result          final result payload (done jobs)
 GET       /jobs/<id>/stream          NDJSON (default) or SSE event stream
 DELETE    /jobs/<id>                 cancel
========  =========================  =======================================

Streaming responses replay the job's full event history, then follow
live events until the terminal ``end`` event.  The bridge from worker
threads onto the event loop is ``loop.call_soon_threadsafe`` waking an
``asyncio.Event`` per subscriber; the subscriber's bounded buffer (see
:mod:`repro.serve.streams`) is what keeps a slow consumer from ever
back-pressuring the compute path.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro import __version__
from repro.errors import ConfigurationError
from repro.obs import OBS
from repro.serve.jobs import (
    JobManager,
    QueueFullError,
    TERMINAL_STATES,
    UnknownJobError,
)
from repro.serve.streams import encode_ndjson, encode_sse

__all__ = ["DEFAULT_HOST", "DEFAULT_PORT", "ReproServer", "ServerThread"]

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8733

#: Largest accepted request body (a fleet spec for ~100k devices).
MAX_BODY_BYTES = 64 * 1024 * 1024

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _response(status: int, payload: Dict, extra_headers: Dict = None) -> bytes:
    body = (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")
    headers = {
        "Content-Type": "application/json",
        "Content-Length": str(len(body)),
        "Connection": "close",
    }
    if extra_headers:
        headers.update(extra_headers)
    head = f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n" + "".join(
        f"{k}: {v}\r\n" for k, v in headers.items()
    )
    return head.encode("ascii") + b"\r\n" + body


class _HttpError(Exception):
    """Routed straight to a JSON error response."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class ReproServer:
    """The long-lived simulation service.

    ``port=0`` binds an ephemeral port (tests); the bound port is
    available as :attr:`port` once the server is up.  ``manager`` may be
    injected to share caches or stub handlers; otherwise one is built
    from ``workers``/``queue_depth``/``buffer_limit``.
    """

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        workers: int = 2,
        queue_depth: int = 16,
        buffer_limit: int = 256,
        manager: Optional[JobManager] = None,
    ):
        if not 0 <= port <= 65535:
            raise ConfigurationError(f"port must be in [0, 65535], got {port}")
        self.host = host
        self.port = port
        self.manager = manager or JobManager(
            workers=workers, queue_depth=queue_depth, buffer_limit=buffer_limit
        )
        self._stop_event: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def serve(self, on_ready=None) -> None:
        """Run until :meth:`stop` is called (the coroutine entry point)."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            server = await asyncio.start_server(self._handle_client, self.host, self.port)
        except OSError as exc:
            raise ConfigurationError(f"cannot serve on {self.host}:{self.port}: {exc}") from None
        self.manager.start()
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        if on_ready is not None:
            on_ready(self)
        try:
            async with server:
                await self._stop_event.wait()
        finally:
            self._ready.clear()
            self.manager.stop()

    def run(self, on_ready=None) -> None:
        """Blocking entry point (the CLI); Ctrl-C stops cleanly."""
        try:
            asyncio.run(self.serve(on_ready=on_ready))
        except KeyboardInterrupt:
            pass

    def stop(self) -> None:
        """Stop the accept loop (threadsafe)."""
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # One connection
    # ------------------------------------------------------------------
    async def _handle_client(self, reader, writer) -> None:
        try:
            method, path, headers, body = await self._read_request(reader)
            await self._route(method, path, headers, body, writer)
        except _HttpError as exc:
            writer.write(_response(exc.status, {"error": str(exc)}))
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass  # client went away; nothing to answer
        except Exception as exc:  # noqa: BLE001 - a connection must not kill the loop
            try:
                writer.write(
                    _response(500, {"error": f"{type(exc).__name__}: {exc}"})
                )
            except Exception:  # noqa: BLE001
                pass
        finally:
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except Exception:  # noqa: BLE001
                pass

    async def _read_request(self, reader) -> Tuple[str, str, Dict[str, str], bytes]:
        request_line = await reader.readline()
        if not request_line:
            raise _HttpError(400, "empty request")
        try:
            method, path, _version = request_line.decode("ascii").split()
        except ValueError:
            raise _HttpError(400, "malformed request line")
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or 0)
        if length > MAX_BODY_BYTES:
            raise _HttpError(400, f"request body over {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, headers, body

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(self, method, path, headers, body, writer) -> None:
        split = urlsplit(path)
        query = parse_qs(split.query)
        parts = [p for p in split.path.split("/") if p]
        if parts == ["healthz"] and method == "GET":
            return self._send(writer, 200, self._health())
        if parts == ["metrics"] and method == "GET":
            return self._send(writer, 200, self._metrics())
        if parts == ["jobs"]:
            if method == "POST":
                return self._send(writer, *self._submit(body))
            if method == "GET":
                return self._send(
                    writer, 200, {"jobs": [j.to_dict() for j in self.manager.jobs()]}
                )
            raise _HttpError(405, f"{method} not allowed on /jobs")
        if len(parts) >= 2 and parts[0] == "jobs":
            job_id = parts[1]
            try:
                job = self.manager.get(job_id)
            except UnknownJobError as exc:
                raise _HttpError(404, str(exc))
            if len(parts) == 2:
                if method == "GET":
                    return self._send(writer, 200, job.to_dict())
                if method == "DELETE":
                    return self._send(
                        writer, 200, self.manager.cancel(job_id).to_dict()
                    )
                raise _HttpError(405, f"{method} not allowed on /jobs/<id>")
            if parts[2] == "result" and method == "GET":
                return self._send(writer, *self._result(job))
            if parts[2] == "stream" and method == "GET":
                sse = "sse" in query or "text/event-stream" in headers.get("accept", "")
                return await self._stream(job_id, writer, sse=sse)
            raise _HttpError(404, f"unknown endpoint /jobs/<id>/{parts[2]}")
        raise _HttpError(404, f"unknown path {split.path!r}")

    def _send(self, writer, status: int, payload: Dict, headers: Dict = None) -> None:
        writer.write(_response(status, payload, headers))

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def _health(self) -> Dict:
        states: Dict[str, int] = {}
        for job in self.manager.jobs():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "ok": True,
            "version": __version__,
            "queue_depth": self.manager.queue_depth,
            "queued": self.manager.queue_length(),
            "workers": self.manager.workers,
            "jobs": states,
        }

    def _metrics(self) -> Dict:
        if not OBS.metrics.enabled:
            return {"enabled": False}
        snap = OBS.metrics.snapshot()
        return {"enabled": True, "counters": snap["counters"], "ops": snap["ops"]}

    def _submit(self, body: bytes) -> Tuple[int, Dict]:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise _HttpError(400, "request body must be JSON")
        if not isinstance(payload, dict) or "type" not in payload:
            raise _HttpError(400, 'submit payload must be {"type": ..., "request": {...}}')
        try:
            job = self.manager.submit(payload["type"], payload.get("request", {}))
        except QueueFullError as exc:
            return 503, {"error": str(exc), "retry": True}
        except ConfigurationError as exc:
            raise _HttpError(400, str(exc))
        return 202, {"job": job.to_dict()}

    def _result(self, job) -> Tuple[int, Dict]:
        if job.state == "done":
            return 200, {"job": job.to_dict(), "result": job.result}
        if job.state in TERMINAL_STATES:
            return 409, {"job": job.to_dict(), "error": job.error or job.state}
        return 409, {"job": job.to_dict(), "error": f"job is {job.state}"}

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    async def _stream(self, job_id: str, writer, sse: bool) -> None:
        loop = asyncio.get_running_loop()
        wake = asyncio.Event()
        job, subscriber, replay = self.manager.subscribe(
            job_id, notify=lambda: loop.call_soon_threadsafe(wake.set)
        )
        encode = encode_sse if sse else encode_ndjson
        content_type = "text/event-stream" if sse else "application/x-ndjson"
        writer.write(
            (
                "HTTP/1.1 200 OK\r\n"
                f"Content-Type: {content_type}\r\n"
                "Cache-Control: no-store\r\n"
                "Connection: close\r\n\r\n"
            ).encode("ascii")
        )
        ended = False
        try:
            for event in replay:
                writer.write(encode(event))
                ended = ended or event.get("event") == "end"
            await writer.drain()
            while not ended:
                batch = subscriber.drain()
                if not batch:
                    # The 0.5 s timeout is a liveness backstop (e.g. the
                    # manager shutting down mid-stream), not the normal
                    # wake path.
                    try:
                        await asyncio.wait_for(wake.wait(), timeout=0.5)
                    except asyncio.TimeoutError:
                        if job.state in TERMINAL_STATES and not len(subscriber):
                            break
                    wake.clear()
                    continue
                for event in batch:
                    writer.write(encode(event))
                    ended = ended or event.get("event") == "end"
                # Back-pressure lands HERE, on this subscriber's socket
                # only — the job keeps publishing into the bounded
                # buffer (dropping oldest) while we wait.
                await writer.drain()
        finally:
            job.unsubscribe(subscriber)


class ServerThread:
    """A live server on a background thread (tests, benchmarks).

    ::

        with ServerThread(workers=1) as server:
            client = ServeClient(port=server.port)
            ...

    Binds an ephemeral port by default; ``__enter__`` returns the
    running :class:`ReproServer` with :attr:`~ReproServer.port` bound.
    """

    def __init__(self, **kwargs):
        kwargs.setdefault("port", 0)
        self.server = ReproServer(**kwargs)
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> ReproServer:
        self._thread = threading.Thread(
            target=self.server.run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self.server._ready.wait(timeout=10.0):
            raise RuntimeError("serve thread failed to come up within 10 s")
        return self.server

    def __exit__(self, *exc_info) -> None:
        self.server.stop()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
