"""Stdlib-only HTTP serving layer: many clients, one warm cache.

One asyncio front end serves the JSON API in front of the batch
scheduler and artifact store::

    POST /jobs              {"workload": "mdg", "options": {...}}
                            -> 202 {"job": {...}}   (dedupes / cache-serves)
    GET  /jobs              -> {"jobs": [...]}
    GET  /jobs/<id>         -> {"job": {...}, "artifact_ready": bool}
    GET  /jobs/<id>/events  -> {"events": [...]} snapshot (``?after=N``), or
                               live Server-Sent Events with
                               ``Accept: text/event-stream``
    GET  /artifacts/<key>   -> the analysis artifact JSON
    GET  /corpus            -> {"workloads": [{name, description, ...}]}
    GET  /trace/<job_id>    -> {"job_id": ..., "spans": [...]} per-job trace
    GET  /metrics           -> counters / gauges / timers / histograms
    GET  /healthz           -> {"ok": true}

:class:`AnalysisService` holds the transport-free routes;
:class:`AnalysisServer` is the transport, a single event loop over
stdlib ``asyncio`` streams:

* keep-alive HTTP/1.1 with explicit ``Content-Length`` framing; every
  malformed request (bad or missing framing, stalled or oversized body,
  undecodable JSON) ends in a 4xx,
* fast GETs answered directly on the loop (they only touch in-memory,
  thread-safe state),
* POSTs and artifact reads bounced to a small thread pool so scheduler
  submission (hashing, claim-file I/O, inline execution) can never
  stall the accept loop; analysis itself runs in the scheduler's worker
  processes,
* **streaming job progress**: the SSE form of ``/jobs/<id>/events``
  holds the connection open and pushes each lifecycle event
  (submitted/queued/running/done/failed) the moment it lands,
* 429 responses carry ``Retry-After`` (admission control/load shed).
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from http import HTTPStatus
from typing import Dict, Optional, Tuple

from ..obs import Tracer
from .artifacts import ArtifactStore, canonical_json
from .faults import FaultPlan
from .jobs import AnalysisRequest, validate_options
from .metrics import ServiceMetrics
from .scheduler import BatchScheduler, QueueFull

_MAX_BODY = 4 * 1024 * 1024      # 4 MiB request-body cap
_MAX_HEAD = 64 * 1024            # request-line + headers cap
_BODY_TIMEOUT_S = 10.0           # a declared body must arrive within this
_SSE_POLL_S = 0.02               # event-stream poll interval
_POST_THREADS = 32               # thread pool for POSTs / artifact reads


def _parse_after(query: str) -> int:
    """The ``after=N`` resume point of an events query string (0 when
    absent); ``ValueError`` carries the client-facing message."""
    after = 0
    for pair in query.split("&"):
        if pair.startswith("after="):
            try:
                after = int(pair[6:])
            except ValueError:
                raise ValueError("after= must be an integer") from None
    return after


class AnalysisService:
    """The shared state behind the HTTP handlers."""

    def __init__(self, *, cache_dir: Optional[str] = None,
                 workers: Optional[int] = None,
                 inline: bool = False,
                 trace: bool = True,
                 inject: Optional[str] = None,
                 default_deadline_s: Optional[float] = None,
                 max_jobs: int = 1024,
                 allow_faults: Optional[bool] = None,
                 shards: int = 1,
                 max_queue: Optional[int] = None):
        self.metrics = ServiceMetrics()
        self.store = ArtifactStore(cache_dir, metrics=self.metrics)
        # Per-job tracing defaults on: the cost is a dozen spans per job
        # (microseconds against seconds of analysis) and it is what
        # makes GET /trace/<job_id> and the per-phase histograms useful.
        self.scheduler = BatchScheduler(
            self.store, shards=shards, metrics=self.metrics,
            workers=workers, inline=inline,
            tracer=Tracer() if trace else None,
            fault_plan=FaultPlan.parse(inject),
            default_deadline_s=default_deadline_s,
            max_jobs=max_jobs, max_queue=max_queue)
        #: Whether POST /jobs accepts ``options["fault"]`` chaos
        #: directives.  Default: only when injection was enabled
        #: (``--inject``) — a production server 400s them at the
        #: boundary.
        if allow_faults is None:
            allow_faults = self.scheduler.fault_plan is not None
        self.allow_faults = bool(allow_faults)

    # -- routes ------------------------------------------------------------
    def handle_get(self, path: str) -> Tuple[int, Dict]:
        path, _, query = path.partition("?")
        parts = [p for p in path.split("/") if p]
        if parts == ["healthz"]:
            return 200, {"ok": True}
        if parts == ["metrics"]:
            snap = self.metrics.snapshot()
            snap["store"] = self.store.stats()
            snap["shards"] = self.scheduler.shard_stats()
            return 200, snap
        if parts == ["corpus"]:
            return 200, {"workloads": _corpus_listing(),
                         "synth": _synth_listing()}
        if parts == ["jobs"]:
            return 200, {"jobs": [j.to_dict()
                                  for j in self.scheduler.jobs()]}
        if len(parts) == 2 and parts[0] == "jobs":
            job = self.scheduler.job(parts[1])
            if job is None:
                return 404, {"error": f"no job {parts[1]!r}"}
            return 200, {"job": job.to_dict(),
                         "artifact_ready": job.state == "done"}
        if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "events":
            # JSON snapshot of the progress stream (the transport also
            # serves this path as live SSE).  ``?after=N`` resumes past
            # already-seen sequence numbers.
            job = self.scheduler.job(parts[1])
            if job is None:
                return 404, {"error": f"no job {parts[1]!r}"}
            try:
                after = _parse_after(query)
            except ValueError as exc:
                return 400, {"error": str(exc)}
            return 200, {"job_id": job.id,
                         "events": job.events_after(after),
                         "finished": job.finished}
        if len(parts) == 2 and parts[0] == "trace":
            job = self.scheduler.job(parts[1])
            if job is None:
                return 404, {"error": f"no job {parts[1]!r}"}
            spans = self.scheduler.trace(parts[1])
            if spans is None:
                return 404, {"error": f"no trace for job {parts[1]!r} "
                                      "(cached/deduped jobs and disabled "
                                      "tracing record no spans)"}
            return 200, {"job_id": parts[1], "spans": spans}
        if len(parts) == 2 and parts[0] == "artifacts":
            artifact = self.store.get(parts[1])
            if artifact is None:
                return 404, {"error": f"no artifact {parts[1]!r}"}
            # canonical key order: the process that computed the
            # artifact serves the same bytes as one that loaded it
            # from the shared disk tree
            return 200, json.loads(canonical_json(artifact))
        return 404, {"error": f"no route GET {path!r}"}

    def handle_post(self, path: str, body: Dict) -> Tuple[int, Dict]:
        parts = [p for p in path.split("/") if p]
        if parts == ["jobs"]:
            try:
                options = validate_options(body.get("options"),
                                           allow_faults=self.allow_faults)
                request = AnalysisRequest(
                    body.get("workload"), source=body.get("source"),
                    program_name=body.get("program_name"),
                    inputs=body.get("inputs"),
                    options=options)
                job = self.scheduler.submit(request)
            except QueueFull as exc:
                # Load shed: the transport layer maps ``retry_after_s``
                # to a ``Retry-After`` header alongside the 429.
                return 429, {"error": str(exc),
                             "retry_after_s": exc.retry_after_s}
            except (KeyError, ValueError, TypeError) as exc:
                return 400, {"error": str(exc)}
            return 202, {"job": job.to_dict()}
        return 404, {"error": f"no route POST {path!r}"}

    def close(self) -> None:
        self.scheduler.shutdown()


def _corpus_listing() -> list:
    from ..workloads import ALL
    return [{"name": w.name,
             "description": w.description,
             "lines": w.line_count(),
             "inputs": list(w.inputs),
             "assertions": len(w.user_assertions),
             "tags": list(w.tags)}
            for _, w in sorted(ALL.items())]


def _synth_listing() -> Dict:
    """Advertise the generated-workload namespace: profiles and the name
    scheme clients may POST as ``workload`` (resolved lazily per job; no
    generation happens to serve this listing)."""
    from ..workloads.synth import GENERATOR_VERSION, SPECS
    return {"name_format": "synth/s<seed>-<profile>",
            "generator_version": GENERATOR_VERSION,
            "profiles": [{"profile": p, "description": s.description}
                         for p, s in sorted(SPECS.items())]}


class _Reject(Exception):
    """A request refused before dispatch: reply ``status`` and close."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def _parse_head(head: bytes) -> Tuple[str, str, Dict[str, str]]:
    """(method, target, lowercased-header dict) from a raw head block."""
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, target, _version = lines[0].split(" ", 2)
    except ValueError:
        raise ValueError(f"malformed request line {lines[0]!r}") from None
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return method.upper(), target, headers


def _body_length(headers: Dict[str, str]) -> int:
    """The declared body length; :class:`_Reject` for framing this
    server does not accept (the connection cannot be resynchronised
    after any of these, so each closes it)."""
    if "transfer-encoding" in headers:
        raise _Reject(411, "Transfer-Encoding is not supported; "
                           "send a Content-Length")
    raw = headers.get("content-length", "0")
    if not (raw.isascii() and raw.isdigit()):
        raise _Reject(400, f"bad Content-Length {raw!r}")
    length = int(raw)
    if length > _MAX_BODY:
        raise _Reject(413, "request body too large")
    return length


class AnalysisServer:
    """An asyncio-streams HTTP server bound to an :class:`AnalysisService`.

    ``port=0`` binds an ephemeral port (tests, smoke script);
    :meth:`start` serves from a background thread (the event loop runs
    there), :meth:`stop` shuts it down, ``with`` does both."""

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0,
                 quiet: bool = True, **service_kwargs):
        self.service = AnalysisService(**service_kwargs)
        self.quiet = quiet
        self._host_req = host
        self._port_req = port
        self._addr: Optional[Tuple[str, int]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server = None
        self._stop_async: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=_POST_THREADS, thread_name_prefix="server-post")

    # -- addresses ---------------------------------------------------------
    @property
    def host(self) -> str:
        return self._addr[0] if self._addr else self._host_req

    @property
    def port(self) -> int:
        return self._addr[1] if self._addr else self._port_req

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle ---------------------------------------------------------
    async def _serve(self) -> None:
        self._stop_async = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_conn, self._host_req, self._port_req,
            limit=_MAX_HEAD)
        self._addr = self._server.sockets[0].getsockname()[:2]
        self._started.set()
        async with self._server:
            await self._stop_async.wait()
        # Reap connection handlers still in flight (held-open SSE
        # streams, slow clients) so the loop can close cleanly.
        current = asyncio.current_task()
        tasks = [t for t in asyncio.all_tasks() if t is not current]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self._serve())
        finally:
            asyncio.set_event_loop(None)
            loop.close()

    def start(self) -> "AnalysisServer":
        self._thread = threading.Thread(
            target=self._run_loop, name="analysis-server", daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=10):
            raise RuntimeError("server failed to bind")
        return self

    def stop(self) -> None:
        loop, stop = self._loop, self._stop_async
        if loop is not None and stop is not None and loop.is_running():
            loop.call_soon_threadsafe(stop.set)
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._executor.shutdown(wait=False)
        self.service.close()

    def __enter__(self) -> "AnalysisServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- connection handling -----------------------------------------------
    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            try:
                await self._serve_conn(reader, writer)
            except _Reject as exc:
                await self._reply(writer, exc.status, {"error": str(exc)},
                                  keep=False)
        except (asyncio.IncompleteReadError, ConnectionError,
                asyncio.CancelledError):
            return          # client went away / EOF / server shutdown
        except Exception:                    # noqa: BLE001
            self.service.metrics.incr("http_conn_errors")
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (Exception, asyncio.CancelledError):  # noqa: BLE001
                pass

    async def _serve_conn(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        """Answer requests on one connection until it closes or one is
        rejected (:class:`_Reject`)."""
        while True:
            # No timeout here: an idle keep-alive connection between
            # requests stays open until the client closes it.
            try:
                head = await reader.readuntil(b"\r\n\r\n")
            except asyncio.LimitOverrunError:
                raise _Reject(431, "headers too large") from None
            try:
                method, target, headers = _parse_head(head)
            except ValueError as exc:
                raise _Reject(400, str(exc)) from None
            body = await self._read_body(reader, _body_length(headers))
            keep = headers.get("connection", "").lower() != "close"
            self.service.metrics.incr("http_requests")
            if method == "GET" and self._wants_sse(target, headers):
                await self._stream_events(writer, target)
                return                       # SSE connections end here
            status, payload = await self._dispatch(method, target, body)
            await self._reply(writer, status, payload, keep=keep)
            if not self.quiet:
                print(f"{method} {target} -> {status}", file=sys.stderr)
            if not keep:
                return

    @staticmethod
    async def _read_body(reader: asyncio.StreamReader,
                         length: int) -> bytes:
        """The declared body, or 408 when it stalls (a slow-loris client
        must not hold its connection task forever)."""
        # A body that already arrived with the head is taken without
        # arming a timer (``_buffer`` is the reader's private bytearray;
        # without it every body just takes the timed path).
        if length <= len(getattr(reader, "_buffer", b"")):
            return await reader.readexactly(length)
        try:
            return await asyncio.wait_for(reader.readexactly(length),
                                          _BODY_TIMEOUT_S)
        except asyncio.TimeoutError:
            raise _Reject(408, f"request body not received within "
                               f"{_BODY_TIMEOUT_S:g}s") from None

    async def _dispatch(self, method: str, target: str,
                        body: bytes) -> Tuple[int, Dict]:
        loop = asyncio.get_event_loop()
        try:
            if method == "GET":
                with self.service.metrics.time_phase("http_get"):
                    path = target.partition("?")[0]
                    if path.startswith("/artifacts/"):
                        # disk read: keep it off the accept loop
                        return await loop.run_in_executor(
                            self._executor, self.service.handle_get,
                            target)
                    return self.service.handle_get(target)
            if method == "POST":
                try:
                    parsed = json.loads(body.decode("utf-8") or "{}")
                    if not isinstance(parsed, dict):
                        raise ValueError("body must be a JSON object")
                except RecursionError:
                    return 400, {"error": "bad JSON body: nested too "
                                          "deeply"}
                except (ValueError, UnicodeDecodeError) as exc:
                    return 400, {"error": f"bad JSON body: {exc}"}
                with self.service.metrics.time_phase("http_post"):
                    # submission hashes, reads the store, and touches
                    # claim files — never on the event loop
                    return await loop.run_in_executor(
                        self._executor, self.service.handle_post,
                        target.partition("?")[0], parsed)
            return 405, {"error": f"method {method} not allowed"}
        except Exception as exc:             # noqa: BLE001
            return 500, {"error": f"{type(exc).__name__}: {exc}"}

    # -- responses ---------------------------------------------------------
    async def _reply(self, writer: asyncio.StreamWriter, status: int,
                     payload: Dict, keep: bool = True) -> None:
        data = json.dumps(payload).encode("utf-8")
        head = [f"HTTP/1.1 {status} {HTTPStatus(status).phrase}",
                "Content-Type: application/json",
                f"Content-Length: {len(data)}"]
        if status == 429 and "retry_after_s" in payload:
            head.append(
                f"Retry-After: {max(1, int(payload['retry_after_s']))}")
        head.append("Connection: keep-alive" if keep
                    else "Connection: close")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
                     + data)
        await writer.drain()

    # -- server-sent events --------------------------------------------------
    @staticmethod
    def _wants_sse(target: str, headers: Dict[str, str]) -> bool:
        path = target.partition("?")[0]
        parts = [p for p in path.split("/") if p]
        return (len(parts) == 3 and parts[0] == "jobs"
                and parts[2] == "events"
                and "text/event-stream" in headers.get("accept", ""))

    async def _stream_events(self, writer: asyncio.StreamWriter,
                             target: str) -> None:
        path, _, query = target.partition("?")
        parts = [p for p in path.split("/") if p]
        job = self.service.scheduler.job(parts[1])
        if job is None:
            raise _Reject(404, f"no job {parts[1]!r}")
        try:
            seq = _parse_after(query)
        except ValueError as exc:
            raise _Reject(400, str(exc)) from None
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: text/event-stream\r\n"
                     b"Cache-Control: no-cache\r\n"
                     b"Connection: close\r\n\r\n")
        await writer.drain()
        self.service.metrics.incr("sse_streams")
        while True:
            events = job.events_after(seq)
            for event in events:
                seq = event["seq"]
                writer.write(b"data: " + json.dumps(event).encode("utf-8")
                             + b"\n\n")
            if events:
                await writer.drain()
            # Terminal transitions append their event *before* flipping
            # state, so finished + drained-to-seq means nothing more can
            # arrive.
            if job.finished and not job.events_after(seq):
                break
            await asyncio.sleep(_SSE_POLL_S)
        writer.write(b"event: end\ndata: {}\n\n")
        await writer.drain()
