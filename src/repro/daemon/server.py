"""The asyncio front-end of the incremental analysis daemon.

One :class:`DaemonServer` listens on a Unix-domain socket (or a TCP
port) and speaks newline-delimited ``repro.daemon/1`` records
(:mod:`repro.daemon.protocol`): each request line yields exactly one
response line, in order, on the same connection. Requests for the
same project serialise on the project's lock; independent projects
interleave. The per-verb work itself is synchronous (the delta engine
never awaits mid-mutation), which is what makes the lock discipline
airtight on a single event loop.

Observability rides on one shared ``daemon.*`` metrics registry:
request/error counters per verb, delta/fallback counters per reason,
span timers for the mutating verbs, and log2 latency/size histograms
— plus an always-on request-correlated :class:`~repro.obs.events.
EventLog`: every request is bound to a ``request_id`` (client-sent or
server-minted, echoed on the response) for its whole dynamic extent,
so the registry, delta engine and flow scheduler all emit onto one
causal chain. Scrape it with the ``telemetry`` verb, follow it live
with ``subscribe``, and find outliers in the slow-request log (any
request over ``slow_threshold_s`` gets a SpanProfiler folded-stack
capture attached).
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from collections import deque
from typing import Dict, List, Optional

from repro.daemon import protocol
from repro.daemon.state import DEFAULT_CAPACITY, ProjectRegistry
from repro.errors import ReproError
from repro.obs import events as events_mod
from repro.obs.events import EventLog, bind_request, emit_event
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import SpanProfiler

#: Requests at or over this many seconds land in the slow-request log
#: with a span capture (override per server / ``--slow-ms``).
DEFAULT_SLOW_THRESHOLD_S = 1.0

#: Slow-request log depth (newest kept).
SLOW_LOG_CAPACITY = 32


def _dumps(record: Dict[str, object]) -> bytes:
    return (
        json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


class DaemonServer:
    """The daemon: project registry + JSONL dispatch + lifecycle."""

    def __init__(
        self,
        socket_path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        capacity: int = DEFAULT_CAPACITY,
        registry: Optional[MetricsRegistry] = None,
        events: Optional[EventLog] = None,
        slow_threshold_s: float = DEFAULT_SLOW_THRESHOLD_S,
    ) -> None:
        if (socket_path is None) == (port is None):
            raise ValueError(
                "exactly one of socket_path / port must be given"
            )
        self.socket_path = socket_path
        self.host = host if host is not None else "127.0.0.1"
        self.port = port
        self.registry = registry if registry is not None else MetricsRegistry()
        self.projects = ProjectRegistry(
            capacity=capacity, registry=self.registry
        )
        self.events = events if events is not None else EventLog()
        self.slow_threshold_s = slow_threshold_s
        self._slow: "deque" = deque(maxlen=SLOW_LOG_CAPACITY)
        self._started_mono = time.monotonic()
        self._server: Optional[asyncio.AbstractServer] = None
        self._clients: set = set()
        self._shutdown = asyncio.Event()
        self._c_requests = self.registry.counter("daemon.requests")
        self._c_errors = self.registry.counter("daemon.errors")
        self._c_deltas = self.registry.counter("daemon.deltas")
        self._c_fallbacks = self.registry.counter("daemon.fallbacks")

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        if self.socket_path is not None:
            if os.path.exists(self.socket_path):
                os.unlink(self.socket_path)
            self._server = await asyncio.start_unix_server(
                self._handle_client, path=self.socket_path
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_client, host=self.host, port=self.port
            )

    async def serve_forever(self) -> None:
        """Start (if needed) and run until a ``shutdown`` request."""
        if self._server is None:
            await self.start()
        await self._shutdown.wait()
        await self.stop()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Long-lived handlers (subscribe tails) must finish before the
        # event loop closes, or their cleanup runs against a dead loop.
        current = asyncio.current_task()
        handlers = {t for t in self._clients if t is not current}
        if handlers:
            _, pending = await asyncio.wait(handlers, timeout=1.0)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        if self.socket_path is not None and os.path.exists(self.socket_path):
            os.unlink(self.socket_path)

    # -- connection handling -------------------------------------------------

    async def _handle_client(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._clients.add(task)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, asyncio.IncompleteReadError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                response = await self.dispatch_line(line)
                writer.write(_dumps(response))
                try:
                    await writer.drain()
                except ConnectionResetError:
                    break
                if (
                    response.get("verb") == "subscribe"
                    and response.get("status") == "ok"
                ):
                    # The connection becomes a one-way event tail;
                    # no further requests are read on it.
                    await self._stream_events(
                        writer,
                        response.get("result") or {},
                        response.get("request_id"),
                    )
                    break
                if self._shutdown.is_set():
                    break
        finally:
            if task is not None:
                self._clients.discard(task)
            try:
                writer.close()
            except RuntimeError:
                # The loop already closed under an abandoned handler.
                pass

    async def _stream_events(
        self,
        writer: asyncio.StreamWriter,
        filters: Dict[str, object],
        request_id: Optional[str],
    ) -> None:
        """Write raw ``repro.events/1`` JSONL to ``writer`` as events
        are emitted, until disconnect or daemon shutdown."""
        grep = filters.get("grep")
        watch = filters.get("watch")
        queue: "asyncio.Queue" = asyncio.Queue(maxsize=1024)

        def listener(event: Dict[str, object]) -> None:
            # ``watch`` selects a project; request filtering is done
            # client-side (see ``repro obs tail --request``).
            if watch and event.get("project") != watch:
                return
            if grep and grep not in json.dumps(
                event, sort_keys=True, default=str
            ):
                return
            try:
                queue.put_nowait(event)
            except asyncio.QueueFull:
                # A stalled subscriber never blocks the daemon; it
                # just misses events.
                pass

        self.events.add_listener(listener)
        self.events.emit(
            "subscribe", request_id=request_id, component="server",
            action="attach",
        )
        try:
            while not self._shutdown.is_set():
                try:
                    event = await asyncio.wait_for(
                        queue.get(), timeout=0.25
                    )
                except asyncio.TimeoutError:
                    continue
                writer.write(_dumps(event))
                try:
                    await writer.drain()
                except (ConnectionResetError, BrokenPipeError):
                    break
        finally:
            self.events.remove_listener(listener)
            self.events.emit(
                "subscribe", request_id=request_id, component="server",
                action="detach",
            )

    async def dispatch_line(self, line: bytes) -> Dict[str, object]:
        """Parse, validate and execute one request line.

        Every structurally valid request runs inside a bound
        :func:`repro.obs.events.bind_request` context: the client's
        ``request_id`` (or a freshly minted one) is echoed on the
        response and stamped on every event the layers below emit.
        """
        self._c_requests.inc()
        try:
            raw = json.loads(line.decode("utf-8"))
        except ValueError as error:
            self._c_errors.inc()
            return protocol.error_response(None, None, f"not JSON: {error}")
        rid = raw.get("id") if isinstance(raw, dict) else None
        if not isinstance(rid, int) or isinstance(rid, bool):
            rid = None
        verb = raw.get("verb") if isinstance(raw, dict) else None
        if not isinstance(verb, str):
            verb = None
        request_id = raw.get("request_id") if isinstance(raw, dict) else None
        if not isinstance(request_id, str) or not request_id:
            request_id = events_mod.new_request_id()
        try:
            request = protocol.validate_daemon_record(raw)
        except ValueError as error:
            self._c_errors.inc()
            response = protocol.error_response(rid, verb, str(error))
            response["request_id"] = request_id
            return response
        if request["record"] != "request":
            self._c_errors.inc()
            response = protocol.error_response(
                rid, verb, "expected a request record"
            )
            response["request_id"] = request_id
            return response
        profiler = SpanProfiler()
        start = time.perf_counter()
        with bind_request(
            request_id, log=self.events, profiler=profiler
        ) as rctx:
            emit_event(
                "request", component="server", verb=verb, id=rid,
                **{
                    key: request[key]
                    for key in ("project", "name")
                    if key in request
                },
            )
            profiler.push("daemon.dispatch")
            profiler.push(verb)
            try:
                response = await self._dispatch(request)
            except ReproError as error:
                self._c_errors.inc()
                response = protocol.error_response(rid, verb, str(error))
            except Exception as error:  # pragma: no cover - defensive
                self._c_errors.inc()
                response = protocol.error_response(
                    rid, verb, f"internal error: {error}"
                )
            finally:
                profiler.pop()
                profiler.pop()
            elapsed = time.perf_counter() - start
            self.registry.histogram(f"daemon.latency.{verb}").observe(
                elapsed
            )
            steps = rctx.tallies.get("flow.steps")
            if steps is not None:
                self.registry.histogram(
                    "daemon.fused_steps_per_request"
                ).observe(steps)
            if elapsed >= self.slow_threshold_s:
                self._record_slow(request_id, verb, elapsed, profiler)
            extra = {} if steps is None else {"flow_steps": steps}
            # Last event of the chain: `repro obs req` treats a chain
            # as connected when it opens with "request" and closes
            # with "response".
            emit_event(
                "response", component="server", verb=verb, id=rid,
                status=response["status"], seconds=elapsed, **extra,
            )
        # One sink flush per request (not per event): the JSONL file
        # is complete up to the last finished request, and the engine
        # hot path never pays a syscall per emission.
        self.events.flush()
        response["request_id"] = request_id
        return response

    def _record_slow(
        self,
        request_id: str,
        verb: Optional[str],
        seconds: float,
        profiler: SpanProfiler,
    ) -> None:
        self._slow.append(
            {
                "request_id": request_id,
                "verb": verb,
                "seconds": seconds,
                "ts": time.time(),
                "profile": profiler.folded(),
            }
        )
        emit_event(
            "slow_request", component="server", verb=verb,
            seconds=seconds, threshold_s=self.slow_threshold_s,
        )

    # -- verb dispatch --------------------------------------------------------

    async def _dispatch(self, request: Dict[str, object]) -> Dict[str, object]:
        rid = request["id"]
        verb = request["verb"]
        self.registry.counter(f"daemon.requests.{verb}").inc()
        if verb == "shutdown":
            self._shutdown.set()
            return protocol.ok_response(rid, verb, {"stopping": True})
        if verb == "status":
            return protocol.ok_response(rid, verb, self._status())
        if verb == "telemetry":
            fmt = request.get("format") or "json"
            return protocol.ok_response(rid, verb, self.telemetry(fmt))
        if verb == "subscribe":
            # The ok response confirms the tail; _handle_client then
            # switches the connection into streaming mode.
            return protocol.ok_response(
                rid,
                verb,
                {
                    "subscribed": True,
                    "grep": request.get("grep"),
                    "watch": request.get("watch"),
                },
            )
        state = self.projects.get(request["project"])
        lock_wait_start = time.perf_counter()
        async with state.lock:
            waited = time.perf_counter() - lock_wait_start
            emit_event(
                "lock", component="registry",
                project=request["project"], waited_s=waited,
            )
            analysis = state.analysis
            if verb == "define":
                with self.registry.timer("daemon.define"):
                    report = analysis.define(
                        request["name"], request["source"]
                    )
                self._count_mutation(report)
                return protocol.ok_response(rid, verb, report)
            if verb == "undefine":
                with self.registry.timer("daemon.undefine"):
                    report = analysis.undefine(request["name"])
                self._count_mutation(report)
                return protocol.ok_response(rid, verb, report)
            if verb == "query":
                if "name" in request and isinstance(request.get("name"), str):
                    result = analysis.query_name(request["name"])
                else:
                    result = analysis.query_label(request["label"])
                return protocol.ok_response(rid, verb, result)
            if verb == "analyze":
                with self.registry.timer("daemon.analyze"):
                    envelope = analysis.envelope()
                return protocol.ok_response(rid, verb, {"envelope": envelope})
            if verb == "lint":
                with self.registry.timer("daemon.lint"):
                    section = analysis.lint()
                return protocol.ok_response(rid, verb, section)
            if verb == "sanitize":
                return protocol.ok_response(rid, verb, analysis.sanitize())
            if verb == "source":
                return protocol.ok_response(
                    rid, verb, {"source": analysis.render_source()}
                )
        raise AssertionError(f"unhandled verb {verb!r}")  # pragma: no cover

    def _count_mutation(self, report: Dict[str, object]) -> None:
        if report.get("delta"):
            self._c_deltas.inc()
        else:
            self._c_fallbacks.inc()
            reason = report.get("delta_fallback_reason")
            self.registry.counter(f"daemon.fallbacks.{reason}").inc()
        self.registry.histogram("daemon.retractions_per_redefine").observe(
            report.get("retracted_edges", 0)
        )

    def _status(self) -> Dict[str, object]:
        return {
            "pid": os.getpid(),
            "uptime_s": time.monotonic() - self._started_mono,
            "projects": self.projects.status(),
            "metrics": self.registry.snapshot(),
            "events": {
                "emitted": self.events.emitted,
                "dropped": self.events.dropped,
                "buffered": len(self.events),
            },
            "events_dropped": self.events.dropped,
        }

    def telemetry(self, fmt: str = "json") -> Dict[str, object]:
        """The one-shot observability scrape (``telemetry`` verb)."""
        document = {
            "schema": events_mod.EVENTS_SCHEMA,
            "generated_ts": time.time(),
            "uptime_s": time.monotonic() - self._started_mono,
            "events_emitted": self.events.emitted,
            "events_dropped": self.events.dropped,
            "events": self.events.events(),
            "metrics": self.registry.snapshot(),
            "slow": list(self._slow),
            "projects": self.projects.status(),
        }
        if fmt == "prometheus":
            from repro.obs.live import render_prometheus

            return {
                "format": "prometheus",
                "text": render_prometheus(document),
            }
        return document


async def run_daemon(
    socket_path: Optional[str] = None,
    port: Optional[int] = None,
    host: Optional[str] = None,
    capacity: int = DEFAULT_CAPACITY,
    events_path: Optional[str] = None,
    slow_threshold_s: float = DEFAULT_SLOW_THRESHOLD_S,
) -> None:
    """Run a daemon until shutdown (the CLI's ``repro daemon start``)."""
    events = EventLog(sink_path=events_path)
    server = DaemonServer(
        socket_path=socket_path,
        host=host,
        port=port,
        capacity=capacity,
        events=events,
        slow_threshold_s=slow_threshold_s,
    )
    try:
        await server.serve_forever()
    finally:
        events.close()
