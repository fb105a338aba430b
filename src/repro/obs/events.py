"""The structured event log — the ``repro.events/1`` layer.

One record type serves two producers. The LC' engine emits
per-rule events (rule firings, inserted edges, demand transitions,
sweeps, budget trips) when a driver is handed ``events=EventLog(...)``;
that is the ordered accounting ``repro obs top``/``waterfall``
cross-check against Tables 1-2's counters. The service layers emit
request-correlated events: every daemon verb, batch job and CLI
invocation mints a ``request_id``, and this module is how that id is
threaded through the stack *without* widening every signature
between the socket and the fused sweep:

* :class:`EventLog` — a ring-buffered (bounded, oldest-dropped)
  in-memory log with an optional JSONL file sink (rotating, or whole
  for one run's trace) and listener hooks (the daemon's
  ``subscribe`` verb streams through one);
* :func:`bind_request` — a context manager that binds a
  :class:`RequestContext` (request id, event log, span profiler,
  tally dict) into a :mod:`contextvars` variable for the dynamic
  extent of one request;
* :func:`emit_event` / :func:`tally` / :func:`span` /
  :func:`current_profiler` — module-level helpers deep layers
  (:mod:`repro.daemon.delta`, :mod:`repro.flow.framework`,
  :mod:`repro.serve.pool`, the LC' engine) call unconditionally; they
  are no-ops when no request is bound, so the batch/CLI fast paths
  pay one ``ContextVar.get`` when telemetry is off. The bound
  profiler is the only way spans reach a
  :class:`~repro.obs.profile.SpanProfiler`.

``contextvars`` makes this correct under the daemon's concurrency
model: each asyncio task carries its own context, so two in-flight
requests on different connections never see each other's ids, while
``await`` points inside one handler keep the binding.

Emission discipline (the <1% overhead budget of E21): layers emit
**per-request aggregates** — one event per flow pass with its step
totals, one per delta-engine mutation with its outcome, one per verb
— never one event per worklist step.

The event record shape is frozen by :func:`validate_event`, and
:func:`read_event_log` is the one reader every JSONL consumer uses;
the ``telemetry`` scrape envelope is frozen by
:func:`validate_telemetry`. Breaking changes must bump
:data:`EVENTS_SCHEMA`.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import os
import time
import uuid
from collections import deque
from typing import Callable, Dict, Iterable, List, Optional

from repro._util import make_checkers

#: Schema tag for event records and the ``telemetry`` scrape envelope.
EVENTS_SCHEMA = "repro.events/1"

#: Event kinds emitted by the instrumented code: the service layers'
#: first, then the LC' engine's (opt-in, via ``events=`` on the
#: drivers). The validator accepts any non-empty kind (forward
#: compatibility, mirroring how repro.metrics/1 accepts unknown
#: counter names); this tuple is what the current code emits and what
#: obs.tracetools renders.
EVENT_KINDS = (
    "request",  # server/CLI accepted a verb or command
    "response",  # ...and finished it (status + seconds + tallies)
    "registry",  # ProjectRegistry create/warm-hit/rehydrate/evict
    "lock",  # per-project lock acquired (with wait time)
    "delta",  # delta-engine mutation outcome (mode + retractions)
    "flow",  # one fused/flow pass (step + update totals)
    "job",  # one batch job (status + cache tier + seconds)
    "slow_request",  # request over threshold; carries folded spans
    "subscribe",  # a live tail attached/detached
    "phase",  # LC' build/close phase entered or left
    "rule",  # one application of a named LC' build rule
    "edge",  # an edge actually inserted into the graph
    "demand",  # a node's first incoming edge made it demanded
    "sweep",  # a demand sweep over pre-demand premise edges
    "budget",  # budget consumption / truncation / hybrid fallback
    "query",  # a reachability query answered
    "session",  # incremental session define/query boundaries
    "lint",  # one lint pass (findings + seconds)
)

#: Default in-memory ring capacity (events, not bytes).
DEFAULT_CAPACITY = 4096

#: Default rotating-sink bound: rotate the JSONL file once it passes
#: this many bytes, keeping one ``.1`` predecessor (so disk usage is
#: bounded by ~2x this).
DEFAULT_SINK_BYTES = 8 * 1024 * 1024

#: Queued records that make a whole-run sink (``sink_bytes=None``)
#: write out before its log is closed, so a long run streams to disk
#: in bounded memory.
SINK_PENDING_LIMIT = 1024


def new_request_id() -> str:
    """A fresh, process-unique request id (16 hex chars)."""
    return uuid.uuid4().hex[:16]


class _FileSink:
    """Append JSONL event records to ``path``.

    With ``max_bytes`` the file rotates once it passes that size:
    ``path`` is renamed to ``path.1`` (clobbering the previous ``.1``),
    so total disk usage is bounded without ever blocking on
    compression or fsync — this sits on the daemon's request path.
    With ``max_bytes=None`` the file is one run's whole stream: it is
    truncated on open and never rotated, so its ``seq`` runs 0..N-1
    (the CLI's ``--events`` trace, which ``repro obs top --metrics``
    checks for completeness).

    ``write`` only queues the event dict; serialisation and the
    actual file write happen in :meth:`flush` (the daemon calls it
    once per request). That keeps the emission cost to a list
    append — the <1% overhead budget (E21) has no room for a
    ``json.dumps`` per event on the hot path. Nothing flushes a
    whole-run sink before close, so it also writes out whenever
    :data:`SINK_PENDING_LIMIT` records are queued.
    """

    def __init__(
        self, path: str, max_bytes: Optional[int] = DEFAULT_SINK_BYTES
    ):
        self.path = path
        self.max_bytes = max_bytes
        self._handle = open(
            path, "w" if max_bytes is None else "a", encoding="utf-8"
        )
        self._size = self._handle.tell()
        self._pending: List[Dict[str, object]] = []

    def write(self, event: Dict[str, object]) -> None:
        self._pending.append(event)
        if self.max_bytes is None and len(self._pending) >= SINK_PENDING_LIMIT:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        for event in pending:
            line = (
                json.dumps(event, sort_keys=True, separators=(",", ":"))
                + "\n"
            )
            if (
                self.max_bytes is not None
                and self._size + len(line) > self.max_bytes
                and self._size > 0
            ):
                self._handle.close()
                os.replace(self.path, self.path + ".1")
                self._handle = open(self.path, "a", encoding="utf-8")
                self._size = 0
            self._handle.write(line)
            self._size += len(line)
        self._handle.flush()

    def close(self) -> None:
        self.flush()
        self._handle.close()


class EventLog:
    """Ring-buffered structured event log with an optional file sink.

    ``capacity`` bounds the in-memory ring; once full the **oldest**
    event is dropped and :attr:`dropped` counts exactly how many were
    lost (the daemon surfaces it as ``events_dropped`` in ``status``).
    The file sink, when configured, sees *every* event: it rotates at
    ``sink_bytes`` instead of dropping, or with ``sink_bytes=None``
    keeps the whole stream (see :class:`_FileSink`). :meth:`close`
    writes out everything queued; callers close in a ``finally`` so a
    run that raises still leaves its events on disk. Listeners are
    called synchronously with each event dict; they must be cheap and
    must not raise.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        sink_path: Optional[str] = None,
        sink_bytes: Optional[int] = DEFAULT_SINK_BYTES,
    ):
        self.capacity = capacity
        self._ring = deque()
        self.dropped = 0
        self._seq = 0
        self._sink = _FileSink(sink_path, sink_bytes) if sink_path else None
        self._listeners: List[Callable[[Dict[str, object]], None]] = []

    # -- emission ----------------------------------------------------------

    def emit(
        self,
        kind: str,
        request_id: Optional[str] = None,
        component: Optional[str] = None,
        **fields,
    ) -> Dict[str, object]:
        event = {
            "seq": self._seq,
            "ts": time.time(),
            "mono": time.perf_counter(),
            "kind": kind,
            "request_id": request_id,
            "component": component,
        }
        event.update(fields)
        self._seq += 1
        if len(self._ring) >= self.capacity:
            self._ring.popleft()
            self.dropped += 1
        self._ring.append(event)
        if self._sink is not None:
            self._sink.write(event)
        for listener in self._listeners:
            listener(event)
        return event

    # -- inspection --------------------------------------------------------

    @property
    def emitted(self) -> int:
        """Total events ever emitted (dropped ones included)."""
        return self._seq

    def __len__(self) -> int:
        return len(self._ring)

    def events(
        self,
        kind: Optional[str] = None,
        request_id: Optional[str] = None,
        grep: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, object]]:
        """Buffered events, oldest first, with optional filters."""
        out = [
            dict(event)
            for event in self._ring
            if (kind is None or event["kind"] == kind)
            and (request_id is None or event["request_id"] == request_id)
            and (
                grep is None
                or grep in json.dumps(event, sort_keys=True, default=str)
            )
        ]
        if limit is not None and len(out) > limit:
            out = out[-limit:]
        return out

    # -- listeners / lifecycle ---------------------------------------------

    def add_listener(self, listener) -> None:
        self._listeners.append(listener)

    def remove_listener(self, listener) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    def flush(self) -> None:
        """Flush the file sink (no-op without one).

        Emission only queues the event on the sink — serialisation
        and the file write happen here, so the engine hot path pays a
        list append per event. The daemon flushes once per request
        (after the ``response`` event), which is what makes
        ``repro obs tail events.jsonl`` complete up to the last
        finished request."""
        if self._sink is not None:
            self._sink.flush()

    def close(self) -> None:
        if self._sink is not None:
            self._sink.close()
            self._sink = None


class RequestContext:
    """Everything one in-flight request carries through the stack."""

    __slots__ = ("request_id", "log", "profiler", "tallies")

    def __init__(
        self,
        request_id: str,
        log: Optional[EventLog] = None,
        profiler=None,
    ):
        self.request_id = request_id
        self.log = log
        self.profiler = profiler
        #: Per-request numeric totals accumulated by deep layers
        #: (e.g. ``flow.steps``); the request owner reads them at the
        #: end to feed histograms and the ``response`` event.
        self.tallies: Dict[str, float] = {}


_current: contextvars.ContextVar = contextvars.ContextVar(
    "repro_request", default=None
)


def current_request() -> Optional[RequestContext]:
    """The bound :class:`RequestContext`, or None outside a request."""
    return _current.get()


@contextlib.contextmanager
def bind_request(
    request_id: Optional[str] = None,
    log: Optional[EventLog] = None,
    profiler=None,
):
    """Bind a request context for the dynamic extent of a ``with``.

    Inside an already-bound request, every field not given is the
    enclosing request's: binding only a profiler (a profiled batch
    job, ``repro obs flame``) keeps the request's id, event log and
    tallies, so the layers below stay on its event chain.
    """
    outer = _current.get()
    if outer is not None:
        request_id = request_id or outer.request_id
        log = outer.log if log is None else log
        profiler = outer.profiler if profiler is None else profiler
    ctx = RequestContext(
        request_id or new_request_id(), log=log, profiler=profiler
    )
    if outer is not None and ctx.request_id == outer.request_id:
        ctx.tallies = outer.tallies
    token = _current.set(ctx)
    try:
        yield ctx
    finally:
        _current.reset(token)


def emit_event(
    kind: str,
    component: Optional[str] = None,
    request_id: Optional[str] = None,
    **fields,
) -> Optional[Dict[str, object]]:
    """Emit onto the bound request's log; no-op when none is bound.

    ``request_id`` overrides the bound id (batch jobs mint per-job ids
    while sharing the batch-level log).
    """
    ctx = _current.get()
    if ctx is None or ctx.log is None:
        return None
    return ctx.log.emit(
        kind,
        request_id=request_id or ctx.request_id,
        component=component,
        **fields,
    )


def tally(name: str, amount: float = 1) -> None:
    """Accumulate a per-request total; no-op outside a request."""
    ctx = _current.get()
    if ctx is None:
        return
    ctx.tallies[name] = ctx.tallies.get(name, 0) + amount


def current_profiler():
    """The bound request's SpanProfiler, or None (hot span sites read
    it once per call and guard ``push``/``pop`` on it)."""
    ctx = _current.get()
    return None if ctx is None else ctx.profiler


_NO_SPAN = contextlib.nullcontext()


def span(name: str):
    """Profile a ``with`` block on the bound request's SpanProfiler,
    if any (a shared no-op context otherwise)."""
    profiler = current_profiler()
    return _NO_SPAN if profiler is None else profiler.span(name)


# -- validation ------------------------------------------------------------


_, _expect, _check_int, _check_number = make_checkers("event record")


def validate_event(record):
    """Structurally validate one event record; returns it unchanged."""
    _expect(isinstance(record, dict), "$", "expected an object")
    _check_int(record.get("seq"), "$.seq")
    _expect(record["seq"] >= 0, "$.seq", "expected >= 0")
    _check_number(record.get("ts"), "$.ts")
    _check_number(record.get("mono"), "$.mono")
    kind = record.get("kind")
    _expect(
        isinstance(kind, str) and bool(kind),
        "$.kind",
        "expected a non-empty string",
    )
    for field in ("request_id", "component"):
        value = record.get(field)
        _expect(
            value is None or (isinstance(value, str) and bool(value)),
            f"$.{field}",
            "expected null or a non-empty string",
        )
    return record


def validate_telemetry(document):
    """Validate a ``telemetry`` scrape envelope (JSON format)."""
    from repro.obs.export import validate_registry_snapshot

    fail, expect, check_int, check_number = make_checkers(
        "telemetry document"
    )
    expect(isinstance(document, dict), "$", "expected an object")
    expect(
        document.get("schema") == EVENTS_SCHEMA,
        "$.schema",
        f"expected {EVENTS_SCHEMA!r}",
    )
    check_number(document.get("generated_ts"), "$.generated_ts")
    check_number(document.get("uptime_s"), "$.uptime_s")
    expect(document["uptime_s"] >= 0, "$.uptime_s", "expected >= 0")
    check_int(document.get("events_emitted"), "$.events_emitted")
    check_int(document.get("events_dropped"), "$.events_dropped")
    events = document.get("events")
    expect(isinstance(events, list), "$.events", "expected a list")
    for event in events:
        validate_event(event)
    metrics = document.get("metrics")
    expect(isinstance(metrics, dict), "$.metrics", "expected an object")
    validate_registry_snapshot(metrics, "$.metrics")
    slow = document.get("slow")
    expect(isinstance(slow, list), "$.slow", "expected a list")
    for index, entry in enumerate(slow):
        expect(
            isinstance(entry, dict),
            f"$.slow[{index}]",
            "expected an object",
        )
        check_number(entry.get("seconds"), f"$.slow[{index}].seconds")
    projects = document.get("projects")
    expect(isinstance(projects, dict), "$.projects", "expected an object")
    return document


def read_event_log(source) -> List[Dict[str, object]]:
    """Parse an event JSONL stream into validated event records.

    ``source`` is a path, an open text stream, or an iterable of
    JSONL lines or already-parsed records. This is the one reader
    behind ``repro obs top``, ``waterfall``, ``tail`` and ``req``;
    malformed input raises :class:`ValueError` naming the line.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            return read_event_log(handle)
    records = []
    for lineno, item in enumerate(source, 1):
        if isinstance(item, (str, bytes)):
            line = item.strip()
            if not line:
                continue
            try:
                item = json.loads(line)
            except ValueError as error:
                raise ValueError(
                    f"line {lineno}: invalid JSON ({error})"
                ) from None
        try:
            records.append(validate_event(item))
        except ValueError as error:
            raise ValueError(f"line {lineno}: {error}") from None
    return records
