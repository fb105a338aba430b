"""The ``repro.daemon/1`` JSONL request/response envelope.

One JSON record per line, in both directions. Every request carries a
client-chosen integer ``id``; the daemon answers each request with
exactly one response echoing that ``id``, in request order. The wire
framing (compact one-line JSON, 1-based line numbers in error
messages) is shared with ``repro.batch/1`` via
:mod:`repro.serve.protocol` so the two protocols cannot drift.

Verbs:

``define``
    Bind (or rebind) ``name`` to the mini-ML expression ``source`` in
    ``project``. Redefinitions go through the semi-naive delta engine;
    the response reports whether the delta path was taken and, if not,
    the ``fallback_reason``.
``undefine``
    Remove the binding ``name``; an error if other definitions still
    reference it.
``query``
    Look up flow answers on the warm graph: pass ``name`` for the
    label set of a binding, or ``label`` for the expressions an
    abstraction flows to. Never mutates.
``analyze``
    The full ``repro.result/1`` envelope for the project's current
    program — byte-identical to a cold ``repro analyze`` of
    ``source`` (below).
``lint``
    The lint section (findings + counts) for the current program.
``sanitize``
    The graph well-formedness report for the warm graph.
``source``
    The concrete mini-ML rendering of the project's current program —
    the exact text a cold run must parse to agree with ``analyze``.
``status``
    Daemon-wide status: projects, versions, metrics snapshot, uptime
    and event-log accounting.
``telemetry``
    One-shot observability scrape: metrics + histograms + recent
    events + slow-request log, as a ``repro.events/1`` JSON envelope
    or Prometheus-style text (``"format": "prometheus"``).
``subscribe``
    Stream the live event log: after the ``ok`` response, the daemon
    keeps the connection open and writes one raw ``repro.events/1``
    JSONL record per line as events are emitted (optionally filtered
    by ``request_id``/``grep``). The stream ends when the client
    disconnects or the daemon stops.
``shutdown``
    Stop the daemon after responding.

Requests and responses may both carry an optional ``request_id``
string: the correlation id threaded through the event log. Clients
that omit it get one minted by the server and echoed on the response
— an additive, version-compatible field (old clients never see it;
old servers ignore it).

:func:`validate_daemon_record` freezes the shape structurally, the
same way :func:`repro.serve.protocol.validate_batch_record` does for
batch records. Breaking changes must bump :data:`SCHEMA`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro._util import make_checkers
from repro.serve.protocol import jsonl_dumps, jsonl_loads

#: Schema tag carried by every daemon record.
SCHEMA = "repro.daemon/1"

#: The request verbs, in documentation order.
VERBS = (
    "define",
    "undefine",
    "query",
    "analyze",
    "lint",
    "sanitize",
    "source",
    "status",
    "telemetry",
    "subscribe",
    "shutdown",
)

#: Output formats accepted by the ``telemetry`` verb.
TELEMETRY_FORMATS = ("json", "prometheus")

#: Verbs that operate on a project (and therefore require one).
PROJECT_VERBS = frozenset(
    ("define", "undefine", "query", "analyze", "lint", "sanitize", "source")
)

#: Verbs that mutate project state.
MUTATING_VERBS = frozenset(("define", "undefine"))


def request_record(
    rid: int,
    verb: str,
    project: Optional[str] = None,
    name: Optional[str] = None,
    source: Optional[str] = None,
    label: Optional[str] = None,
    request_id: Optional[str] = None,
    fmt: Optional[str] = None,
    grep: Optional[str] = None,
    watch: Optional[str] = None,
) -> Dict[str, object]:
    record: Dict[str, object] = {
        "schema": SCHEMA,
        "record": "request",
        "id": rid,
        "verb": verb,
    }
    if project is not None:
        record["project"] = project
    if name is not None:
        record["name"] = name
    if source is not None:
        record["source"] = source
    if label is not None:
        record["label"] = label
    if request_id is not None:
        record["request_id"] = request_id
    if fmt is not None:
        record["format"] = fmt
    if grep is not None:
        record["grep"] = grep
    if watch is not None:
        record["watch"] = watch
    return record


def ok_response(
    rid: Optional[int], verb: str, result: Dict[str, object]
) -> Dict[str, object]:
    return {
        "schema": SCHEMA,
        "record": "response",
        "id": rid,
        "verb": verb,
        "status": "ok",
        "result": result,
        "error": None,
    }


def error_response(
    rid: Optional[int], verb: Optional[str], message: str
) -> Dict[str, object]:
    return {
        "schema": SCHEMA,
        "record": "response",
        "id": rid,
        "verb": verb,
        "status": "error",
        "result": None,
        "error": message,
    }


# -- validation ----------------------------------------------------------------

_fail, _expect, _check_int, _check_number = make_checkers("daemon record")


def validate_daemon_record(record) -> Dict[str, object]:
    """Structurally validate one daemon record against the v1 schema.

    Returns the record unchanged on success; raises
    :class:`ValueError` naming the offending path otherwise.
    """
    _expect(isinstance(record, dict), "$", "expected an object")
    _expect(
        record.get("schema") == SCHEMA,
        "$.schema",
        f"expected {SCHEMA!r}, got {record.get('schema')!r}",
    )
    kind = record.get("record")
    _expect(
        kind in ("request", "response"),
        "$.record",
        f"expected 'request' or 'response', got {kind!r}",
    )
    if kind == "request":
        _check_int(record.get("id"), "$.id")
        verb = record.get("verb")
        _expect(
            verb in VERBS,
            "$.verb",
            f"expected one of {VERBS}, got {verb!r}",
        )
        if verb in PROJECT_VERBS:
            _expect(
                isinstance(record.get("project"), str)
                and bool(record["project"]),
                "$.project",
                f"verb {verb!r} requires a non-empty project string",
            )
        if verb in ("define", "undefine"):
            _expect(
                isinstance(record.get("name"), str) and bool(record["name"]),
                "$.name",
                f"verb {verb!r} requires a non-empty name string",
            )
        if verb == "define":
            _expect(
                isinstance(record.get("source"), str),
                "$.source",
                "verb 'define' requires a source string",
            )
        if verb == "query":
            has_name = isinstance(record.get("name"), str)
            has_label = isinstance(record.get("label"), str)
            _expect(
                has_name != has_label,
                "$.name",
                "verb 'query' requires exactly one of name/label",
            )
        if record.get("format") is not None:
            _expect(
                verb == "telemetry",
                "$.format",
                "format is only valid on 'telemetry' requests",
            )
            _expect(
                record["format"] in TELEMETRY_FORMATS,
                "$.format",
                f"expected one of {TELEMETRY_FORMATS}, "
                f"got {record['format']!r}",
            )
        for field in ("grep", "watch"):
            if record.get(field) is not None:
                _expect(
                    verb == "subscribe",
                    f"$.{field}",
                    f"{field} is only valid on 'subscribe' requests",
                )
                _expect(
                    isinstance(record[field], str) and bool(record[field]),
                    f"$.{field}",
                    "expected a non-empty string",
                )
    else:  # response
        if record.get("id") is not None:
            _check_int(record["id"], "$.id")
        status = record.get("status")
        _expect(
            status in ("ok", "error"),
            "$.status",
            f"expected 'ok' or 'error', got {status!r}",
        )
        if status == "ok":
            _expect(
                isinstance(record.get("result"), dict),
                "$.result",
                "ok response requires a result object",
            )
            _expect(
                record.get("error") is None,
                "$.error",
                "ok response must carry error=null",
            )
            verb = record.get("verb")
            _expect(
                verb in VERBS,
                "$.verb",
                f"expected one of {VERBS}, got {verb!r}",
            )
        else:
            _expect(
                isinstance(record.get("error"), str)
                and bool(record["error"]),
                "$.error",
                "error response requires a non-empty error string",
            )
            _expect(
                record.get("result") is None,
                "$.result",
                "error response must carry result=null",
            )
    # ``request_id`` is an additive optional field on both record
    # kinds (the telemetry correlation id); absent on pre-telemetry
    # frames, so no schema bump.
    if record.get("request_id") is not None:
        _expect(
            isinstance(record["request_id"], str)
            and bool(record["request_id"]),
            "$.request_id",
            "expected a non-empty string",
        )
    return record


def to_jsonl(records: List[Dict[str, object]]) -> str:
    """Serialise a ``repro.daemon/1`` stream (shared framing)."""
    return jsonl_dumps(records)


def read_jsonl(text: str) -> List[Dict[str, object]]:
    """Parse and validate a ``repro.daemon/1`` stream."""
    return jsonl_loads(text, validate_daemon_record, what="daemon record")
