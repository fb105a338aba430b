"""The always-on incremental analysis daemon (``repro.daemon/1``).

A long-lived server process holds one warm subtransitive graph per
*project* and answers define/undefine/query/lint requests over a
Unix-domain (or TCP) socket without re-analysing from scratch: a
redefinition retracts exactly the edges the old definition justified
(semi-naive, DRed-style over-delete + rederive) and re-runs the LC'
close phase from the delta worklist. Results are byte-identical to a
cold ``repro analyze`` of the equivalent program — the delta engine
falls back to a full replay whenever retraction support is ambiguous,
tagging the reason (see :mod:`repro.daemon.delta`).

Modules:

- :mod:`repro.daemon.protocol` — the versioned JSONL wire format;
- :mod:`repro.daemon.delta` — the semi-naive delta closure engine;
- :mod:`repro.daemon.audit` — the T-series audit, inferred per
  definition and memoised;
- :mod:`repro.daemon.state` — the project registry (locks + LRU);
- :mod:`repro.daemon.server` — the asyncio front-end;
- :mod:`repro.daemon.client` — a blocking client.
"""

from repro.daemon.delta import FALLBACK_REASONS, ProjectAnalysis
from repro.daemon.protocol import (
    SCHEMA,
    VERBS,
    error_response,
    ok_response,
    request_record,
    validate_daemon_record,
)
from repro.daemon.state import ProjectRegistry
from repro.daemon.client import DaemonClient, DaemonError
from repro.daemon.server import DaemonServer

__all__ = [
    "SCHEMA",
    "VERBS",
    "FALLBACK_REASONS",
    "ProjectAnalysis",
    "ProjectRegistry",
    "DaemonClient",
    "DaemonError",
    "DaemonServer",
    "request_record",
    "ok_response",
    "error_response",
    "validate_daemon_record",
]
