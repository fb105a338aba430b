"""The ``repro.batch/1`` JSONL request/response envelope.

A batch run serialises as a sequence of JSON records, one per line,
in a fixed order:

1. one **header** record — engine version, canonical options, worker
   count, timeout, cache directory;
2. one **job** record per input, in input order — status
   (``ok``/``degraded``/``error``/``timeout``), cache provenance
   (``memory``/``disk``/``miss``), the content-address key and result
   fingerprint, timings, attempts, the hybrid-style
   ``fallback_reason``, and (when the batch ran with ``--lint`` /
   ``--sanitize`` / ``--audit``) the lint finding counts, the
   sanitizer verdict with its full violation detail, and the
   linearity-audit verdict;
3. one **summary** record — per-status counts, wall-clock, cache
   hit/miss/eviction totals with the derived hit rate, the exit code,
   and the full ``serve.*`` registry snapshot.

:func:`validate_batch_record` freezes the shape the same way
:func:`repro.obs.validate_metrics` freezes the metrics document:
structurally, dependency-free, with path-named failures. Breaking
changes must bump :data:`SCHEMA`.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro._util import make_checkers
from repro.serve.jobs import STATUSES, JobResult

#: Schema tag carried by every batch record.
SCHEMA = "repro.batch/1"

#: The record kinds, in stream order.
RECORD_KINDS = ("header", "job", "summary")

#: Cache provenance values a job record may carry.
CACHE_TIERS = ("memory", "disk", "miss")


def _version() -> str:
    import repro

    return repro.__version__


def batch_header(
    options: Dict[str, object],
    workers: int,
    timeout: Optional[float],
    cache_dir: Optional[str] = None,
) -> Dict[str, object]:
    return {
        "schema": SCHEMA,
        "record": "header",
        "version": _version(),
        "options": dict(options),
        "workers": workers,
        "timeout": timeout,
        "cache_dir": cache_dir,
    }


def job_record(
    result: JobResult, include_envelope: bool = False
) -> Dict[str, object]:
    record: Dict[str, object] = {
        "schema": SCHEMA,
        "record": "job",
        "id": result.jid,
        "path": result.path,
        "status": result.status,
        "cache": result.cache,
        "key": result.key,
        "fingerprint": result.fingerprint,
        "seconds": result.seconds,
        "attempts": result.attempts,
        "fallback_reason": result.fallback_reason,
        "error": result.error,
        "lint": None,
        "sanitize": None,
    }
    envelope = result.envelope
    if envelope is not None:
        lint = envelope.get("lint")
        if lint is not None:
            record["lint"] = {
                "findings": len(lint["findings"]),
                "by_rule": dict(lint["counts"]),
                "engine": lint["engine"],
            }
        sanitize = envelope.get("sanitize")
        if sanitize is not None:
            # The full violation dicts ride along (not just the count):
            # a batch consumer reading only job records must be able to
            # see *what* the sanitizer rejected, not merely that it did.
            record["sanitize"] = {
                "ok": sanitize["ok"],
                "violations": len(sanitize["violations"]),
                "detail": [dict(v) for v in sanitize["violations"]],
            }
        audit = envelope.get("audit")
        if audit is not None:
            record["audit"] = {
                "bounded": audit["bounded"],
                "forecast": audit["forecast"],
                "within_budget": audit["within_budget"],
            }
        if include_envelope:
            record["envelope"] = envelope
    if result.profile is not None:
        record["profile"] = list(result.profile)
    return record


def batch_summary(
    counts: Dict[str, int],
    seconds: float,
    cache_stats: Dict[str, int],
    exit_code: int,
    registry_snapshot: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    lookups = cache_stats.get("hits", 0) + cache_stats.get("misses", 0)
    hit_rate = (
        cache_stats.get("hits", 0) / lookups if lookups else 0.0
    )
    record: Dict[str, object] = {
        "schema": SCHEMA,
        "record": "summary",
        "jobs": sum(counts.values()),
        "counts": {status: counts.get(status, 0) for status in STATUSES},
        "seconds": seconds,
        "cache": {**dict(cache_stats), "hit_rate": hit_rate},
        "exit_code": exit_code,
    }
    if registry_snapshot is not None:
        record["registry"] = registry_snapshot
    return record


# -- shared JSONL envelope framing ---------------------------------------------
#
# Both wire formats this codebase speaks — ``repro.batch/1`` (batch
# runs) and ``repro.daemon/1`` (the incremental analysis daemon) — are
# line-delimited JSON with a per-record structural validator. The
# framing and the validator-helper vocabulary live here so the two
# protocols cannot drift: a framing fix lands once, for both.


def jsonl_dumps(records: List[Dict[str, object]]) -> str:
    """One compact JSON document per line, sorted keys (stable)."""
    return "\n".join(
        json.dumps(record, sort_keys=True, separators=(",", ":"))
        for record in records
    )


def jsonl_loads(
    text: str, validator, what: str = "record"
) -> List[Dict[str, object]]:
    """Parse and validate a JSONL stream with ``validator``.

    Blank lines are ignored. Errors — malformed JSON as well as
    validation failures — name the 1-based line they occurred on, so a
    consumer of a multi-thousand-record stream can find the offending
    frame (the original framing reported neither the line nor whether
    the failure was JSON-level or schema-level).
    """
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
        except ValueError as error:
            raise ValueError(
                f"invalid {what} on line {lineno}: not JSON ({error})"
            ) from None
        try:
            records.append(validator(raw))
        except ValueError as error:
            raise ValueError(f"line {lineno}: {error}") from None
    return records


def to_jsonl(records: List[Dict[str, object]]) -> str:
    """Serialise a ``repro.batch/1`` stream (shared framing)."""
    return jsonl_dumps(records)


def read_jsonl(text: str) -> List[Dict[str, object]]:
    """Parse and validate a ``repro.batch/1`` stream."""
    return jsonl_loads(text, validate_batch_record, what="batch record")


# -- validation ----------------------------------------------------------------

_fail, _expect, _check_int, _check_number = make_checkers("batch record")


def validate_batch_record(record) -> Dict[str, object]:
    """Structurally validate one batch record against the v1 schema.

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
        kind in RECORD_KINDS,
        "$.record",
        f"expected one of {RECORD_KINDS}, got {kind!r}",
    )
    if kind == "header":
        _expect(
            isinstance(record.get("version"), str),
            "$.version",
            "expected string",
        )
        _expect(
            isinstance(record.get("options"), dict),
            "$.options",
            "expected object",
        )
        _check_int(record.get("workers"), "$.workers")
        if record.get("timeout") is not None:
            _check_number(record["timeout"], "$.timeout")
    elif kind == "job":
        _check_int(record.get("id"), "$.id")
        _expect(
            record.get("status") in STATUSES,
            "$.status",
            f"expected one of {STATUSES}, got {record.get('status')!r}",
        )
        _expect(
            record.get("cache") in CACHE_TIERS,
            "$.cache",
            f"expected one of {CACHE_TIERS}, got {record.get('cache')!r}",
        )
        _expect(
            isinstance(record.get("key"), str)
            and len(record["key"]) == 64,
            "$.key",
            "expected a 64-hex-char content address",
        )
        _check_number(record.get("seconds"), "$.seconds")
        _check_int(record.get("attempts"), "$.attempts")
        if record.get("fingerprint") is not None:
            _expect(
                isinstance(record["fingerprint"], str)
                and len(record["fingerprint"]) == 64,
                "$.fingerprint",
                "expected a 64-hex-char digest or null",
            )
        if record.get("fallback_reason") is not None:
            _expect(
                isinstance(record["fallback_reason"], str),
                "$.fallback_reason",
                "expected string/null",
            )
        if record.get("error") is not None:
            _expect(
                isinstance(record["error"], str),
                "$.error",
                "expected string/null",
            )
        if record.get("lint") is not None:
            _expect(
                isinstance(record["lint"], dict),
                "$.lint",
                "expected object/null",
            )
            _check_int(record["lint"].get("findings"), "$.lint.findings")
        if record.get("sanitize") is not None:
            _expect(
                isinstance(record["sanitize"], dict),
                "$.sanitize",
                "expected object/null",
            )
            _expect(
                isinstance(record["sanitize"].get("ok"), bool),
                "$.sanitize.ok",
                "expected bool",
            )
            detail = record["sanitize"].get("detail")
            if detail is not None:
                _expect(
                    isinstance(detail, list)
                    and all(isinstance(v, dict) for v in detail),
                    "$.sanitize.detail",
                    "expected list of objects",
                )
        if record.get("audit") is not None:
            _expect(
                isinstance(record["audit"], dict),
                "$.audit",
                "expected object/null",
            )
            _expect(
                isinstance(record["audit"].get("bounded"), bool),
                "$.audit.bounded",
                "expected bool",
            )
        if record.get("profile") is not None:
            profile = record["profile"]
            _expect(
                isinstance(profile, list)
                and all(isinstance(line, str) for line in profile),
                "$.profile",
                "expected list of folded-stack strings",
            )
            try:
                from repro.obs.profile import validate_folded

                validate_folded(profile)
            except ValueError as error:
                _fail("$.profile", str(error))
    else:  # summary
        _check_int(record.get("jobs"), "$.jobs")
        counts = record.get("counts")
        _expect(
            isinstance(counts, dict), "$.counts", "expected object"
        )
        for status in STATUSES:
            _check_int(counts.get(status), f"$.counts.{status}")
        _check_number(record.get("seconds"), "$.seconds")
        cache = record.get("cache")
        _expect(isinstance(cache, dict), "$.cache", "expected object")
        for key in ("hits", "misses", "evictions"):
            _check_int(cache.get(key), f"$.cache.{key}")
        _check_number(cache.get("hit_rate"), "$.cache.hit_rate")
        _check_int(record.get("exit_code"), "$.exit_code")
    return record
