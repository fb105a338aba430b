"""The batch worker: one job in, one plain-dict response out.

:func:`run_job` is the only function the pool pickles across the
process boundary, so both its argument (a payload dict built by
:class:`~repro.serve.pool.BatchRunner`) and its return value are plain
JSON-safe dicts. It is deliberately total over its failure surface:

* analysis/user errors (:class:`~repro.errors.ReproError`) and any
  unexpected exception become ``{"status": "error", ...}``;
* an LC' budget trip degrades to the standard algorithm in-process
  (``{"status": "degraded", "fallback_reason": "budget"|"inference"}``,
  the same taxonomy as :mod:`repro.core.hybrid`);
* the per-job wall-clock timeout is enforced *inside* the worker with
  ``SIGALRM`` (POSIX main thread only — everywhere else the pool's
  parent-side backstop takes over), producing
  ``{"status": "timeout", ...}`` without killing the worker process,
  which immediately picks up the next job.

Only abrupt worker death (OOM killer, segfault, the test-only ``die``
faults) escapes this function; the pool handles that with bounded
retry.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from typing import Dict, Optional


class WorkerTimeout(Exception):
    """Raised by the SIGALRM handler when a job's clock runs out."""


def _on_alarm(signum, frame):  # pragma: no cover - signal context
    raise WorkerTimeout()


#: Sentinel distinguishing "no alarm armed" from "previous handler
#: happened to be None/SIG_DFL".
_NOT_ARMED = object()


def _arm_timeout(seconds: Optional[float]):
    """Arm a SIGALRM-based wall-clock limit, if the platform and
    calling context allow it. Returns the token to pass to
    :func:`_disarm_timeout`."""
    if not seconds or not hasattr(signal, "SIGALRM"):
        return _NOT_ARMED
    if threading.current_thread() is not threading.main_thread():
        return _NOT_ARMED
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    return previous


def _disarm_timeout(token) -> None:
    if token is _NOT_ARMED:
        return
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    signal.signal(signal.SIGALRM, token)


def _apply_faults(fault: Dict[str, object]) -> None:
    """Test-only fault injection (see docs/SERVICE.md).

    ``die`` / ``die_once_flag`` simulate abrupt worker death (the
    flag file makes it transient: the first worker to see the fault
    creates the flag and dies, the retry proceeds). ``sleep`` /
    ``sleep_once_flag`` simulate a slow job for timeout handling;
    ``raise`` simulates an in-worker crash.
    """
    if fault.get("die"):
        os._exit(13)
    flag = fault.get("die_once_flag")
    if flag:
        if not os.path.exists(flag):
            with open(flag, "w", encoding="utf-8"):
                pass
            os._exit(13)
    seconds = fault.get("sleep")
    if seconds:
        sleep_flag = fault.get("sleep_once_flag")
        if sleep_flag is None:
            time.sleep(seconds)
        elif not os.path.exists(sleep_flag):
            with open(sleep_flag, "w", encoding="utf-8"):
                pass
            time.sleep(seconds)
    message = fault.get("raise")
    if message:
        raise RuntimeError(str(message))


def _lint_section(program, analysis, audit=None) -> Dict[str, object]:
    """Run the lint passes and shape them for the result envelope.

    ``audit`` is the T-series' linearity audit when the caller already
    has one (see :func:`repro.lint.run_lints`). Timings
    (``pass_seconds``) are deliberately dropped: the envelope must be
    byte-stable for equal inputs, and wall-clock numbers never are.
    Findings keep their full structure including ``via``.
    """
    from repro.core.hybrid import HybridResult, subtransitive_graph_of
    from repro.lint import run_lints

    if subtransitive_graph_of(analysis) is None and not isinstance(
        analysis, HybridResult
    ):
        # A bare standard/cubic result (requested explicitly, or the
        # timeout-degrade re-run): route it through the lint driver's
        # standard-CFA fallback path.
        analysis = HybridResult("standard", analysis)
    result = run_lints(program, analysis, audit=audit)
    counts: Dict[str, int] = {}
    for finding in result.findings:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    return {
        "engine": result.engine,
        "fallback_reason": result.fallback_reason,
        "findings": [f.to_dict() for f in result.findings],
        "counts": counts,
    }


def _sanitize_section(analysis) -> Optional[Dict[str, object]]:
    """Run the graph sanitizer, envelope-shaped (no timings); ``None``
    when there is no subtransitive graph to check (standard-engine
    results)."""
    from repro.core.hybrid import subtransitive_graph_of
    from repro.lint.sanitize import sanitize

    sub = subtransitive_graph_of(analysis)
    return None if sub is None else sanitize(sub).section()


def _analyze(payload: Dict[str, object]) -> Dict[str, object]:
    import repro
    from repro.core.hybrid import HybridResult
    from repro.errors import AnalysisBudgetExceeded, TypeInferenceError
    from repro.export import result_fingerprint, result_to_dict
    from repro.flow.audit import audit_linearity, audit_section, inference_of
    from repro.obs.events import span
    from repro.types.infer import try_infer_types

    options: Dict[str, object] = payload["options"]
    program = repro.parse(payload["source"])
    status = "ok"
    fallback_reason = None
    analyze_kwargs = {}
    inference = None
    try:
        if options["algorithm"] == "subtransitive":
            # Inferred here so a degraded result keeps it too.
            inference = try_infer_types(program)
            analyze_kwargs["inference"] = inference
        analysis = repro.analyze(
            program, algorithm=options["algorithm"], **analyze_kwargs
        )
    except (AnalysisBudgetExceeded, TypeInferenceError) as error:
        # Graceful degradation: the LC' attempt blew its budget (or
        # no congruence could be inferred); the cubic standard
        # algorithm is total, so the job completes — tagged.
        from repro.cfa.standard import analyze_standard

        fallback_reason = (
            "budget"
            if isinstance(error, AnalysisBudgetExceeded)
            else "inference"
        )
        analysis = HybridResult(
            "standard",
            analyze_standard(program),
            fallback_reason=fallback_reason,
            inference=inference,
        )
    if isinstance(analysis, HybridResult) and analysis.engine == "standard":
        status = "degraded"
        fallback_reason = analysis.fallback_reason
    envelope = result_to_dict(analysis)
    audit = None
    if options.get("lint"):
        # One inference per job: the T-series and the audit section
        # share this audit, made from the inference the analysis
        # already ran (or from one run, when its algorithm runs none).
        audit = audit_linearity(program, inference_of(analysis))
        envelope["lint"] = _lint_section(program, analysis, audit=audit)
    if options.get("sanitize"):
        with span("sanitize"):
            envelope["sanitize"] = _sanitize_section(analysis)
    if options.get("audit"):
        # The linearity-audit section: predicted LC' budget
        # (Proposition 3/4 preconditions) next to the actual graph
        # growth, deterministic for equal inputs.
        with span("audit"):
            envelope["audit"] = audit_section(program, analysis, audit)
    response: Dict[str, object] = {
        "status": status,
        "fallback_reason": fallback_reason,
        "envelope": envelope,
        "fingerprint": result_fingerprint(envelope),
        "error": None,
    }
    section = envelope.get("sanitize")
    if section is not None and not section["ok"]:
        # A sanitizer violation means the engine produced a graph it
        # cannot justify — that result must not be served (or cached).
        response["status"] = "error"
        response["error"] = (
            f"sanitizer violations: {len(section['violations'])}"
        )
    return response


def _profiled(payload: Dict[str, object]) -> Dict[str, object]:
    """:func:`_analyze` under a bound profiler, every stack rooted at
    ``serve.job``.

    The profile rides the *response*, never the envelope: the envelope
    is content-addressed and must stay byte-stable for equal inputs,
    and wall-clock spans never are. Cache hits therefore carry no
    profile (documented in docs/SERVICE.md)."""
    from repro.obs.events import bind_request, span
    from repro.obs.profile import SpanProfiler

    profiler = SpanProfiler()
    with bind_request(profiler=profiler), span("serve.job"):
        response = _analyze(payload)
    response["profile"] = profiler.folded()
    return response


def run_job(payload: Dict[str, object]) -> Dict[str, object]:
    """Analyse one job payload; never raises (see module docstring)."""
    from repro._util import ensure_recursion_limit
    from repro.errors import ReproError

    ensure_recursion_limit()
    start = time.perf_counter()
    timeout = payload.get("timeout")
    token = _NOT_ARMED
    try:
        # The alarm is armed before fault injection so a simulated
        # slow job (the ``sleep`` fault) is clocked like real work.
        token = _arm_timeout(timeout)
        fault = payload.get("fault") or {}
        if fault:
            _apply_faults(fault)
        if payload.get("profile"):
            response = _profiled(payload)
        else:
            response = _analyze(payload)
    except WorkerTimeout:
        response = {
            "status": "timeout",
            "error": f"job exceeded its {timeout}s wall-clock budget",
        }
    except ReproError as error:
        response = {"status": "error", "error": str(error)}
    except Exception as error:  # never let one job crash the batch
        response = {
            "status": "error",
            "error": f"{type(error).__name__}: {error}",
        }
    finally:
        _disarm_timeout(token)
    response.setdefault("fallback_reason", None)
    response.setdefault("envelope", None)
    response.setdefault("fingerprint", None)
    response.setdefault("error", None)
    response["seconds"] = time.perf_counter() - start
    return response
