"""Baseline diffing: the ``repro.obs-diff/1`` regression report.

``docs/OBSERVABILITY.md`` promised that the metrics document is "the
perf-regression baseline future optimisation PRs diff against"; this
module is the diff. It loads two ``repro.metrics/1`` or
``repro.bench-metrics/1`` documents (baseline A, current B), flattens
both to dotted metric names, compares each shared metric against a
per-metric ratio threshold plus an absolute noise floor, and emits a
versioned report with a three-way verdict:

``ok``
    Every metric within threshold (improvements count as ok).
``warn``
    At least one metric in the warning band — past half the allowed
    headroom but under the threshold — or a structural concern
    (missing/added metrics, cross-machine comparison, quick-mode
    mismatch).
``regression``
    At least one metric at or past its threshold.

Two kinds of metric get different default tolerances:

* **seconds** (wall-clock: ``phases.*.seconds``, ``timers.*``) are
  noisy — default ratio threshold ``1.5``, absolute noise floor
  ``0.005`` seconds (differences smaller than the floor are never
  flagged, however large the ratio);
* **counts** (nodes, edges, rule firings, counters) are deterministic
  — default ratio threshold ``1.1``, absolute floor ``16`` units.

Wall-clock comparisons across machines are meaningless, so each
``repro.bench-metrics/1`` document records environment provenance
(:func:`environment_provenance`); when the two sides disagree on
machine/platform/python — or on the ``--quick`` flag — seconds
regressions are demoted to warnings and the report says why.

Exit-code mapping (:func:`diff_exit_code`): ``ok`` → 0, ``warn`` → 1,
``regression`` → 2; ``warn_only`` caps the code at 1 so a CI smoke
gate can stay informative without going red on a noisy runner.
"""

from __future__ import annotations

import os
import platform
import sys
from typing import Dict, List, Optional, Tuple

from repro._util import make_checkers

#: Schema tag carried by every diff report.
DIFF_SCHEMA = "repro.obs-diff/1"

#: Default ratio threshold / absolute noise floor per metric kind.
DEFAULT_SECONDS_THRESHOLD = 1.5
DEFAULT_SECONDS_FLOOR = 0.005
DEFAULT_COUNT_THRESHOLD = 1.1
DEFAULT_COUNT_FLOOR = 16

#: Environment keys that make wall-clock comparison meaningful.
_ENV_COMPARE_KEYS = ("machine", "platform", "python_version")

_VERDICTS = ("ok", "warn", "regression")


def _version() -> str:
    import repro

    return repro.__version__


def environment_provenance() -> Dict[str, object]:
    """Where this run happened, for cross-machine diff detection.

    Recorded into every ``repro.bench-metrics/1`` document so a
    baseline diff can tell "the code got slower" apart from "this is
    a different machine".
    """
    return {
        "python_version": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "repro_version": _version(),
    }


# -- flattening ----------------------------------------------------------------


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _flatten_engine_doc(document) -> Dict[str, float]:
    """Flatten a ``repro.metrics/1`` document to dotted metric names.

    Only scalar numbers that are meaningful to diff are kept; nulled
    engine sections (hybrid fallback) simply contribute nothing.
    """
    flat: Dict[str, float] = {}
    phases = document.get("phases")
    if isinstance(phases, dict):
        for phase, entry in phases.items():
            if isinstance(entry, dict):
                for key, value in entry.items():
                    if _is_number(value):
                        flat[f"phases.{phase}.{key}"] = value
    rules = document.get("rules")
    if isinstance(rules, dict):
        for name, count in rules.items():
            if _is_number(count):
                flat[f"rules.{name}"] = count
    nodes = document.get("nodes")
    if isinstance(nodes, dict):
        for key in ("created", "depth_truncations", "demanded"):
            if _is_number(nodes.get(key)):
                flat[f"nodes.{key}"] = nodes[key]
    graph = document.get("graph")
    if isinstance(graph, dict):
        for key, value in graph.items():
            if _is_number(value):
                flat[f"graph.{key}"] = value
    queries = document.get("queries")
    if isinstance(queries, dict):
        for key, value in queries.items():
            if _is_number(value):
                flat[f"queries.{key}"] = value
    registry = document.get("registry")
    if isinstance(registry, dict):
        for name, value in (registry.get("counters") or {}).items():
            if _is_number(value):
                flat[f"counters.{name}"] = value
        for name, timer in (registry.get("timers") or {}).items():
            if isinstance(timer, dict) and _is_number(
                timer.get("total_seconds")
            ):
                flat[f"timers.{name}.total_seconds"] = timer[
                    "total_seconds"
                ]
    return flat


def extract_metrics(document) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Flatten either supported document into ``(metrics, meta)``.

    ``meta`` carries what the diff needs beyond the numbers: the
    document kind, the producing library version, the ``--quick`` flag
    and environment provenance (bench documents only; ``None`` where a
    document predates the field).
    """
    if not isinstance(document, dict):
        raise ValueError("expected a metrics document (JSON object)")
    schema = document.get("schema")
    if schema == "repro.bench-metrics/1":
        engine = document.get("engine_metrics")
        if not isinstance(engine, dict):
            raise ValueError(
                "bench-metrics document has no engine_metrics section"
            )
        meta = {
            "kind": schema,
            "version": engine.get("version"),
            "quick": document.get("quick"),
            "environment": document.get("environment"),
        }
        return _flatten_engine_doc(engine), meta
    if schema == "repro.metrics/1":
        meta = {
            "kind": schema,
            "version": document.get("version"),
            "quick": None,
            "environment": document.get("environment"),
        }
        return _flatten_engine_doc(document), meta
    raise ValueError(
        "expected a repro.metrics/1 or repro.bench-metrics/1 document, "
        f"got schema {schema!r}"
    )


# -- comparison ----------------------------------------------------------------


def _metric_kind(name: str) -> str:
    """``seconds`` for wall-clock metrics, ``count`` for everything
    else (the dotted-name convention makes this a suffix test)."""
    return "seconds" if name.endswith("seconds") else "count"


def _defaults_for(kind: str) -> Tuple[float, float]:
    if kind == "seconds":
        return DEFAULT_SECONDS_THRESHOLD, DEFAULT_SECONDS_FLOOR
    return DEFAULT_COUNT_THRESHOLD, DEFAULT_COUNT_FLOOR


def diff_documents(
    baseline,
    current,
    thresholds: Optional[Dict[str, float]] = None,
    noise_floors: Optional[Dict[str, float]] = None,
) -> Dict[str, object]:
    """Compare two metrics documents and build the diff report.

    ``thresholds`` / ``noise_floors`` override the per-kind defaults
    for individual metric names. The report is self-contained: every
    row records the threshold it was judged against, so a committed
    report can be audited without re-running the diff.
    """
    thresholds = dict(thresholds or {})
    noise_floors = dict(noise_floors or {})
    base_metrics, base_meta = extract_metrics(baseline)
    cur_metrics, cur_meta = extract_metrics(current)

    warnings: List[str] = []
    demote_seconds = False

    base_env = base_meta.get("environment")
    cur_env = cur_meta.get("environment")
    if isinstance(base_env, dict) and isinstance(cur_env, dict):
        mismatched = [
            key
            for key in _ENV_COMPARE_KEYS
            if base_env.get(key) != cur_env.get(key)
        ]
        if mismatched:
            demote_seconds = True
            warnings.append(
                "cross-machine comparison ("
                + ", ".join(
                    f"{key}: {base_env.get(key)!r} -> {cur_env.get(key)!r}"
                    for key in mismatched
                )
                + "); wall-clock regressions demoted to warnings"
            )
    if (
        base_meta.get("quick") is not None
        and cur_meta.get("quick") is not None
        and base_meta["quick"] != cur_meta["quick"]
    ):
        demote_seconds = True
        warnings.append(
            f"quick-mode mismatch (baseline quick={base_meta['quick']}, "
            f"current quick={cur_meta['quick']}); wall-clock regressions "
            "demoted to warnings"
        )

    rows: List[Dict[str, object]] = []
    regressions: List[str] = []
    warned: List[str] = []
    for name in sorted(set(base_metrics) | set(cur_metrics)):
        if name not in cur_metrics:
            warnings.append(f"metric {name} missing from current document")
            continue
        if name not in base_metrics:
            warnings.append(f"metric {name} absent from baseline (new)")
            continue
        before = base_metrics[name]
        after = cur_metrics[name]
        kind = _metric_kind(name)
        default_threshold, default_floor = _defaults_for(kind)
        threshold = thresholds.get(name, default_threshold)
        floor = noise_floors.get(name, default_floor)
        ratio = (after / before) if before else None
        delta = after - before

        verdict = "ok"
        improved = False
        if delta <= 0:
            improved = delta < 0 and abs(delta) >= floor
        elif delta < floor:
            verdict = "ok"  # inside the noise floor, whatever the ratio
        else:
            # Warn at half the allowed headroom, regress at the
            # threshold; a zero baseline with an above-floor increase
            # has no ratio and is always a regression.
            warn_at = 1.0 + (threshold - 1.0) / 2.0
            if ratio is None or ratio >= threshold:
                verdict = "regression"
            elif ratio >= warn_at:
                verdict = "warn"
        if verdict == "regression" and kind == "seconds" and demote_seconds:
            verdict = "warn"
        if verdict == "regression":
            regressions.append(name)
        elif verdict == "warn":
            warned.append(name)
        rows.append(
            {
                "name": name,
                "kind": kind,
                "baseline": before,
                "current": after,
                "delta": delta,
                "ratio": ratio,
                "threshold": threshold,
                "noise_floor": floor,
                "verdict": verdict,
                "improved": improved,
            }
        )

    if regressions:
        overall = "regression"
    elif warned or warnings:
        overall = "warn"
    else:
        overall = "ok"
    return {
        "schema": DIFF_SCHEMA,
        "version": _version(),
        "baseline": base_meta,
        "current": cur_meta,
        "verdict": overall,
        "metrics": rows,
        "regressions": regressions,
        "warned_metrics": warned,
        "warnings": warnings,
    }


def diff_exit_code(report, warn_only: bool = False) -> int:
    """``ok`` → 0, ``warn`` → 1, ``regression`` → 2 (1 if
    ``warn_only``)."""
    verdict = report.get("verdict")
    code = {"ok": 0, "warn": 1, "regression": 2}[verdict]
    if warn_only and code > 1:
        code = 1
    return code


# -- rendering -----------------------------------------------------------------


def render_diff(report, limit: Optional[int] = None) -> str:
    """Human-readable report: verdict, offending metrics first."""
    from repro.bench import Table

    def sort_key(row):
        rank = {"regression": 0, "warn": 1, "ok": 2}[row["verdict"]]
        magnitude = row["ratio"] if row["ratio"] is not None else float("inf")
        return (rank, -magnitude)

    rows = sorted(report["metrics"], key=sort_key)
    if limit is not None:
        rows = rows[:limit]
    table = Table(
        ["metric", "baseline", "current", "ratio", "threshold", "verdict"],
        title=f"baseline diff: {report['verdict']}",
    )
    for row in rows:
        ratio = row["ratio"]
        table.add_row(
            row["name"],
            f"{row['baseline']:g}",
            f"{row['current']:g}",
            "n/a" if ratio is None else f"{ratio:.3f}",
            f"{row['threshold']:g}",
            row["verdict"] + (" (improved)" if row["improved"] else ""),
        )
    lines = [table.render()]
    if report["regressions"]:
        lines.append(
            "regressed metrics: " + ", ".join(report["regressions"])
        )
    for warning in report["warnings"]:
        lines.append(f"warning: {warning}")
    return "\n".join(lines)


# -- validation ----------------------------------------------------------------


_expect = make_checkers("diff report")[1]


def validate_diff(report) -> Dict[str, object]:
    """Structurally validate a ``repro.obs-diff/1`` report.

    Same contract style as :func:`repro.obs.validate_metrics`: returns
    the report on success, raises :class:`ValueError` naming the
    offending path otherwise.
    """
    _expect(isinstance(report, dict), "$", "expected an object")
    _expect(
        report.get("schema") == DIFF_SCHEMA,
        "$.schema",
        f"expected {DIFF_SCHEMA!r}, got {report.get('schema')!r}",
    )
    _expect(
        isinstance(report.get("version"), str), "$.version", "expected string"
    )
    _expect(
        report.get("verdict") in _VERDICTS,
        "$.verdict",
        f"expected one of {_VERDICTS}, got {report.get('verdict')!r}",
    )
    for side in ("baseline", "current"):
        _expect(
            isinstance(report.get(side), dict), f"$.{side}", "expected object"
        )
    metrics = report.get("metrics")
    _expect(isinstance(metrics, list), "$.metrics", "expected array")
    for index, row in enumerate(metrics):
        path = f"$.metrics[{index}]"
        _expect(isinstance(row, dict), path, "expected object")
        _expect(
            isinstance(row.get("name"), str), f"{path}.name", "expected string"
        )
        _expect(
            row.get("kind") in ("seconds", "count"),
            f"{path}.kind",
            "expected 'seconds' or 'count'",
        )
        for key in ("baseline", "current", "delta", "threshold", "noise_floor"):
            _expect(
                _is_number(row.get(key)),
                f"{path}.{key}",
                f"expected number, got {type(row.get(key)).__name__}",
            )
        if row.get("ratio") is not None:
            _expect(
                _is_number(row["ratio"]), f"{path}.ratio", "expected number/null"
            )
        _expect(
            row.get("verdict") in _VERDICTS,
            f"{path}.verdict",
            f"expected one of {_VERDICTS}",
        )
        _expect(
            isinstance(row.get("improved"), bool),
            f"{path}.improved",
            "expected bool",
        )
    for key in ("regressions", "warned_metrics", "warnings"):
        value = report.get(key)
        _expect(
            isinstance(value, list)
            and all(isinstance(item, str) for item in value),
            f"$.{key}",
            "expected array of strings",
        )
    return report
