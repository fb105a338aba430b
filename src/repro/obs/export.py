"""The stable JSON metrics document and its validator.

Everything the repo measures — build/close phase timings, per-rule
counters, node/edge/budget accounting, query statistics — is exported
as one JSON document with a versioned schema tag, so benchmark runs
can be diffed across commits and a perf-regression baseline can be a
plain file. The schema is frozen by :func:`validate_metrics` (a
dependency-free structural validator) and round-trip tested; breaking
changes must bump :data:`SCHEMA`.

Top-level document shape (``null`` where the producing engine has no
such phase, e.g. the hybrid driver's cubic fallback)::

    {
      "schema":  "repro.metrics/1",
      "version": "<library version>",
      "engine":  {"name": ..., "driver": ..., "fallback": bool,
                  "fallback_reason": "budget"|"inference"|null},
      "program": {"size": int, "abstractions": int, "applications": int},
      "phases":  {"build"|"close"|"total":
                    {"seconds": float, "nodes": int, "edges": int}} | null,
      "rules":   {"ABS-1": int, ..., "CLOSE-CONTRA": int} | null,
      "nodes":   {"created": int, "budget": int|null,
                  "budget_used": float|null, "depth_truncations": int,
                  "demanded": int} | null,
      "graph":   {"nodes": int, "edges": int, "close_edges": int} | null,
      "queries": {"count": int, "visited_nodes": int},
      "registry": {"counters": {...}, "gauges": {...}, "timers": {...}},
      "session": {...}          # optional; incremental sessions only
    }
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from repro._util import make_checkers

#: Schema tag carried by every metrics document.
SCHEMA = "repro.metrics/1"

#: Top-level keys every document must carry (``session`` is optional).
_REQUIRED_KEYS = (
    "schema",
    "version",
    "engine",
    "program",
    "phases",
    "rules",
    "nodes",
    "graph",
    "queries",
    "registry",
)

_PHASE_NAMES = ("build", "close", "total")


def _version() -> str:
    import repro

    return repro.__version__


def _program_section(program) -> Dict[str, int]:
    return {
        "size": program.size,
        "abstractions": len(program.abstractions),
        "applications": len(program.applications),
    }


def _subtransitive_sections(sub, queries: Dict[str, int]):
    """The engine-specific sections for a finished LC' run."""
    stats = sub.stats
    factory = sub.factory
    graph = sub.graph
    budget = factory.node_budget
    phases = {
        "build": {
            "seconds": stats.build_seconds,
            "nodes": stats.build_nodes,
            "edges": stats.build_edges,
        },
        "close": {
            "seconds": stats.close_seconds,
            "nodes": stats.close_nodes,
            "edges": stats.close_edges,
        },
        "total": {
            "seconds": stats.total_seconds,
            "nodes": stats.total_nodes,
            "edges": stats.total_edges,
        },
    }
    nodes = {
        "created": factory.node_count,
        "budget": budget,
        "budget_used": (
            factory.node_count / budget if budget else None
        ),
        "depth_truncations": factory.depth_truncations,
        "demanded": stats.demanded_nodes,
    }
    graph_section = {
        "nodes": graph.node_count,
        "edges": graph.edge_count,
        "close_edges": len(getattr(sub, "close_edges", ())),
    }
    return {
        "phases": phases,
        "rules": dict(stats.rule_applications),
        "nodes": nodes,
        "graph": graph_section,
        "queries": queries,
        "registry": stats.registry.snapshot(),
    }


def collect_metrics(result) -> Dict[str, object]:
    """Build the metrics document for an analysis result.

    Accepts a :class:`~repro.core.queries.SubtransitiveCFA`, a bare
    :class:`~repro.core.lc.SubtransitiveGraph`, or a
    :class:`~repro.core.hybrid.HybridResult` (either branch). Other
    :class:`~repro.cfa.base.CFAResult` implementations produce a
    document with ``null`` engine sections (they have no LC'
    instrumentation to report).
    """
    from repro.core.hybrid import HybridResult, subtransitive_graph_of

    driver = "lc"
    fallback = False
    fallback_reason = None
    attempt_registry = None
    sub = subtransitive_graph_of(result)
    if isinstance(result, HybridResult):
        driver = "hybrid"
        fallback = result.engine != "subtransitive"
        fallback_reason = result.fallback_reason
        attempt_registry = result.registry
        result = result.result

    # Only the query layer (SubtransitiveCFA) counts queries.
    queries = {
        "count": getattr(result, "query_count", 0),
        "visited_nodes": getattr(result, "query_visited_nodes", 0),
    }

    document: Dict[str, object] = {
        "schema": SCHEMA,
        "version": _version(),
        "program": _program_section(result.program),
    }
    if sub is not None:
        document["engine"] = {
            "name": "subtransitive",
            "driver": driver,
            "fallback": fallback,
            "fallback_reason": fallback_reason,
        }
        document.update(_subtransitive_sections(sub, queries))
    else:
        document["engine"] = {
            "name": type(result).__name__.replace("CFAResult", "").lower()
            or "unknown",
            "driver": driver,
            "fallback": fallback,
            "fallback_reason": fallback_reason,
        }
        document.update(
            {
                "phases": None,
                "rules": None,
                "nodes": None,
                "graph": None,
                "queries": queries,
                # After a hybrid fallback the abandoned LC' attempt's
                # counters (budget burn, hybrid.fallback.<reason>) are
                # the interesting part of the story — export them.
                "registry": (
                    attempt_registry.snapshot()
                    if attempt_registry is not None
                    else {"counters": {}, "gauges": {}, "timers": {}}
                ),
            }
        )
    return document


def metrics_to_json(document: Dict[str, object], indent: Optional[int] = 2) -> str:
    """Serialise a metrics document (stable key order)."""
    return json.dumps(document, indent=indent, sort_keys=True)


# -- validation ---------------------------------------------------------------


_, _expect, _check_int, _check_number = make_checkers("metrics document")


def validate_registry_snapshot(registry, path: str = "$.registry"):
    """Validate one :meth:`MetricsRegistry.snapshot` dict.

    Shared between the metrics document validator and the daemon's
    ``telemetry`` scrape (``repro.events/1``), which embeds a bare
    registry snapshot without the engine sections.
    """
    _expect(isinstance(registry, dict), path, "expected object")
    for key in ("counters", "gauges", "timers"):
        _expect(
            isinstance(registry.get(key), dict),
            f"{path}.{key}",
            "expected object",
        )
    for name, count in registry["counters"].items():
        _check_int(count, f"{path}.counters.{name}")
    for name, timer in registry["timers"].items():
        _expect(
            isinstance(timer, dict),
            f"{path}.timers.{name}",
            "expected object",
        )
        for key in ("count", "total_seconds", "last_seconds"):
            _check_number(timer.get(key), f"{path}.timers.{name}.{key}")
        # Distribution fields (min/max/mean) arrived after the schema
        # froze; they are optional — older documents without them stay
        # valid, newer ones get their types checked. No schema bump:
        # additive, and every required key above is unchanged.
        for key in ("min_seconds", "max_seconds", "mean_seconds"):
            if timer.get(key) is not None:
                _check_number(timer[key], f"{path}.timers.{name}.{key}")
    # ``histograms`` is likewise additive-optional: snapshots only
    # carry the key once a histogram exists, and documents written
    # before histograms existed stay valid.
    histograms = registry.get("histograms")
    if histograms is not None:
        _expect(
            isinstance(histograms, dict),
            f"{path}.histograms",
            "expected object",
        )
        for name, hist in histograms.items():
            hist_path = f"{path}.histograms.{name}"
            _expect(isinstance(hist, dict), hist_path, "expected object")
            _check_int(hist.get("count"), f"{hist_path}.count")
            for key in ("sum", "min", "max", "mean"):
                _check_number(hist.get(key), f"{hist_path}.{key}")
            buckets = hist.get("buckets")
            _expect(
                isinstance(buckets, dict),
                f"{hist_path}.buckets",
                "expected object",
            )
            total = 0
            for bucket, count in buckets.items():
                _check_int(count, f"{hist_path}.buckets.{bucket}")
                _expect(
                    bucket == "zero"
                    or bucket.lstrip("-").isdigit(),
                    f"{hist_path}.buckets.{bucket}",
                    "bucket keys are 'zero' or a base-2 exponent",
                )
                total += count
            _expect(
                total == hist["count"],
                f"{hist_path}.buckets",
                "bucket counts must sum to count",
            )
    return registry


def validate_metrics(document) -> Dict[str, object]:
    """Structurally validate a metrics document against the v1 schema.

    Returns the document unchanged on success; raises
    :class:`ValueError` naming the offending path otherwise. This is
    the contract future perf PRs diff their baselines against — keep
    it strict.
    """
    _expect(isinstance(document, dict), "$", "expected an object")
    for key in _REQUIRED_KEYS:
        _expect(key in document, "$", f"missing required key {key!r}")
    _expect(
        document["schema"] == SCHEMA,
        "$.schema",
        f"expected {SCHEMA!r}, got {document['schema']!r}",
    )
    _expect(
        isinstance(document["version"], str), "$.version", "expected string"
    )

    engine = document["engine"]
    _expect(isinstance(engine, dict), "$.engine", "expected object")
    for key in ("name", "driver", "fallback"):
        _expect(key in engine, "$.engine", f"missing key {key!r}")
    _expect(
        isinstance(engine["fallback"], bool),
        "$.engine.fallback",
        "expected bool",
    )
    if engine.get("fallback_reason") is not None:
        _expect(
            isinstance(engine["fallback_reason"], str),
            "$.engine.fallback_reason",
            "expected string/null",
        )

    program = document["program"]
    _expect(isinstance(program, dict), "$.program", "expected object")
    for key in ("size", "abstractions", "applications"):
        _expect(key in program, "$.program", f"missing key {key!r}")
        _check_int(program[key], f"$.program.{key}")

    phases = document["phases"]
    if phases is not None:
        _expect(isinstance(phases, dict), "$.phases", "expected object/null")
        for phase in _PHASE_NAMES:
            _expect(phase in phases, "$.phases", f"missing phase {phase!r}")
            entry = phases[phase]
            _expect(
                isinstance(entry, dict),
                f"$.phases.{phase}",
                "expected object",
            )
            _check_number(
                entry.get("seconds"), f"$.phases.{phase}.seconds"
            )
            _check_int(entry.get("nodes"), f"$.phases.{phase}.nodes")
            _check_int(entry.get("edges"), f"$.phases.{phase}.edges")

    rules = document["rules"]
    if rules is not None:
        _expect(isinstance(rules, dict), "$.rules", "expected object/null")
        for name, count in rules.items():
            _check_int(count, f"$.rules.{name}")

    nodes = document["nodes"]
    if nodes is not None:
        _expect(isinstance(nodes, dict), "$.nodes", "expected object/null")
        for key in ("created", "depth_truncations", "demanded"):
            _check_int(nodes.get(key), f"$.nodes.{key}")
        if nodes.get("budget") is not None:
            _check_int(nodes["budget"], "$.nodes.budget")
        if nodes.get("budget_used") is not None:
            _check_number(nodes["budget_used"], "$.nodes.budget_used")

    graph = document["graph"]
    if graph is not None:
        _expect(isinstance(graph, dict), "$.graph", "expected object/null")
        for key in ("nodes", "edges", "close_edges"):
            _check_int(graph.get(key), f"$.graph.{key}")

    queries = document["queries"]
    _expect(isinstance(queries, dict), "$.queries", "expected object")
    for key in ("count", "visited_nodes"):
        _check_int(queries.get(key), f"$.queries.{key}")

    validate_registry_snapshot(document["registry"], "$.registry")

    session = document.get("session")
    if session is not None:
        _expect(isinstance(session, dict), "$.session", "expected object")
        _check_int(session.get("defines"), "$.session.defines")
        _check_int(session.get("queries"), "$.session.queries")
        _expect(
            isinstance(session.get("history"), list),
            "$.session.history",
            "expected array",
        )
    return document
