"""Live rendering over event logs and ``telemetry`` scrapes.

The presentation side of :mod:`repro.obs.events` for request
streams, as :mod:`repro.obs.tracetools` is for engine traces:

* :func:`render_prometheus` — the ``telemetry`` verb's text format: a
  Prometheus-style exposition of the daemon registry (counters,
  gauges, timers as summaries, log2 histograms with cumulative ``le``
  buckets) plus uptime and event-log accounting;
* :func:`request_chain` / :func:`render_request` — reassemble one
  request's causal chain (``repro obs req <id>``): every event
  stamped with the id, ordered by emission, with connectivity and
  time-ordering verdicts;
* :func:`render_live_top` — the refreshing ``repro obs top --live``
  table: per-verb latency quantiles from the histograms, per-project
  warm/cold hit rates from the registry status;
* :func:`render_events_top` / :func:`render_request_waterfall` — the
  offline reports ``repro obs top``/``waterfall`` produce when handed
  a daemon's event log instead of an engine trace.

Quantiles are bucket-resolution (log2 upper bounds): good enough to
tell a 2ms p95 from a 200ms one, which is what a live view is for;
exact means come from the histogram's ``sum``/``count``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.obs.metrics import Histogram, bucket_bounds

#: Fields every event carries (everything else is kind-specific
#: detail worth rendering).
_BASE_FIELDS = ("seq", "ts", "mono", "kind", "request_id", "component")


def _metric_name(name: str) -> str:
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    return "repro_" + "".join(out)


def _fmt_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_prometheus(document: Dict[str, object]) -> str:
    """Prometheus-style text exposition of a telemetry document."""
    metrics = document.get("metrics") or {}
    lines: List[str] = []

    def emit(name: str, mtype: str, samples) -> None:
        lines.append(f"# TYPE {name} {mtype}")
        for suffix, labels, value in samples:
            label_text = (
                "{" + ",".join(
                    f'{key}="{val}"' for key, val in labels
                ) + "}"
                if labels
                else ""
            )
            lines.append(f"{name}{suffix}{label_text} {_fmt_value(value)}")

    emit(
        "repro_daemon_uptime_seconds", "gauge",
        [("", (), document.get("uptime_s", 0.0))],
    )
    emit(
        "repro_daemon_events_emitted_total", "counter",
        [("", (), document.get("events_emitted", 0))],
    )
    emit(
        "repro_daemon_events_dropped_total", "counter",
        [("", (), document.get("events_dropped", 0))],
    )
    for name, value in sorted((metrics.get("counters") or {}).items()):
        emit(_metric_name(name) + "_total", "counter", [("", (), value)])
    for name, value in sorted((metrics.get("gauges") or {}).items()):
        emit(_metric_name(name), "gauge", [("", (), value)])
    for name, timer in sorted((metrics.get("timers") or {}).items()):
        base = _metric_name(name) + "_seconds"
        emit(
            base, "summary",
            [
                ("_count", (), timer.get("count", 0)),
                ("_sum", (), timer.get("total_seconds", 0.0)),
            ],
        )
    for name, snap in sorted((metrics.get("histograms") or {}).items()):
        base = _metric_name(name)
        samples = []
        cumulative = 0
        buckets = snap.get("buckets") or {}

        def order(key: str) -> float:
            return float("-inf") if key == "zero" else float(key)

        for key in sorted(buckets, key=order):
            cumulative += buckets[key]
            le = 0.0 if key == "zero" else bucket_bounds(key)[1]
            samples.append(("_bucket", (("le", _fmt_value(le)),), cumulative))
        samples.append(("_bucket", (("le", "+Inf"),), snap.get("count", 0)))
        samples.append(("_sum", (), snap.get("sum", 0.0)))
        samples.append(("_count", (), snap.get("count", 0)))
        emit(base, "histogram", samples)
    return "\n".join(lines) + "\n"


# -- request reassembly --------------------------------------------------------


def _detail(event: Dict[str, object], width: int = 56) -> str:
    parts = [
        f"{key}={event[key]}"
        for key in event
        if key not in _BASE_FIELDS and event[key] is not None
    ]
    text = " ".join(parts)
    return text if len(text) <= width else text[: width - 1] + "…"


def request_chain(
    events: List[Dict[str, object]], request_id: str
) -> Dict[str, object]:
    """Reassemble one request's event chain, with verdicts.

    ``connected`` — the chain opens with the server's ``request``
    event and closes with its ``response`` (nothing was lost to ring
    overflow at either end); ``ordered`` — monotonic-clock timestamps
    never run backwards along the chain.
    """
    chain = sorted(
        (e for e in events if e.get("request_id") == request_id),
        key=lambda e: e.get("seq", 0),
    )
    monos = [
        e["mono"] for e in chain
        if isinstance(e.get("mono"), (int, float))
    ]
    ordered = all(a <= b for a, b in zip(monos, monos[1:]))
    kinds = [e.get("kind") for e in chain]
    connected = (
        bool(chain)
        and kinds[0] == "request"
        and kinds[-1] == "response"
    )
    verb = status = seconds = None
    for event in chain:
        if event.get("kind") == "request" and verb is None:
            verb = event.get("verb")
        if event.get("kind") == "response":
            status = event.get("status")
            seconds = event.get("seconds")
    return {
        "request_id": request_id,
        "events": chain,
        "count": len(chain),
        "components": sorted(
            {
                e["component"]
                for e in chain
                if isinstance(e.get("component"), str)
            }
        ),
        "kinds": sorted(set(kinds)),
        "connected": connected,
        "ordered": ordered,
        "verb": verb,
        "status": status,
        "seconds": seconds,
    }


def render_request(report: Dict[str, object]) -> str:
    """The ``repro obs req <id>`` report for one reassembled chain."""
    from repro.bench import Table

    chain = report["events"]
    if not chain:
        return f"no events for request {report['request_id']!r}"
    base = chain[0].get("mono") or 0.0
    table = Table(
        ["seq", "+ms", "kind", "component", "detail"],
        title=(
            f"request {report['request_id']} — verb={report['verb']} "
            f"status={report['status']} events={report['count']}"
        ),
    )
    for event in chain:
        offset = (
            (event["mono"] - base) * 1000.0
            if isinstance(event.get("mono"), (int, float))
            else 0.0
        )
        table.add_row(
            event.get("seq"),
            f"{offset:.2f}",
            event.get("kind"),
            event.get("component") or "-",
            _detail(event) or "-",
        )
    lines = [table.render()]
    lines.append(
        "chain: connected={connected} ordered={ordered} "
        "components={components}".format(
            connected=report["connected"],
            ordered=report["ordered"],
            components=",".join(report["components"]) or "-",
        )
    )
    if report["seconds"] is not None:
        lines.append(f"latency: {report['seconds'] * 1000.0:.2f} ms")
    return "\n".join(lines)


# -- live top ------------------------------------------------------------------


def _quantiles_ms(snap: Dict[str, object]):
    hist = Histogram.from_snapshot("q", snap)
    p50 = hist.quantile(0.5)
    p95 = hist.quantile(0.95)
    return (
        hist.count,
        hist.mean * 1000.0,
        (p50 or 0.0) * 1000.0,
        (p95 or 0.0) * 1000.0,
        hist.max * 1000.0,
    )


def render_live_top(
    telemetry: Dict[str, object], limit: int = 10
) -> str:
    """The ``repro obs top --live`` report from one telemetry scrape:
    per-verb latency distributions and per-project hit rates."""
    from repro.bench import Table

    metrics = telemetry.get("metrics") or {}
    histograms = metrics.get("histograms") or {}
    lines: List[str] = []
    lines.append(
        "daemon: uptime {up:.1f}s, events {emitted} emitted / "
        "{dropped} dropped, slow requests {slow}".format(
            up=telemetry.get("uptime_s", 0.0),
            emitted=telemetry.get("events_emitted", 0),
            dropped=telemetry.get("events_dropped", 0),
            slow=len(telemetry.get("slow") or []),
        )
    )

    verb_table = Table(
        ["verb", "requests", "mean ms", "p50 ms", "p95 ms", "max ms"],
        title="per-verb latency (log2 buckets)",
    )
    prefix = "daemon.latency."
    for name in sorted(histograms):
        if not name.startswith(prefix):
            continue
        count, mean, p50, p95, peak = _quantiles_ms(histograms[name])
        verb_table.add_row(
            name[len(prefix):],
            count,
            f"{mean:.2f}",
            f"{p50:.2f}",
            f"{p95:.2f}",
            f"{peak:.2f}",
        )
    lines.append("")
    lines.append(verb_table.render())

    projects = (telemetry.get("projects") or {}).get("warm") or []
    project_table = Table(
        ["project", "defs", "version", "warm", "cold", "hit rate"],
        title=f"warm projects (top {limit})",
    )
    for entry in projects[:limit]:
        hits = entry.get("hits") or {}
        warm = hits.get("warm", 0)
        cold = hits.get("cold", 0)
        total = warm + cold
        rate = f"{warm / total:.2f}" if total else "-"
        project_table.add_row(
            entry.get("project"),
            entry.get("definitions"),
            entry.get("version"),
            warm,
            cold,
            rate,
        )
    lines.append("")
    lines.append(project_table.render())

    for name, title in (
        ("daemon.retractions_per_redefine", "retractions per redefine"),
        ("daemon.fused_steps_per_request", "fused steps per request"),
    ):
        snap = histograms.get(name)
        if snap is None:
            continue
        hist = Histogram.from_snapshot(name, snap)
        lines.append(
            "{title}: n={n} mean={mean:.1f} p95<={p95:g} max={mx:g}".format(
                title=title,
                n=hist.count,
                mean=hist.mean,
                p95=hist.quantile(0.95) or 0,
                mx=hist.max,
            )
        )
    return "\n".join(lines)


# -- offline event-log reports -------------------------------------------------


def render_events_top(
    events: List[Dict[str, object]], limit: int = 10
) -> str:
    """``repro obs top`` over an event-log file: kind/component
    counts, per-verb latency, slowest requests."""
    from repro.bench import Table

    lines: List[str] = []
    counts: Dict[str, int] = {}
    for event in events:
        key = "{}/{}".format(
            event.get("component") or "-", event.get("kind")
        )
        counts[key] = counts.get(key, 0) + 1
    count_table = Table(
        ["component/kind", "events"], title="event mix"
    )
    for key in sorted(counts, key=lambda k: (-counts[k], k)):
        count_table.add_row(key, counts[key])
    lines.append(count_table.render())

    responses = [e for e in events if e.get("kind") == "response"]
    by_verb: Dict[str, List[float]] = {}
    for event in responses:
        seconds = event.get("seconds")
        if isinstance(seconds, (int, float)):
            by_verb.setdefault(str(event.get("verb")), []).append(
                float(seconds)
            )
    verb_table = Table(
        ["verb", "requests", "mean ms", "max ms"],
        title="request latency",
    )
    for verb in sorted(by_verb):
        samples = by_verb[verb]
        verb_table.add_row(
            verb,
            len(samples),
            f"{sum(samples) / len(samples) * 1000.0:.2f}",
            f"{max(samples) * 1000.0:.2f}",
        )
    lines.append("")
    lines.append(verb_table.render())

    slowest = sorted(
        (
            e for e in responses
            if isinstance(e.get("seconds"), (int, float))
        ),
        key=lambda e: -e["seconds"],
    )[:limit]
    slow_table = Table(
        ["request", "verb", "status", "ms"],
        title=f"slowest requests (top {limit})",
    )
    for event in slowest:
        slow_table.add_row(
            event.get("request_id"),
            event.get("verb"),
            event.get("status"),
            f"{event['seconds'] * 1000.0:.2f}",
        )
    lines.append("")
    lines.append(slow_table.render())
    return "\n".join(lines)


def render_request_waterfall(
    events: List[Dict[str, object]], limit: int = 20
) -> str:
    """``repro obs waterfall`` over an event-log file: one row per
    request, in arrival order, with the work it triggered."""
    from repro.bench import Table

    order: List[str] = []
    rows: Dict[str, Dict[str, object]] = {}
    for event in sorted(events, key=lambda e: e.get("seq", 0)):
        rid = event.get("request_id")
        if not isinstance(rid, str):
            continue
        row = rows.get(rid)
        if row is None:
            row = rows[rid] = {
                "request": rid, "verb": None, "events": 0,
                "deltas": 0, "flow_steps": 0, "ms": None,
            }
            order.append(rid)
        row["events"] += 1
        kind = event.get("kind")
        if kind == "request" and row["verb"] is None:
            row["verb"] = event.get("verb")
        elif kind == "delta":
            row["deltas"] += 1
        elif kind == "flow":
            steps = event.get("steps")
            if isinstance(steps, (int, float)):
                row["flow_steps"] += int(steps)
        elif kind == "response":
            seconds = event.get("seconds")
            if isinstance(seconds, (int, float)):
                row["ms"] = seconds * 1000.0
    table = Table(
        ["request", "verb", "events", "deltas", "flow steps", "ms"],
        title=(
            f"request waterfall ({len(order)} requests, "
            f"showing {min(limit, len(order))})"
        ),
    )
    for rid in order[:limit]:
        row = rows[rid]
        table.add_row(
            row["request"],
            row["verb"] or "-",
            row["events"],
            row["deltas"],
            row["flow_steps"],
            f"{row['ms']:.2f}" if row["ms"] is not None else "-",
        )
    return table.render()


def filter_events(
    events: List[Dict[str, object]],
    grep: Optional[str] = None,
    request_id: Optional[str] = None,
) -> List[Dict[str, object]]:
    """The ``repro obs tail`` filter: substring + request id."""
    out = []
    for event in events:
        if request_id is not None and event.get("request_id") != request_id:
            continue
        if grep is not None and grep not in json.dumps(
            event, sort_keys=True, default=str
        ):
            continue
        out.append(event)
    return out
