"""Structured lint findings and their renderers.

A :class:`Finding` is the stable unit of output: rule code, severity,
the expression node (nid + source span), the abstraction label where
one is the subject, and a human message. :class:`LintResult` bundles
one program's findings with how they were computed (``engine`` is
``"subtransitive"`` when the passes ran on the LC' graph,
``"standard"`` when the hybrid driver abandoned LC' and the findings
were recomputed from cubic-CFA label sets) and renders as text or as a
versioned JSON document (schema tag :data:`SCHEMA`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

#: Severities, weakest first. Filtering with ``--severity warning``
#: keeps warnings and errors.
SEVERITIES = ("info", "warning", "error")

_SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}

#: Schema tag carried by every JSON lint document.
SCHEMA = "repro.lint/1"


def severity_at_least(severity: str, floor: str) -> bool:
    """Is ``severity`` at or above ``floor``?"""
    try:
        return _SEVERITY_RANK[severity] >= _SEVERITY_RANK[floor]
    except KeyError:
        raise ValueError(
            f"unknown severity {severity!r} or {floor!r}; "
            f"expected one of {SEVERITIES}"
        ) from None


class Finding:
    """One diagnostic: ``{rule_code, severity, node/label, span,
    message}`` plus the provenance of the computation."""

    __slots__ = (
        "rule",
        "severity",
        "nid",
        "label",
        "line",
        "column",
        "message",
        "via",
        "derivation",
    )

    def __init__(
        self,
        rule: str,
        severity: str,
        nid: int,
        message: str,
        label: Optional[str] = None,
        line: Optional[int] = None,
        column: Optional[int] = None,
        via: str = "subtransitive",
        derivation: Optional[List[Dict[str, object]]] = None,
    ):
        if severity not in _SEVERITY_RANK:
            raise ValueError(f"unknown severity {severity!r}")
        self.rule = rule
        self.severity = severity
        self.nid = nid
        #: Abstraction label, when the finding is about an abstraction.
        self.label = label
        self.line = line
        self.column = column
        self.message = message
        #: ``"subtransitive"`` or ``"standard"`` (hybrid fallback).
        self.via = via
        #: Rule-engine provenance (``repro lint --explain``): the
        #: derivation chain as ``{"rule", "fact", "premises"}`` steps,
        #: or ``None`` when the run carried no provenance.
        self.derivation = derivation

    @property
    def sort_key(self) -> Tuple:
        return (
            self.line if self.line is not None else 1 << 30,
            self.column if self.column is not None else 1 << 30,
            self.rule,
            self.nid,
        )

    def to_dict(self) -> Dict[str, object]:
        document: Dict[str, object] = {
            "rule": self.rule,
            "severity": self.severity,
            "nid": self.nid,
            "label": self.label,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "via": self.via,
        }
        # Only explained runs carry the key, so unexplained envelopes
        # stay byte-identical.
        if self.derivation is not None:
            document["derivation"] = self.derivation
        return document

    def render(self, path: Optional[str] = None) -> str:
        """One text line, grep-able ``path:line:col: CODE sev: msg``."""
        where = path if path is not None else "<program>"
        if self.line is not None:
            where += f":{self.line}"
            if self.column is not None:
                where += f":{self.column}"
        suffix = f" [{self.label}]" if self.label else ""
        return (
            f"{where}: {self.rule} {self.severity}: "
            f"{self.message}{suffix}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Finding {self.rule} nid={self.nid} {self.severity}>"


class LintResult:
    """All findings for one program, plus run provenance."""

    def __init__(
        self,
        program,
        findings: Iterable[Finding],
        engine: str = "subtransitive",
        fallback_reason: Optional[str] = None,
        pass_seconds: Optional[Dict[str, float]] = None,
        sanitize_report=None,
    ):
        self.program = program
        self.findings: List[Finding] = sorted(
            findings, key=lambda f: f.sort_key
        )
        #: ``"subtransitive"`` or ``"standard"``.
        self.engine = engine
        #: Why LC' was abandoned when ``engine == "standard"``
        #: (``"budget"`` / ``"inference"``), else ``None``.
        self.fallback_reason = fallback_reason
        #: Rule code -> wall-clock seconds of that pass.
        self.pass_seconds = dict(pass_seconds or {})
        #: Attached :class:`repro.lint.sanitize.SanitizeReport`, when
        #: the caller asked for one.
        self.sanitize_report = sanitize_report

    @property
    def ok(self) -> bool:
        return not self.findings

    def by_rule(self) -> Dict[str, List[Finding]]:
        grouped: Dict[str, List[Finding]] = {}
        for finding in self.findings:
            grouped.setdefault(finding.rule, []).append(finding)
        return grouped

    def rules_fired(self) -> Tuple[str, ...]:
        return tuple(sorted({f.rule for f in self.findings}))

    def filtered(
        self,
        min_severity: str = "info",
        rules: Optional[Iterable[str]] = None,
    ) -> "LintResult":
        """A copy keeping findings at/above ``min_severity`` and (when
        given) with a rule code in ``rules``."""
        wanted = set(rules) if rules is not None else None
        kept = [
            finding
            for finding in self.findings
            if severity_at_least(finding.severity, min_severity)
            and (wanted is None or finding.rule in wanted)
        ]
        return LintResult(
            self.program,
            kept,
            engine=self.engine,
            fallback_reason=self.fallback_reason,
            pass_seconds=self.pass_seconds,
            sanitize_report=self.sanitize_report,
        )

    # -- rendering ---------------------------------------------------------

    def to_dict(self, path: Optional[str] = None) -> Dict[str, object]:
        """The per-file JSON fragment (the CLI wraps one of these per
        input file under the :data:`SCHEMA` envelope)."""
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        document: Dict[str, object] = {
            "path": path,
            "engine": self.engine,
            "fallback_reason": self.fallback_reason,
            "findings": [f.to_dict() for f in self.findings],
            "counts": counts,
            "pass_seconds": dict(self.pass_seconds),
        }
        if self.sanitize_report is not None:
            document["sanitize"] = self.sanitize_report.to_dict()
        return document

    def render_text(self, path: Optional[str] = None) -> str:
        lines = [f.render(path) for f in self.findings]
        noun = "finding" if len(self.findings) == 1 else "findings"
        where = f" in {path}" if path else ""
        summary = f"{len(self.findings)} {noun}{where}"
        if self.engine != "subtransitive":
            summary += (
                f" (computed via standard CFA; LC' fallback:"
                f" {self.fallback_reason})"
            )
        lines.append(summary)
        if self.sanitize_report is not None:
            lines.append(self.sanitize_report.render())
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LintResult findings={len(self.findings)} "
            f"engine={self.engine}>"
        )
