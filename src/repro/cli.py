"""Command-line interface.

Usage (also available as ``python -m repro``)::

    repro analyze  prog.ml [more.ml ... | dir/] [--algorithm subtransitive]
                   [--json] [--metrics out.json] [--events out.jsonl]
                   [--sanitize] [--audit]
    repro batch    dir/ [more ...] [--jobs N] [--timeout S]
                   [--cache-dir PATH] [--lint] [--sanitize] [--audit]
                   [--format text|jsonl]
    repro lint     prog.ml [more.ml ... | dir/] [--format json|text]
                   [--severity info|warning|error] [--rules L001,T001]
                   [--explain]
                   [--sanitize] [--metrics out.json] [--events out.jsonl]
    repro query    prog.ml --label inc [--expr NID]
    repro effects  prog.ml
    repro klimited prog.ml -k 2
    repro called-once prog.ml
    repro rules    list | show NAME | check [--fixture NAME]
    repro typecheck prog.ml
    repro eval     prog.ml [--fuel N]
    repro dot      prog.ml [-o graph.dot]
    repro obs diff      baseline.json current.json [--threshold N=R]
                        [--noise-floor N=V] [--warn-only] [--json]
    repro obs flame     prog.ml [--algorithm A] [--lint] [-o out.folded]
    repro obs top       trace.jsonl [--metrics m.json] [--limit N]
                        | --live (--socket PATH | --port N)
                        [--refresh S] [--iterations N]
    repro obs waterfall trace.jsonl [--limit N]
    repro obs tail      [events.jsonl | --socket PATH | --port N]
                        [--grep TEXT] [--request ID] [--max-events N]
    repro obs req       ID (--events events.jsonl
                        | --socket PATH | --port N) [--json]
    repro daemon  start|stop|status (--socket PATH | --port N)
                  [--capacity N] [--events PATH] [--slow-ms MS]
                  [--json]
    repro client  VERB (--socket PATH | --port N) [--project P]
                  [--name N] [--source EXPR | --file PATH] [--label L]
                  [--request-id ID] [--format json|prometheus]

``analyze`` and ``lint`` accept any mix of files and directories
(directories contribute their ``*.lam`` files); multi-input runs go
through the :mod:`repro.serve` batch runner sequentially, while
``batch`` fans the same corpus out across worker processes with a
content-addressed result cache (see docs/SERVICE.md).

Every subcommand accepts ``-`` as the file to read the program from
stdin. Exit status is 0 on success, 1 on analysis/user errors (with a
diagnostic on stderr), 2 on usage errors (argparse). ``lint`` uses the
conventional linter codes instead: 0 clean, 1 findings, 2 on
errors *or sanitizer violations*. ``batch`` exits 0 only when no job
ended ``error`` or ``timeout``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional

import repro
from repro.apps import MANY, called_once, effects_analysis, k_limited_cfa
from repro.bench import Table
from repro.errors import ReproError
from repro.export import (
    envelope_provenance,
    graph_to_dot,
    result_to_dict,
    result_to_json,
)
from repro.lang import parse, pretty
from repro.lint import ALL_PASSES, run_lints
from repro.lint.findings import SCHEMA as LINT_SCHEMA
from repro.lint.sanitize import sanitize
from repro.lint.findings import SEVERITIES
from repro.obs import (
    EventLog,
    MetricsRegistry,
    collect_metrics,
    metrics_to_json,
    validate_metrics,
)
from repro.types import bounded_type_report


def _read_program(path: str):
    if path == "-":
        source = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    return parse(source)


def _expand_cli_inputs(paths: List[str]) -> List[str]:
    """Directories contribute their ``*.lam`` members; ``-`` (stdin)
    and missing paths pass through unchanged so each subcommand keeps
    its own error reporting. Discovery itself — ordering, symlink
    dedup — is :func:`repro.serve.jobs.expand_inputs`, the same
    routine the batch service uses, so every entry point agrees on
    what a corpus is."""
    from repro.serve.jobs import expand_inputs

    return expand_inputs(paths, allow_missing=True, stdin_token="-")


#: Algorithms whose drivers accept ``registry``/``events`` plumbing
#: and whose results carry LC' statistics for the metrics document
#: (and an LC' graph for ``obs flame --lint``).
_INSTRUMENTED_ALGORITHMS = ("subtransitive", "hybrid", "polyvariant")


# -- shared output sinks ------------------------------------------------------
#
# The --metrics/--events plumbing is identical across subcommands; a
# single pair of helpers keeps the validate/write/announce sequence
# (and its failure surface) in one place.


def _open_events(args) -> Optional[EventLog]:
    """An event log streaming this run's engine events whole (never
    rotated) to ``--events PATH``, or None when not asked."""
    path = getattr(args, "events", None)
    return EventLog(sink_path=path, sink_bytes=None) if path else None


def _close_events(log: Optional[EventLog], path: Optional[str]) -> None:
    """Write out and close an event log and announce it on stderr."""
    if log is None:
        return
    log.close()
    print(f"wrote trace to {path} ({log.emitted} events)", file=sys.stderr)


def _write_metrics(path: str, document) -> None:
    """Validate and write one ``repro.metrics/1`` document."""
    document = validate_metrics(document)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(metrics_to_json(document) + "\n")
    print(f"wrote metrics to {path}", file=sys.stderr)


def _sanitize_result(result, path: str) -> int:
    """Run the graph sanitizer against an analysis result; returns
    the exit status contribution (0 clean, 1 otherwise)."""
    from repro.core import subtransitive_graph_of

    sub = subtransitive_graph_of(result)
    if sub is None:
        print(
            f"{path}: --sanitize requires a subtransitive graph "
            "(this algorithm, or the hybrid fallback, has none)",
            file=sys.stderr,
        )
        return 1
    report = sanitize(sub)
    print(report.render(), file=sys.stderr)
    return 0 if report.ok else 1


def _audit_class(section) -> str:
    """A linearity-audit section's ``P_k`` verdict: ``bounded``,
    ``unbounded`` (a type tree over the threshold) or ``untypeable``."""
    if section["bounded"]:
        return "bounded"
    return "unbounded" if section["typeable"] else "untypeable"


def _audit_verdict(section) -> str:
    """One-line human verdict for a linearity-audit section."""
    if section["forecast"] is not None:
        verdict = f"LC' fallback forecast ({section['forecast']})"
    elif section["typeable"]:
        verdict = (
            f"{_audit_class(section)} (max type size "
            f"{section['max_type_size']}, predicted "
            f"{section['predicted_nodes']} nodes within budget "
            f"{section['node_budget']})"
        )
    else:
        verdict = "untypeable (outside every P_k)"
    actual = section.get("actual")
    if actual is not None:
        verdict += (
            f"; actual {actual['nodes']} nodes / "
            f"{actual['edges']} edges"
        )
    return verdict


def _render_envelope_table(envelope) -> str:
    """The analyze call-graph table, rebuilt from a ``repro.result/1``
    envelope (what multi-file runs get back from the batch runner)."""
    table = Table(["site", "source", "may call"])
    call_graph = envelope["call_graph"]
    for nid in sorted(call_graph, key=int):
        entry = call_graph[nid]
        table.add_row(
            nid, entry["source"], ", ".join(entry["callees"]) or "-"
        )
    return table.render()


def _cmd_analyze_many(args, paths: List[str]) -> int:
    """Sequential multi-file analyze via the batch runner."""
    from repro.serve import BatchRunner

    if args.metrics or args.events:
        print(
            "error: --metrics/--events require exactly one input file",
            file=sys.stderr,
        )
        return 1
    runner = BatchRunner(
        jobs=1,
        options={
            "algorithm": args.algorithm,
            "sanitize": bool(args.sanitize),
            "audit": bool(args.audit),
        },
    )
    batch = runner.run_paths(paths)
    if args.json:
        documents = [
            {"path": result.path, "status": result.status,
             "error": result.error, "result": result.envelope}
            for result in batch.results
        ]
        print(json.dumps(documents, indent=2, sort_keys=True))
        return batch.exit_code
    for result in batch.results:
        print(f"== {result.path} ==")
        if result.envelope is None:
            print(f"{result.status}: {result.error}", file=sys.stderr)
            continue
        print(_render_envelope_table(result.envelope))
        if result.status != "ok":
            print(
                f"status: {result.status}"
                + (
                    f" ({result.fallback_reason})"
                    if result.fallback_reason
                    else ""
                )
            )
        section = result.envelope.get("sanitize")
        if section is not None:
            verdict = "ok" if section["ok"] else (
                f"{len(section['violations'])} violation(s)"
            )
            print(f"sanitize: {verdict}", file=sys.stderr)
        section = result.envelope.get("audit")
        if section is not None:
            print(f"audit: {_audit_verdict(section)}", file=sys.stderr)
        print()
    return batch.exit_code


def _cmd_analyze(args) -> int:
    paths = _expand_cli_inputs(args.files)
    if not paths:
        print("error: no inputs found", file=sys.stderr)
        return 1
    if len(paths) > 1:
        return _cmd_analyze_many(args, paths)
    args.file = paths[0]
    program = _read_program(args.file)
    events = None
    kwargs = {}
    if args.metrics or args.events:
        if args.algorithm not in _INSTRUMENTED_ALGORITHMS:
            print(
                "error: --metrics/--events require one of: "
                + ", ".join(_INSTRUMENTED_ALGORITHMS),
                file=sys.stderr,
            )
            return 1
        events = _open_events(args)
        if events is not None:
            kwargs["events"] = events
    status = 0
    try:
        cfa = repro.analyze(program, algorithm=args.algorithm, **kwargs)
        audit = None
        if args.audit:
            from repro.flow.audit import audit_section

            audit = audit_section(program, cfa)
        if args.json:
            if audit is not None:
                document = result_to_dict(cfa)
                document["audit"] = audit
                print(json.dumps(document, indent=2, sort_keys=True))
            else:
                print(result_to_json(cfa))
        else:
            table = Table(["site", "source", "may call"])
            for site in program.applications:
                table.add_row(
                    site.nid,
                    pretty(site, show_labels=False),
                    ", ".join(sorted(cfa.may_call(site))) or "-",
                )
            print(table.render())
            stats = getattr(cfa, "stats", None)
            if stats is not None:
                print(
                    f"\ngraph: {stats.build_nodes} build + "
                    f"{stats.close_nodes} close nodes, "
                    f"{stats.total_edges} edges"
                )
            if audit is not None:
                print(f"audit: {_audit_verdict(audit)}", file=sys.stderr)
        if args.sanitize:
            status = _sanitize_result(cfa, args.file)
        if args.metrics:
            # Collected after the queries above so the document's
            # query section reflects the work this invocation did.
            _write_metrics(args.metrics, collect_metrics(cfa))
    finally:
        _close_events(events, args.events)
    return status


def _cmd_batch(args) -> int:
    from repro.serve import BatchRunner, expand_inputs
    from repro.serve.protocol import to_jsonl

    paths = expand_inputs(args.paths)
    if not paths:
        print("error: no *.lam inputs found", file=sys.stderr)
        return 1
    runner = BatchRunner(
        jobs=args.jobs,
        timeout=args.timeout,
        options={
            "algorithm": args.algorithm,
            "lint": bool(args.lint),
            "sanitize": bool(args.sanitize),
            "audit": bool(args.audit),
        },
        cache_dir=args.cache_dir,
        cache_capacity=args.cache_size,
    )
    batch = runner.run_paths(paths)
    if args.format == "jsonl":
        print(to_jsonl(batch.records(include_envelopes=args.envelopes)))
        return batch.exit_code
    table = Table(
        ["job", "path", "status", "cache", "seconds", "detail"]
    )
    for result in batch.results:
        detail = result.fallback_reason or result.error or ""

        def append_detail(text: str) -> str:
            return f"{detail + '; ' if detail else ''}{text}"

        envelope = result.envelope or {}
        lint_section = envelope.get("lint")
        if lint_section is not None:
            findings = len(lint_section["findings"])
            noun = "finding" if findings == 1 else "findings"
            detail = append_detail(f"{findings} lint {noun}")
        sanitize_section = envelope.get("sanitize")
        if sanitize_section is not None:
            detail = append_detail(
                "sanitize ok"
                if sanitize_section["ok"]
                else (
                    f"{len(sanitize_section['violations'])} sanitize "
                    "violation(s)"
                )
            )
        audit_section = envelope.get("audit")
        if audit_section is not None:
            detail = append_detail(
                f"audit {_audit_class(audit_section)}"
                if audit_section["forecast"] is None
                else f"audit forecast: {audit_section['forecast']}"
            )
        table.add_row(
            result.jid,
            result.path or "<source>",
            result.status,
            result.cache,
            f"{result.seconds:.3f}",
            detail,
        )
    print(table.render())
    counts = batch.counts
    summary = ", ".join(
        f"{count} {status}" for status, count in counts.items() if count
    )
    stats = runner.cache.stats()
    lookups = stats["hits"] + stats["misses"]
    rate = stats["hits"] / lookups if lookups else 0.0
    print(
        f"\n{len(batch.results)} job(s) in {batch.seconds:.3f}s "
        f"({args.jobs} worker(s)): {summary}"
    )
    print(
        f"cache: {stats['hits']} hit(s), {stats['misses']} miss(es), "
        f"{stats['evictions']} eviction(s) — {rate:.0%} hit rate",
        file=sys.stderr,
    )
    return batch.exit_code


def _print_derivations(result) -> None:
    """Text-mode ``--explain``: each explained finding's derivation
    chain, derived fact first, ground premises on the right."""
    for finding in result.findings:
        if not finding.derivation:
            continue
        print(f"  derivation of {finding.rule} at nid {finding.nid}:")
        for step in finding.derivation:
            premises = ", ".join(step["premises"])
            tail = f" <- {premises}" if premises else ""
            print(f"    {step['fact']}{tail}   [{step['rule']}]")


def _cmd_lint(args) -> int:
    from repro.core.hybrid import analyze_hybrid
    from repro.core.lc import build_subtransitive_graph

    args.files = _expand_cli_inputs(args.files)
    if not args.files:
        if args.format == "json":
            # An empty corpus is not an error for machine consumers:
            # emit a valid empty envelope so downstream parsers always
            # get the schema they asked for.
            envelope = {
                "schema": LINT_SCHEMA,
                "engine": envelope_provenance(
                    "subtransitive",
                    driver=(
                        "lc"
                        if args.algorithm == "subtransitive"
                        else "hybrid"
                    ),
                    fallback_reason=None,
                ),
                "files": [],
                "errors": [],
                "summary": {
                    "files": 0,
                    "findings": 0,
                    "by_rule": {},
                    "exit_code": 0,
                },
            }
            print(json.dumps(envelope, indent=2, sort_keys=True))
            return 0
        print("error: no inputs found", file=sys.stderr)
        return 2
    if args.metrics and len(args.files) != 1:
        print(
            "error: --metrics requires exactly one input file",
            file=sys.stderr,
        )
        return 2
    if args.events and len(args.files) != 1:
        print(
            "error: --events requires exactly one input file",
            file=sys.stderr,
        )
        return 2
    rules = None
    if args.rules:
        rules = [code.strip() for code in args.rules.split(",") if code.strip()]
        known = {cls.code for cls in ALL_PASSES}
        unknown = sorted(set(rules) - known)
        if unknown:
            print(
                f"error: unknown rule code(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})",
                file=sys.stderr,
            )
            return 2
    exit_code = 0
    file_documents = []
    errors = []
    engines = set()
    fallback_reasons = []
    totals = {"findings": 0, "by_rule": {}}
    for path in args.files:
        events = _open_events(args)
        try:
            try:
                program = _read_program(path)
                registry = MetricsRegistry()
                if args.algorithm == "subtransitive":
                    analysis = build_subtransitive_graph(
                        program, registry=registry, events=events
                    )
                else:
                    analysis = analyze_hybrid(
                        program, registry=registry, events=events
                    )
                result = run_lints(
                    program, analysis, registry=registry, events=events,
                    explain=args.explain,
                )
                if args.sanitize:
                    from repro.core import subtransitive_graph_of

                    sub = subtransitive_graph_of(analysis)
                    if sub is None:
                        print(
                            f"{path}: sanitize skipped (LC' fell back "
                            "to standard CFA)",
                            file=sys.stderr,
                        )
                    else:
                        report = sanitize(sub, registry=registry)
                        result.sanitize_report = report
                        if not report.ok:
                            exit_code = max(exit_code, 2)
                result = result.filtered(
                    min_severity=args.severity, rules=rules
                )
                engines.add(result.engine)
                if result.fallback_reason is not None:
                    fallback_reasons.append(result.fallback_reason)
                if result.findings:
                    exit_code = max(exit_code, 1)
                totals["findings"] += len(result.findings)
                for finding in result.findings:
                    totals["by_rule"][finding.rule] = (
                        totals["by_rule"].get(finding.rule, 0) + 1
                    )
                if args.format == "text":
                    print(result.render_text(path))
                    if args.explain:
                        _print_derivations(result)
                else:
                    file_documents.append(result.to_dict(path))
                if args.metrics:
                    _write_metrics(
                        args.metrics, collect_metrics(analysis)
                    )
            finally:
                _close_events(events, args.events)
        except BrokenPipeError:
            raise
        except (ReproError, OSError) as error:
            print(f"{path}: error: {error}", file=sys.stderr)
            errors.append({"path": path, "error": str(error)})
            exit_code = 2
    if args.format == "json":
        # The same three-key engine-provenance section repro.result/1
        # documents carry; "mixed" means the hybrid driver fell back
        # on some inputs but not others.
        if not engines or engines == {"subtransitive"}:
            engine_name = "subtransitive"
        elif engines == {"standard"}:
            engine_name = "standard"
        else:
            engine_name = "mixed"
        envelope = {
            "schema": LINT_SCHEMA,
            "engine": envelope_provenance(
                engine_name,
                driver=(
                    "lc"
                    if args.algorithm == "subtransitive"
                    else "hybrid"
                ),
                fallback_reason=(
                    fallback_reasons[0] if fallback_reasons else None
                ),
            ),
            "files": file_documents,
            "errors": errors,
            "summary": {
                "files": len(args.files),
                "findings": totals["findings"],
                "by_rule": totals["by_rule"],
                "exit_code": exit_code,
            },
        }
        print(json.dumps(envelope, indent=2, sort_keys=True))
    return exit_code


def _cmd_query(args) -> int:
    program = _read_program(args.file)
    if args.expr is not None and not 0 <= args.expr < program.size:
        raise ReproError(
            f"--expr {args.expr}: no such expression (this program's "
            f"nids are 0..{program.size - 1})"
        )
    cfa = repro.analyze(program, algorithm=args.algorithm)
    status = 0
    if args.sanitize:
        status = _sanitize_result(cfa, args.file)
    if args.expr is not None:
        expr = program.node(args.expr)
        if args.label:
            answer = cfa.is_label_in(args.label, expr)
            print("yes" if answer else "no")
        else:
            print(", ".join(sorted(cfa.labels_of(expr))) or "-")
        return status
    if args.label:
        for expr in cfa.expressions_with_label(args.label):
            print(f"{expr.nid}\t{pretty(expr, show_labels=False)}")
        return status
    print("query needs --label and/or --expr", file=sys.stderr)
    return 1


def _cmd_effects(args) -> int:
    from repro.core.lc import build_subtransitive_graph

    program = _read_program(args.file)
    sub = build_subtransitive_graph(program)
    effects = effects_analysis(program, sub=sub)
    table = Table(["site", "source", "verdict"])
    for site in program.applications:
        verdict = (
            "effectful" if effects.is_effectful(site) else "pure"
        )
        table.add_row(
            site.nid, pretty(site, show_labels=False), verdict
        )
    print(table.render())
    if args.sanitize:
        return _sanitize_result(sub, args.file)
    return 0


def _cmd_klimited(args) -> int:
    from repro.core.lc import build_subtransitive_graph

    program = _read_program(args.file)
    sub = build_subtransitive_graph(program)
    klim = k_limited_cfa(program, k=args.k, sub=sub)
    table = Table(["site", "source", f"callees (k={args.k})"])
    for site in program.applications:
        value = klim.may_call(site)
        rendered = "many" if value is MANY else (
            ", ".join(sorted(value)) or "-"
        )
        table.add_row(site.nid, pretty(site, show_labels=False), rendered)
    print(table.render())
    if args.sanitize:
        return _sanitize_result(sub, args.file)
    return 0


def _cmd_called_once(args) -> int:
    from repro.core.lc import build_subtransitive_graph

    program = _read_program(args.file)
    sub = build_subtransitive_graph(program)
    result = called_once(program, sub=sub)
    table = Table(["label", "verdict", "unique site"])
    for lam in program.abstractions:
        verdict = result.classify(lam.label)
        site = result.unique_site(lam.label)
        table.add_row(
            lam.label,
            verdict,
            pretty(site, show_labels=False) if site else "-",
        )
    print(table.render())
    if args.sanitize:
        return _sanitize_result(sub, args.file)
    return 0


def _cmd_rules(args) -> int:
    from repro.rules import (
        GRAPH_SCHEMA,
        RuleCheckError,
        SHIPPED_PROGRAMS,
        check_programs,
        shipped_fingerprint,
    )
    from repro.rules.fixtures import FIXTURES

    if args.rules_command == "list":
        table = Table(["program", "rules", "outputs"])
        for program in SHIPPED_PROGRAMS:
            table.add_row(
                program.name,
                len(program.rules),
                ", ".join(rel.name for rel in program.outputs),
            )
        print(table.render())
        print(f"\nfingerprint: {shipped_fingerprint()}")
        return 0

    if args.rules_command == "show":
        program = next(
            (p for p in SHIPPED_PROGRAMS if p.name == args.name), None
        )
        if program is None:
            known = ", ".join(p.name for p in SHIPPED_PROGRAMS)
            print(
                f"error: unknown rule program {args.name!r} "
                f"(known: {known})",
                file=sys.stderr,
            )
            return 2
        print(program.render())
        checked = check_programs([program], schema=GRAPH_SCHEMA)
        print()
        print(checked.render_report())
        return 0

    # rules check [--fixture NAME]
    if args.fixture:
        builder = FIXTURES.get(args.fixture)
        if builder is None:
            print(
                f"error: unknown fixture {args.fixture!r} "
                f"(known: {', '.join(sorted(FIXTURES))})",
                file=sys.stderr,
            )
            return 2
        programs = builder()
    else:
        programs = list(SHIPPED_PROGRAMS)
    try:
        checked = check_programs(programs, schema=GRAPH_SCHEMA)
    except RuleCheckError as error:
        print(error, file=sys.stderr)
        return 2
    names = ", ".join(p.name for p in programs)
    print(
        f"ok: {len(checked.rules)} rule(s) across {names} — "
        "stratified, range-restricted, linear"
    )
    return 0


def _cmd_typecheck(args) -> int:
    program = _read_program(args.file)
    report = bounded_type_report(program)
    print(
        f"typeable: yes\n"
        f"syntax nodes : {report.node_count}\n"
        f"max type size: {report.max_size} "
        f"(program is in P_{report.max_size})\n"
        f"avg type size: {report.avg_size:.2f}\n"
        f"max order    : {report.max_order}\n"
        f"max arity    : {report.max_arity}"
    )
    return 0


def _cmd_eval(args) -> int:
    program = _read_program(args.file)
    result = repro.evaluate(program, fuel=args.fuel)
    for line in result.output:
        print(line)
    from repro.lang.eval import render_value

    print(f"=> {render_value(result.value)}")
    return 0


def _parse_overrides(pairs, flag: str):
    """Parse repeated ``NAME=VALUE`` options into a float-valued dict."""
    overrides = {}
    for pair in pairs or ():
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise ReproError(
                f"{flag} expects NAME=VALUE, got {pair!r}"
            )
        try:
            overrides[name] = float(value)
        except ValueError:
            raise ReproError(
                f"{flag} {name}: expected a number, got {value!r}"
            ) from None
    return overrides


def _load_json(path: str, validate):
    """One JSON document, checked by ``validate``; a malformed file is
    a :class:`ReproError` naming it."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        validate(document)
    except ValueError as error:
        raise ReproError(f"{path}: {error}") from None
    return document


def _load_events(path: str):
    """The records of one events file; a malformed file is a
    :class:`ReproError` naming it and the line."""
    from repro.obs import read_event_log

    try:
        return read_event_log(path)
    except ValueError as error:
        raise ReproError(f"{path}: {error}") from None


def _cmd_obs_diff(args) -> int:
    from repro.obs import diff_documents, diff_exit_code, render_diff
    from repro.obs.baseline import extract_metrics, validate_diff

    report = diff_documents(
        _load_json(args.baseline, extract_metrics),
        _load_json(args.current, extract_metrics),
        thresholds=_parse_overrides(args.threshold, "--threshold"),
        noise_floors=_parse_overrides(args.noise_floor, "--noise-floor"),
    )
    validate_diff(report)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_diff(report, limit=args.limit))
    return diff_exit_code(report, warn_only=args.warn_only)


def _cmd_obs_flame(args) -> int:
    from repro.obs import SpanProfiler, bind_request, validate_folded

    if args.lint and args.algorithm not in _INSTRUMENTED_ALGORITHMS:
        raise ReproError(
            "--lint requires one of: " + ", ".join(_INSTRUMENTED_ALGORITHMS)
        )
    profiler = SpanProfiler()
    with bind_request(profiler=profiler):
        program = _read_program(args.file)
        analysis = repro.analyze(program, algorithm=args.algorithm)
        if args.lint:
            run_lints(program, analysis)
    lines = profiler.folded()
    validate_folded(lines)
    if args.tree:
        print(profiler.render(), file=sys.stderr)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + ("\n" if lines else ""))
        print(
            f"wrote {len(lines)} folded stack(s) to {args.output}",
            file=sys.stderr,
        )
    else:
        for line in lines:
            print(line)
    return 0


def _cmd_obs_top(args) -> int:
    from repro.obs.tracetools import provenance_check, render_top

    if args.live:
        return _obs_top_live(args)
    if args.trace is None:
        raise ReproError(
            "pass a trace/event-log file, or --live with a daemon "
            "endpoint (--socket/--port)"
        )
    events = _load_events(args.trace)
    metrics = (
        _load_json(args.metrics, validate_metrics) if args.metrics else None
    )
    print(render_top(events, metrics=metrics, limit=args.limit))
    if metrics is not None:
        return 0 if provenance_check(events, metrics)["ok"] else 1
    return 0


def _obs_top_live(args) -> int:
    """``repro obs top --live``: scrape ``telemetry`` and render the
    per-verb latency / per-project hit-rate dashboard."""
    import time

    from repro.daemon import DaemonClient
    from repro.obs import render_live_top

    endpoint = _daemon_endpoint(args)
    iterations = max(1, args.iterations)
    for iteration in range(iterations):
        with DaemonClient(**endpoint) as client:
            document = client.telemetry()
        if iteration:
            print()
        print(render_live_top(document, limit=args.limit), flush=True)
        if iteration + 1 < iterations:
            time.sleep(args.refresh)
    return 0


def _cmd_obs_waterfall(args) -> int:
    from repro.obs.tracetools import render_waterfall

    print(render_waterfall(_load_events(args.trace), limit=args.limit))
    return 0


def _optional_endpoint(args) -> Optional[dict]:
    """Endpoint kwargs when --socket/--port was given, else None."""
    if (
        getattr(args, "socket", None) is None
        and getattr(args, "port", None) is None
    ):
        return None
    return _daemon_endpoint(args)


def _cmd_obs_tail(args) -> int:
    from repro.obs.live import filter_events

    endpoint = _optional_endpoint(args)
    if (args.source is None) == (endpoint is None):
        raise ReproError(
            "pass an event-log file OR a daemon endpoint "
            "(--socket/--port), not both"
        )
    if args.source is not None:
        events = filter_events(
            _load_events(args.source),
            grep=args.grep,
            request_id=args.request,
        )
        if args.max_events is not None:
            events = events[-args.max_events:]
        for event in events:
            print(json.dumps(event, sort_keys=True))
        return 0
    # Live follow over the daemon socket. --grep filters server-side;
    # the request filter is client-side (the protocol's ``watch``
    # selects projects, not requests).
    from repro.daemon import DaemonClient

    printed = 0
    with DaemonClient(**endpoint) as client:
        for event in client.subscribe(grep=args.grep):
            if (
                args.request is not None
                and event.get("request_id") != args.request
            ):
                continue
            print(json.dumps(event, sort_keys=True), flush=True)
            printed += 1
            if args.max_events is not None and printed >= args.max_events:
                break
    return 0


def _cmd_obs_req(args) -> int:
    from repro.obs import render_request, request_chain

    endpoint = _optional_endpoint(args)
    if (args.events is None) == (endpoint is None):
        raise ReproError(
            "pass --events FILE or a daemon endpoint "
            "(--socket/--port), not both"
        )
    if args.events is not None:
        events = _load_events(args.events)
    else:
        from repro.daemon import DaemonClient

        with DaemonClient(**endpoint) as client:
            events = client.telemetry()["events"]
    report = request_chain(events, args.request_id)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_request(report))
    return 0 if (report["connected"] and report["ordered"]) else 1


def _cmd_dot(args) -> int:
    program = _read_program(args.file)
    cfa = repro.analyze(program)
    status = 0
    if args.sanitize:
        status = _sanitize_result(cfa, args.file)
    dot = graph_to_dot(cfa.sub)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(dot + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(dot)
    return status


def _daemon_endpoint(args) -> dict:
    """Socket/port keyword arguments for the daemon server/client."""
    if (args.socket is None) == (args.port is None):
        raise ReproError("exactly one of --socket / --port is required")
    if args.socket is not None:
        return {"socket_path": args.socket}
    return {"host": args.host, "port": args.port}


def _cmd_daemon(args) -> int:
    import asyncio

    from repro.daemon import DaemonClient
    from repro.daemon.server import run_daemon

    endpoint = _daemon_endpoint(args)
    if args.action == "start":
        # Foreground; callers that want a background daemon shell it
        # out (`repro daemon start --socket S &`).
        asyncio.run(
            run_daemon(
                capacity=args.capacity,
                events_path=args.events,
                slow_threshold_s=args.slow_ms / 1000.0,
                **endpoint,
            )
        )
        return 0
    with DaemonClient(**endpoint) as client:
        if args.action == "stop":
            client.shutdown()
            print("daemon stopping", file=sys.stderr)
            return 0
        status = client.status()  # args.action == "status"
        if args.json:
            print(json.dumps(status, indent=2, sort_keys=True))
            return 0
        projects = status["projects"]
        print(f"pid: {status['pid']}")
        if "uptime_s" in status:
            print(f"uptime: {status['uptime_s']:.1f}s")
        events = status.get("events")
        if events:
            print(
                f"events: {events['emitted']} emitted, "
                f"{events['buffered']} buffered, "
                f"{events['dropped']} dropped"
            )
        warm = projects["warm"]
        print(f"warm projects ({len(warm)}/{projects['capacity']}):")
        for entry in warm:
            fallbacks = sum(entry["fallbacks"].values())
            hits = entry.get("hits") or {}
            print(
                f"  {entry['project']}: {entry['definitions']} defs, "
                f"version {entry['version']}, {fallbacks} fallback(s), "
                f"hits warm={hits.get('warm', 0)} "
                f"cold={hits.get('cold', 0)}"
            )
        if projects["cold"]:
            print("cold projects: " + ", ".join(projects["cold"]))
        counters = status["metrics"].get("counters", {})
        for key in sorted(counters):
            if key.startswith("daemon."):
                print(f"  {key}: {counters[key]}")
    return 0


def _cmd_client(args) -> int:
    from repro.daemon import DaemonClient

    source = getattr(args, "source", None)
    if getattr(args, "file", None) is not None:
        if source is not None:
            raise ReproError("pass --source or --file, not both")
        if args.file == "-":
            source = sys.stdin.read()
        else:
            with open(args.file, "r", encoding="utf-8") as handle:
                source = handle.read()
    fields = {}
    for key, value in (
        ("project", getattr(args, "project", None)),
        ("name", getattr(args, "name", None)),
        ("source", source),
        ("label", getattr(args, "label", None)),
        ("request_id", getattr(args, "request_id", None)),
    ):
        if value is not None:
            fields[key] = value
    fmt = getattr(args, "format", None)
    if fmt is not None:
        if args.verb != "telemetry":
            raise ReproError("--format only applies to the telemetry verb")
        fields["fmt"] = fmt
    with DaemonClient(**_daemon_endpoint(args)) as client:
        result = client.request(args.verb, **fields)
        request_id = client.last_request_id
    # The id goes to stderr so stdout stays byte-identical to the
    # non-daemon render (the warm/cold CI check compares stdout).
    print(f"request_id: {request_id}", file=sys.stderr)
    if args.verb == "analyze":
        # Byte-identical to `repro analyze FILE --json` of the
        # project's rendered source — the warm/cold CI check relies
        # on exact equality here.
        print(json.dumps(result["envelope"], indent=2, sort_keys=True))
    elif args.verb == "source":
        sys.stdout.write(result["source"])
    elif args.verb == "telemetry" and result.get("format") == "prometheus":
        sys.stdout.write(result["text"])
    else:
        print(json.dumps(result, indent=2, sort_keys=True))
    if args.verb == "sanitize" and not result["ok"]:
        return 2
    return 0


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_seconds(text: str) -> float:
    """argparse type for a time budget: a finite number above 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number of seconds, got {text!r}"
        ) from None
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {text}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Linear-time subtransitive control-flow analysis "
            "(Heintze & McAllester, PLDI 1997)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("file", help="mini-ML source file, or - for stdin")

    def add_sanitize(p):
        p.add_argument(
            "--sanitize",
            action="store_true",
            help="validate LC' graph well-formedness after the run",
        )

    def add_audit(p):
        p.add_argument(
            "--audit",
            action="store_true",
            help="attach the bounded-type linearity audit (predicted "
            "vs. actual LC' budget) to each result",
        )

    p = sub.add_parser("analyze", help="print the call graph")
    p.add_argument(
        "files",
        nargs="+",
        help="mini-ML source files, directories of *.lam files, "
        "or - for stdin (multi-input runs go through the batch "
        "runner sequentially)",
    )
    p.add_argument(
        "--algorithm",
        default="subtransitive",
        choices=list(repro._ALGORITHMS),
    )
    p.add_argument("--json", action="store_true", help="JSON output")
    p.add_argument(
        "--metrics",
        metavar="PATH",
        help="write a repro.metrics/1 JSON document to PATH "
        "(single input only)",
    )
    p.add_argument(
        "--events",
        metavar="PATH",
        help="write the engine's repro.events/1 trace to PATH as JSONL "
        "(single input only)",
    )
    add_sanitize(p)
    add_audit(p)
    p.set_defaults(run=_cmd_analyze)

    p = sub.add_parser(
        "batch",
        help="analyse a corpus in parallel with a content-addressed "
        "result cache",
    )
    p.add_argument(
        "paths",
        nargs="+",
        help="source files and/or directories of *.lam files",
    )
    p.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="worker processes (default: 1 = sequential, in-process)",
    )
    p.add_argument(
        "--timeout",
        type=_positive_seconds,
        default=None,
        metavar="S",
        help="per-job wall-clock budget in seconds (default: none); "
        "timed-out jobs are re-run once via the standard algorithm "
        "and tagged degraded",
    )
    p.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="directory for the on-disk result cache tier "
        "(default: memory-only)",
    )
    p.add_argument(
        "--cache-size",
        type=_positive_int,
        default=512,
        metavar="N",
        help="in-memory LRU capacity (default: %(default)s entries)",
    )
    p.add_argument(
        "--algorithm",
        default="hybrid",
        choices=["hybrid", "subtransitive", "standard"],
        help="analysis engine (default: hybrid — total on untypeable "
        "programs)",
    )
    p.add_argument(
        "--lint",
        action="store_true",
        help="run the lint passes (L/F/T series) per job",
    )
    add_sanitize(p)
    add_audit(p)
    p.add_argument(
        "--format",
        default="text",
        choices=["text", "jsonl"],
        help="text table (default) or the repro.batch/1 JSONL stream",
    )
    p.add_argument(
        "--envelopes",
        action="store_true",
        help="include full repro.result/1 envelopes in jsonl job "
        "records",
    )
    p.set_defaults(run=_cmd_batch)

    p = sub.add_parser(
        "lint",
        help="CFA-powered diagnostics (L/F series) and the T-series "
        "linearity auditor on the subtransitive graph",
    )
    p.add_argument(
        "files",
        nargs="*",
        help="mini-ML source files, directories of *.lam files, "
        "or - for stdin (an empty set is an error in text mode but "
        "a valid empty envelope with --format json)",
    )
    p.add_argument(
        "--format",
        default="text",
        choices=["text", "json"],
        help="output format (default: text)",
    )
    p.add_argument(
        "--severity",
        default="info",
        choices=list(SEVERITIES),
        help="minimum severity to report (default: info = all)",
    )
    p.add_argument(
        "--rules",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    p.add_argument(
        "--algorithm",
        default="hybrid",
        choices=["subtransitive", "hybrid"],
        help="hybrid (default) lints any program, falling back to "
        "standard CFA label sets when LC' is abandoned",
    )
    p.add_argument(
        "--metrics",
        metavar="PATH",
        help="write a repro.metrics/1 JSON document to PATH "
        "(single input file only)",
    )
    p.add_argument(
        "--events",
        metavar="PATH",
        help="write the engine's repro.events/1 trace to PATH as JSONL "
        "(single input file only)",
    )
    add_sanitize(p)
    p.add_argument(
        "--explain",
        action="store_true",
        help="attach each L/F finding's rule derivation (see "
        "docs/RULES.md)",
    )
    p.set_defaults(run=_cmd_lint)

    p = sub.add_parser("query", help="reachability queries")
    add_common(p)
    p.add_argument("--label", help="abstraction label")
    p.add_argument("--expr", type=int, help="expression nid")
    p.add_argument(
        "--algorithm",
        default="subtransitive",
        choices=list(repro._ALGORITHMS),
    )
    add_sanitize(p)
    p.set_defaults(run=_cmd_query)

    p = sub.add_parser("effects", help="Section 8 effects analysis")
    add_common(p)
    add_sanitize(p)
    p.set_defaults(run=_cmd_effects)

    p = sub.add_parser("klimited", help="Section 9 k-limited CFA")
    add_common(p)
    p.add_argument("-k", type=_positive_int, default=2)
    add_sanitize(p)
    p.set_defaults(run=_cmd_klimited)

    p = sub.add_parser("called-once", help="called-once analysis")
    add_common(p)
    add_sanitize(p)
    p.set_defaults(run=_cmd_called_once)

    p = sub.add_parser(
        "rules",
        help="the declarative rule layer: list, show and statically "
        "check rule programs",
    )
    rules_sub = p.add_subparsers(dest="rules_command", required=True)
    q = rules_sub.add_parser(
        "list", help="shipped rule programs and their fingerprint"
    )
    q.set_defaults(run=_cmd_rules)
    q = rules_sub.add_parser(
        "show",
        help="render one shipped program plus its strata and "
        "linearity report",
    )
    q.add_argument("name", help="program name (see 'repro rules list')")
    q.set_defaults(run=_cmd_rules)
    q = rules_sub.add_parser(
        "check",
        help="run the static checker; exit 2 with actionable errors "
        "on rejection",
    )
    q.add_argument(
        "--fixture",
        metavar="NAME",
        help="check a known-bad fixture from repro.rules.fixtures "
        "instead of the shipped programs",
    )
    q.set_defaults(run=_cmd_rules)

    p = sub.add_parser("typecheck", help="bounded-type report")
    add_common(p)
    p.set_defaults(run=_cmd_typecheck)

    p = sub.add_parser("eval", help="run the program")
    add_common(p)
    p.add_argument("--fuel", type=_positive_int, default=1_000_000)
    p.set_defaults(run=_cmd_eval)

    p = sub.add_parser("dot", help="export the graph as Graphviz DOT")
    add_common(p)
    p.add_argument("-o", "--output", help="write to a file")
    add_sanitize(p)
    p.set_defaults(run=_cmd_dot)

    def add_endpoint(p):
        p.add_argument(
            "--socket",
            metavar="PATH",
            help="Unix-domain socket path of the daemon",
        )
        p.add_argument(
            "--port", type=int, metavar="N", help="TCP port of the daemon"
        )
        p.add_argument(
            "--host",
            default="127.0.0.1",
            metavar="HOST",
            help="TCP host (with --port; default 127.0.0.1)",
        )

    p = sub.add_parser(
        "obs",
        help="performance observatory: baseline diffs, flamegraphs, "
        "trace analytics, live telemetry",
    )
    obs = p.add_subparsers(dest="obs_command", required=True)

    q = obs.add_parser(
        "diff",
        help="compare two metrics documents against regression "
        "thresholds (exit 0 ok / 1 warn / 2 regression)",
    )
    q.add_argument(
        "baseline",
        help="baseline repro.metrics/1 or repro.bench-metrics/1 file",
    )
    q.add_argument("current", help="current metrics file to judge")
    q.add_argument(
        "--threshold",
        action="append",
        metavar="NAME=RATIO",
        help="override the ratio threshold for one metric "
        "(repeatable; defaults: 1.5 seconds-metrics, 1.1 counts)",
    )
    q.add_argument(
        "--noise-floor",
        action="append",
        metavar="NAME=VALUE",
        help="override the absolute noise floor for one metric "
        "(repeatable; defaults: 0.005s seconds-metrics, 16 counts)",
    )
    q.add_argument(
        "--warn-only",
        action="store_true",
        help="cap the exit code at 1 (for smoke-mode CI gates)",
    )
    q.add_argument("--json", action="store_true", help="print the "
                   "repro.obs-diff/1 report instead of the table")
    q.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="show only the N most severe rows (default: all)",
    )
    q.set_defaults(run=_cmd_obs_diff)

    q = obs.add_parser(
        "flame",
        help="profile one analysis and emit folded stacks "
        "(flamegraph.pl / speedscope compatible)",
    )
    q.add_argument("file", help="mini-ML source file, or - for stdin")
    q.add_argument(
        "--algorithm",
        default="subtransitive",
        choices=list(repro._ALGORITHMS),
    )
    q.add_argument(
        "--lint",
        action="store_true",
        help="also run (and profile) the lint passes",
    )
    q.add_argument(
        "--tree",
        action="store_true",
        help="print the span tree to stderr as well",
    )
    q.add_argument("-o", "--output", help="write folded stacks to a file")
    q.set_defaults(run=_cmd_obs_flame)

    q = obs.add_parser(
        "top",
        help="rule/node hotspot tables from a trace.jsonl or event-log "
        "stream (with --metrics: exit 1 on a provenance mismatch); "
        "--live scrapes a running daemon instead",
    )
    q.add_argument(
        "trace",
        nargs="?",
        help="events file written by analyze/lint --events or by the "
        "daemon (omit with --live)",
    )
    q.add_argument(
        "--metrics",
        metavar="PATH",
        help="repro.metrics/1 document from the same run, to "
        "cross-check CLOSE-* edge provenance",
    )
    q.add_argument("--limit", type=int, default=10, metavar="N")
    q.add_argument(
        "--live",
        action="store_true",
        help="scrape `telemetry` from a running daemon "
        "(--socket/--port) and render the per-verb latency / "
        "hit-rate dashboard",
    )
    add_endpoint(q)
    q.add_argument(
        "--refresh",
        type=float,
        default=2.0,
        metavar="S",
        help="seconds between --live refreshes (default 2)",
    )
    q.add_argument(
        "--iterations",
        type=int,
        default=1,
        metavar="N",
        help="number of --live refreshes (default 1: one scrape)",
    )
    q.set_defaults(run=_cmd_obs_top)

    q = obs.add_parser(
        "waterfall",
        help="demand-sweep waterfall from a trace.jsonl stream "
        "(request waterfall for event-log streams)",
    )
    q.add_argument(
        "trace", help="events file written by analyze/lint --events"
    )
    q.add_argument("--limit", type=int, default=20, metavar="N")
    q.set_defaults(run=_cmd_obs_waterfall)

    q = obs.add_parser(
        "tail",
        help="print repro.events/1 records as JSONL — from an "
        "event-log file, or live from a daemon (--socket/--port)",
    )
    q.add_argument(
        "source",
        nargs="?",
        help="event-log JSONL written by `repro daemon start "
        "--events` (omit to follow a live daemon)",
    )
    add_endpoint(q)
    q.add_argument(
        "--grep",
        metavar="TEXT",
        help="only events whose JSON rendering contains TEXT",
    )
    q.add_argument(
        "--request",
        metavar="ID",
        help="only events for this request id",
    )
    q.add_argument(
        "--max-events",
        type=int,
        metavar="N",
        help="stop after N events (file mode: the last N)",
    )
    q.set_defaults(run=_cmd_obs_tail)

    q = obs.add_parser(
        "req",
        help="reassemble one request's event chain (exit 0 iff the "
        "chain is connected and time-ordered)",
    )
    q.add_argument("request_id", help="request id to reassemble")
    q.add_argument(
        "--events",
        metavar="PATH",
        help="event-log JSONL file (omit to scrape telemetry from a "
        "daemon via --socket/--port)",
    )
    add_endpoint(q)
    q.add_argument(
        "--json",
        action="store_true",
        help="print the chain report as JSON",
    )
    q.set_defaults(run=_cmd_obs_req)

    p = sub.add_parser(
        "daemon",
        help="always-on incremental analysis daemon (repro.daemon/1)",
    )
    p.add_argument(
        "action",
        choices=["start", "stop", "status"],
        help="start runs the daemon in the foreground; stop/status "
        "talk to a running daemon",
    )
    add_endpoint(p)
    p.add_argument(
        "--capacity",
        type=_positive_int,
        default=8,
        metavar="N",
        help="warm project graphs kept resident (LRU; default 8)",
    )
    p.add_argument(
        "--events",
        metavar="PATH",
        help="mirror the request-correlated event log to a rotating "
        "JSONL sink (start only)",
    )
    p.add_argument(
        "--slow-ms",
        type=float,
        default=1000.0,
        metavar="MS",
        help="capture a span profile for requests slower than MS "
        "milliseconds (start only; default 1000)",
    )
    p.add_argument(
        "--json", action="store_true", help="JSON output (status only)"
    )
    p.set_defaults(run=_cmd_daemon)

    p = sub.add_parser(
        "client",
        help="send one repro.daemon/1 request to a running daemon",
    )
    p.add_argument(
        "verb",
        choices=[
            "define",
            "undefine",
            "query",
            "analyze",
            "lint",
            "sanitize",
            "source",
            "status",
            "telemetry",
        ],
        help="request verb (see docs/DAEMON.md)",
    )
    add_endpoint(p)
    p.add_argument("--project", metavar="NAME", help="project to address")
    p.add_argument(
        "--name", metavar="NAME", help="definition name (define/undefine/query)"
    )
    p.add_argument(
        "--source", metavar="EXPR", help="mini-ML expression (define)"
    )
    p.add_argument(
        "--file",
        metavar="PATH",
        help="read the define source from PATH (- for stdin)",
    )
    p.add_argument("--label", metavar="LABEL", help="query by label")
    p.add_argument(
        "--request-id",
        metavar="ID",
        help="use this request id instead of minting one (the id is "
        "echoed to stderr either way)",
    )
    p.add_argument(
        "--format",
        choices=["json", "prometheus"],
        help="telemetry output format (default json)",
    )
    p.set_defaults(run=_cmd_client)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output was piped into a consumer that closed early (head,
        # less, ...): exit quietly like other well-behaved CLIs.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
