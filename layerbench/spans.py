"""The traced run's span recorder and the layer map it installs.

The recorder wraps the public functions behind each layer of the
stack, from the benchmark's own files, so the traced run attributes
time and exact work without any span site inside the program. A
wrapper is installed at every module attribute a caller resolves the
function through (``from x import f`` copies are found by identity),
and methods are replaced on their class.

Each span adds its duration minus its children's to its layer's self
time, so layer self times never overlap and their sum is the traced
time covered by some layer. Spans are aggregated in memory and
written once, when the traced process ends. Counts are read from the
wrapped functions' public return values (statistics objects, reports,
registries), never from timings, so they repeat exactly.

Three layers are catch-alls: the batch worker's ``run_job`` and the
daemon's ``dispatch_line`` are outermost spans, so their self time
takes in whatever runs inside them that no narrower span covers, and
the daemon's transport time is what is left of a round trip once the
spans on both ends are taken out. Attribution leaves them out
(:data:`CATCH_ALL`), so work that no layer covers shows as
unattributed time instead of landing in one of them unseen.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
from typing import Callable, Dict, List, Optional

#: Layers the recorder times (self seconds), with their metric names.
LAYER_TIMES = {
    "lang.tokenize": "lang.tokenize_s",
    "lang.parse": "lang.parse_s",
    "lang.rename": "lang.rename_s",
    "types.infer": "types.infer_s",
    "core.build": "core.build_s",
    "core.close": "core.close_s",
    "graph.freeze": "graph.freeze_s",
    "queries": "queries.s",
    "export": "export.s",
    "flow": "flow.s",
    "lint": "lint.s",
    "cfa.standard": "cfa.standard_s",
    "serve.job": "serve.job_self_s",
    "delta.splice": "delta.splice_s",
    "delta.dred": "delta.dred_s",
    "delta.append": "delta.append_s",
    "delta.replay": "delta.replay_s",
    "daemon.dispatch": "daemon.dispatch_s",
    "daemon.protocol": "daemon.protocol_s",
    "events.flush": "events.flush_s",
}

#: Layers whose self time is a remainder (see the module docstring);
#: ``daemon.transport`` is computed by the runner, not recorded here.
CATCH_ALL = ("serve.job", "daemon.dispatch", "daemon.transport")

#: Exact counts, in report order.
COUNTS = [
    "lang.tokens",
    "lang.nodes",
    "types.infer_calls",
    "core.build_nodes",
    "core.build_edges",
    "core.close_nodes",
    "core.close_edges",
    "graph.freeze_calls",
    "queries.count",
    "queries.visited_nodes",
    "export.bytes",
    "flow.steps",
    "lint.findings",
    "hybrid.fallbacks",
    "delta.splice_n",
    "delta.dred_n",
    "delta.append_n",
    "delta.replay_n",
    "delta.retracted_edges",
    "delta.rederived_edges",
    "daemon.frame_bytes",
]

#: Verbs whose frames vary run to run (clock fields) or that only
#: drive the benchmark; their bytes are not counted.
UNCOUNTED_VERBS = frozenset({"status", "shutdown", "telemetry"})

#: A mutation report's ``mode`` -> (time layer, count).
_DELTA_PATHS = {
    "splice": ("delta.splice", "delta.splice_n"),
    "delta": ("delta.dred", "delta.dred_n"),
    "append": ("delta.append", "delta.append_n"),
    "replay": ("delta.replay", "delta.replay_n"),
}


class Recorder:
    """Per-layer self time, the time under outermost spans, and counts."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {name: 0.0 for name in LAYER_TIMES}
        self.counts: Dict[str, int] = {name: 0 for name in COUNTS}
        #: Time covered by spans that have no enclosing span.
        self.outermost_s = 0.0
        self._stack: List[List[float]] = []
        self._depth: Dict[str, int] = {name: 0 for name in LAYER_TIMES}

    def add(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    def snapshot(self) -> Dict[str, object]:
        return {
            "self_s": dict(self.self_s),
            "outermost_s": self.outermost_s,
            "counts": dict(self.counts),
        }

    def _open(self, layer: str):
        self._stack.append([0.0])
        self._depth[layer] += 1
        return time.perf_counter()

    def _close(self, layer: str, opened_as: str, start: float) -> None:
        elapsed = time.perf_counter() - start
        children = self._stack.pop()[0]
        self._depth[opened_as] -= 1
        self.self_s[layer] += elapsed - children
        if self._stack:
            self._stack[-1][0] += elapsed
        else:
            self.outermost_s += elapsed

    def span(
        self,
        fn: Callable,
        layer: str,
        after: Optional[Callable] = None,
        layer_of: Optional[Callable] = None,
        before: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` wrapped in a span of ``layer``.

        ``layer_of(result)`` renames the span from the return value
        (the delta engine reports which path a mutation took);
        ``before(args, kwargs)`` runs outside the span and its token
        reaches ``after(result, args, token)``, which also runs
        outside it.
        """
        recorder = self

        def finish(result, args, token, start):
            name = layer_of(result) if layer_of is not None else layer
            recorder._close(name, layer, start)
            if after is not None:
                after(result, args, token)

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                token = before(args, kwargs) if before is not None else None
                start = recorder._open(layer)
                try:
                    result = await fn(*args, **kwargs)
                except BaseException:
                    recorder._close(layer, layer, start)
                    raise
                finish(result, args, token, start)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            start = recorder._open(layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                recorder._close(layer, layer, start)
                raise
            finish(result, args, token, start)
            return result

        return wrapper

    def hook(self, fn: Callable, after: Callable) -> Callable:
        """``fn`` with a count reader and no span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(result, args, None)
            return result

        return wrapper


def _import_all() -> None:
    """Import every module of the package, so each ``from x import f``
    copy exists before the wrappers are installed."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        importlib.import_module(info.name)


def _replace_function(original: Callable, wrapper: Callable) -> int:
    """Point every loaded ``repro`` module attribute bound to
    ``original`` at ``wrapper``; returns how many were patched."""
    patched = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                patched += 1
    return patched


def install(recorder: Recorder) -> None:
    """Wrap every layer's public functions (see the module docstring)."""
    _import_all()
    from repro.core.lc import LCEngine
    from repro.core.queries import SubtransitiveCFA
    from repro.daemon import server as server_mod
    from repro.daemon.delta import ProjectAnalysis
    from repro.graph.csr import CSRDigraph
    from repro.graph.digraph import Digraph
    from repro.obs.events import EventLog

    add = recorder.add

    def functions(module_name: str, name: str, layer: str, **hooks) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, name)
        if _replace_function(original, recorder.span(original, layer, **hooks)) == 0:
            raise RuntimeError(f"nothing patched for {module_name}.{name}")

    def method(cls, name: str, layer: str, **hooks) -> None:
        setattr(cls, name, recorder.span(getattr(cls, name), layer, **hooks))

    # lang
    functions(
        "repro.lang.lexer", "tokenize", "lang.tokenize",
        after=lambda r, a, t: add("lang.tokens", len(r)),
    )
    functions(
        "repro.lang.parser", "parse", "lang.parse",
        after=lambda r, a, t: add("lang.nodes", r.size),
    )
    functions("repro.lang.parser", "parse_expr", "lang.parse")
    functions("repro.lang.rename", "alpha_rename", "lang.rename")

    # types: inference, plus the type-tree measure LC' derives its
    # depth cap from (a walk over inferred types).
    functions(
        "repro.types.infer", "infer_types", "types.infer",
        before=lambda a, k: add("types.infer_calls", 1),
    )
    functions("repro.types.measure", "max_type_depth", "types.infer")

    # core.lc: engine set-up counts as build. run() only reads the
    # finished graph's statistics.
    method(LCEngine, "__init__", "core.build")
    method(LCEngine, "build", "core.build")
    method(LCEngine, "close", "core.close")

    def lc_stats(result, args, token):
        stats = result.stats
        add("core.build_nodes", stats.build_nodes)
        add("core.build_edges", stats.build_edges)
        add("core.close_nodes", stats.close_nodes)
        add("core.close_edges", stats.close_edges)

    LCEngine.run = recorder.hook(LCEngine.run, lc_stats)

    # graph
    for cls in (Digraph, CSRDigraph):
        method(
            cls, "freeze", "graph.freeze",
            before=lambda a, k: add("graph.freeze_calls", 1),
        )

    # core.queries: counts are the CFA's own query accounting, read
    # around the outermost query call.
    def query_before(args, kwargs):
        if recorder._depth["queries"]:
            return None
        cfa = args[0]
        return cfa.query_count, cfa.query_visited_nodes

    def query_after(result, args, token):
        if token is not None:
            cfa = args[0]
            add("queries.count", cfa.query_count - token[0])
            add("queries.visited_nodes", cfa.query_visited_nodes - token[1])

    for name in (
        "tokens_at", "labels_of", "labels_of_var", "is_label_in",
        "may_call", "expressions_with_label", "all_label_sets",
        "call_graph", "reachable_nodes", "records_of", "constructors_of",
    ):
        method(
            SubtransitiveCFA, name, "queries",
            before=query_before, after=query_after,
        )

    # export
    functions("repro.export", "result_to_dict", "export")
    functions(
        "repro.export", "canonical_json", "export",
        after=lambda r, a, t: add("export.bytes", len(r)),
    )

    # flow: steps are the registry's flow.steps.* counters.
    def flow_registry(args, kwargs):
        registry = kwargs.get("registry", args[3] if len(args) > 3 else None)
        ctx = kwargs.get("ctx", args[1] if len(args) > 1 else None)
        if registry is None and ctx is not None:
            registry = ctx.registry
        return registry

    def steps_of(registry) -> int:
        return sum(
            value
            for name, value in registry.counters()
            if name.startswith("flow.steps.")
        )

    def flow_before(args, kwargs):
        registry = flow_registry(args, kwargs)
        return None if registry is None else (registry, steps_of(registry))

    def flow_after(result, args, token):
        if token is not None:
            add("flow.steps", steps_of(token[0]) - token[1])

    for name in ("run_fused", "run_flow"):
        functions(
            "repro.flow.framework", name, "flow",
            before=flow_before, after=flow_after,
        )

    # lint
    functions(
        "repro.lint.engine", "run_lints", "lint",
        after=lambda r, a, t: add("lint.findings", len(r.findings)),
    )

    # cfa (the hybrid's cubic fallback)
    functions("repro.cfa.standard", "analyze_standard", "cfa.standard")

    # serve
    def job_after(result, args, token):
        if result.get("fallback_reason"):
            add("hybrid.fallbacks", 1)

    functions("repro.serve.worker", "run_job", "serve.job", after=job_after)

    # daemon.delta: the report says which path the mutation took.
    def delta_after(report, args, token):
        add(_DELTA_PATHS[report["mode"]][1], 1)
        add("delta.retracted_edges", report["retracted_edges"])
        add("delta.rederived_edges", report["rederived_edges"])

    for name in ("define", "undefine"):
        method(
            ProjectAnalysis, name, "delta.dred",
            layer_of=lambda report: _DELTA_PATHS[report["mode"]][0],
            after=delta_after,
        )

    # daemon.server / daemon.protocol: request bytes off the line,
    # response bytes off the framing function. The protocol layer is
    # the JSON framing and record validation on both ends of the
    # socket (the client's half: install_client).
    def dispatch_after(response, args, token):
        if response.get("verb") not in UNCOUNTED_VERBS:
            add("daemon.frame_bytes", len(args[1]))

    method(
        server_mod.DaemonServer, "dispatch_line", "daemon.dispatch",
        after=dispatch_after,
    )

    def frame_after(frame, args, token):
        if args[0].get("verb") not in UNCOUNTED_VERBS:
            add("daemon.frame_bytes", len(frame))

    server_mod._dumps = recorder.span(
        server_mod._dumps, "daemon.protocol", after=frame_after
    )
    server_mod.json = FramingJson(recorder)
    functions("repro.daemon.protocol", "validate_daemon_record", "daemon.protocol")

    # obs.events
    method(EventLog, "flush", "events.flush")


class FramingJson:
    """A module's ``json`` whose ``dumps`` and ``loads`` run in spans
    of the protocol layer; everything else is the real module."""

    def __init__(self, recorder: Recorder) -> None:
        self.dumps = recorder.span(json.dumps, "daemon.protocol")
        self.loads = recorder.span(json.loads, "daemon.protocol")

    def __getattr__(self, name: str):
        return getattr(json, name)


def install_client(recorder: Recorder) -> Callable[[], None]:
    """Wrap the daemon client's half of the protocol layer (request
    records, JSON framing, validation) in this process; returns a
    function that puts the originals back."""
    from repro.daemon import client as client_mod
    from repro.daemon import protocol

    saved = [
        (client_mod, "json", client_mod.json),
        (protocol, "request_record", protocol.request_record),
        (protocol, "validate_daemon_record", protocol.validate_daemon_record),
    ]
    client_mod.json = FramingJson(recorder)
    for module, name, original in saved[1:]:
        setattr(module, name, recorder.span(original, "daemon.protocol"))

    def restore() -> None:
        for module, name, original in saved:
            setattr(module, name, original)

    return restore
