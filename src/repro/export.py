"""Exporting analysis artefacts: Graphviz DOT and JSON.

Tooling around an analysis needs two things the paper's prototype also
had informally: a way to *see* the subtransitive graph, and a way to
ship results to other tools.

* :func:`graph_to_dot` renders a subtransitive graph (or any analysed
  subset of it) as Graphviz DOT, with build and close edges
  distinguished and abstraction nodes highlighted;
* :func:`result_to_dict` / :func:`result_to_json` serialise any
  :class:`~repro.cfa.base.CFAResult`-compatible analysis into the
  versioned, **byte-stable** ``repro.result/1`` document (per-site
  call graph, per-label flow sets, label table, engine provenance)
  that downstream tools can consume without importing this library;
* :func:`result_fingerprint` hashes the canonical serialisation, which
  is what the :mod:`repro.serve` cache and its deep-equality tests key
  on — two runs over the same program with the same options must
  produce identical bytes.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Optional, Set

from repro.core.lc import SubtransitiveGraph
from repro.core.nodes import Node
from repro.lang.ast import Lam, Program
from repro.lang.printer import pretty


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def graph_to_dot(
    sub: SubtransitiveGraph,
    nodes: Optional[Iterable[Node]] = None,
    title: str = "subtransitive control-flow graph",
) -> str:
    """Render (a subset of) a subtransitive graph as Graphviz DOT.

    ``nodes`` restricts the rendering (e.g. to a reachable slice);
    by default the whole graph is emitted. Abstraction nodes are drawn
    as double circles, operator nodes as boxes, and everything else as
    ellipses. Edge provenance is styled: build edges are solid, edges
    first derived by a closure rule (``sub.close_edges``, recorded by
    the instrumented engine) are dashed and grey.
    """
    selected: Optional[Set[Node]] = set(nodes) if nodes is not None else None

    def included(node: Node) -> bool:
        return selected is None or node in selected

    lines = [
        "digraph subtransitive {",
        f'  label="{_dot_escape(title)}";',
        "  rankdir=LR;",
        '  node [fontname="monospace"];',
    ]
    for node in sub.factory.nodes:
        if not included(node):
            continue
        label = _dot_escape(node.describe())
        if node.kind == "expr" and isinstance(node.expr, Lam):
            shape = "doublecircle"
        elif node.kind == "op":
            shape = "box"
        else:
            shape = "ellipse"
        lines.append(f'  n{node.uid} [label="{label}", shape={shape}];')
    close_edges = getattr(sub, "close_edges", frozenset())
    for src, dst in sub.graph.edges():
        if included(src) and included(dst):
            if (src, dst) in close_edges:
                lines.append(
                    f"  n{src.uid} -> n{dst.uid} "
                    '[style=dashed, color=gray40];'
                )
            else:
                lines.append(f"  n{src.uid} -> n{dst.uid};")
    lines.append("}")
    return "\n".join(lines)


#: Schema tag carried by every result document (and required of every
#: on-disk :mod:`repro.serve` cache entry).
RESULT_SCHEMA = "repro.result/1"


def envelope_provenance(
    name: str,
    driver: str = "lc",
    fallback_reason: Optional[str] = None,
) -> Dict[str, Optional[str]]:
    """The engine-provenance section every repro envelope shares.

    ``repro.result/1`` documents and the ``repro lint --format json``
    envelope both carry this exact three-key shape, so consumers can
    read provenance the same way regardless of which tool produced the
    document.
    """
    return {
        "name": name,
        "driver": driver,
        "fallback_reason": fallback_reason,
    }


def _engine_section(cfa) -> Dict[str, Optional[str]]:
    """Engine provenance for a result document.

    ``driver`` is ``"hybrid"`` when the hybrid driver produced the
    result (either branch); ``fallback_reason`` mirrors
    :class:`~repro.core.hybrid.HybridResult.fallback_reason`.
    """
    from repro.core.hybrid import HybridResult, subtransitive_graph_of

    driver = "lc"
    fallback_reason = None
    result = cfa
    if isinstance(cfa, HybridResult):
        driver = "hybrid"
        fallback_reason = cfa.fallback_reason
        result = cfa.result
    if subtransitive_graph_of(result) is not None:
        name = "subtransitive"
    else:
        name = (
            type(result).__name__.replace("CFAResult", "").lower()
            or "unknown"
        )
    return envelope_provenance(name, driver, fallback_reason)


def result_to_dict(cfa) -> Dict[str, object]:
    """The ``repro.result/1`` document for an analysis result.

    The document contains:

    * ``schema``: the :data:`RESULT_SCHEMA` tag;
    * ``engine``: which engine produced the result and why a fallback
      happened, if one did;
    * ``program``: size and the abstraction label table (label ->
      pretty-printed lambda);
    * ``call_graph``: per application site (by nid, with its source
      text) the callable labels;
    * ``label_flows``: per label, the nids of occurrences it may reach.

    Both sections come from one :meth:`~repro.cfa.base.CFAResult.
    all_label_sets` table: a site's callees are the label set of its
    operator, and a label flows to every occurrence whose set holds
    it. Every collection is deterministically ordered (sorted callee
    labels, ascending occurrence nids) so that serialising with sorted
    keys is byte-stable across runs and processes — the property the
    content-addressed result cache relies on.
    """
    program: Program = cfa.program
    table = cfa.all_label_sets()
    labels: Dict[str, str] = {
        lam.label: pretty(lam, show_labels=False)
        for lam in program.abstractions
    }
    call_graph = {}
    for site in program.applications:
        call_graph[str(site.nid)] = {
            "source": pretty(site, show_labels=False),
            "callees": sorted(table[site.fn.nid]),
        }
    label_flows: Dict[str, List[int]] = {
        lam.label: [] for lam in program.abstractions
    }
    for expr in program.nodes:
        for label in table[expr.nid]:
            label_flows[label].append(expr.nid)
    return {
        "schema": RESULT_SCHEMA,
        "engine": _engine_section(cfa),
        "program": {"size": program.size, "labels": labels},
        "call_graph": call_graph,
        "label_flows": label_flows,
    }


def result_to_json(cfa, indent: Optional[int] = 2) -> str:
    """Serialise an analysis result as ``repro.result/1`` JSON
    (sorted keys, deterministic orderings — see
    :func:`result_to_dict`)."""
    return json.dumps(result_to_dict(cfa), indent=indent, sort_keys=True)


def canonical_json(document: Dict[str, object]) -> str:
    """The canonical (compact, sorted-keys) serialisation a
    fingerprint is computed over."""
    return json.dumps(
        document,
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
    )


def result_fingerprint(result_or_document) -> str:
    """SHA-256 hex digest of the canonical result serialisation.

    Accepts either an analysis result (anything
    :func:`result_to_dict` accepts) or an already-built document
    dict. Equal fingerprints mean byte-identical canonical
    documents, which is how cache-hit results are checked against
    freshly computed ones.
    """
    document = (
        result_or_document
        if isinstance(result_or_document, dict)
        else result_to_dict(result_or_document)
    )
    blob = canonical_json(document).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
