"""Shared fixtures and assertion helpers for the test suite."""

from __future__ import annotations

from typing import Iterable

from repro.cfa.base import CFAResult
from repro.lang.ast import Program

#: Small well-typed programs covering every language feature; many
#: tests sweep over all of them.
SAMPLE_SOURCES = {
    "identity": "fn[id] x => x",
    "apply_id": "(fn[id] x => x) (fn[one] y => y)",
    "self_via_arg": "(fn[f] x => x x) (fn[g] y => y)",
    "let_poly": "let id = fn[id] x => x in (id id) (fn[k] z => z)",
    "letrec_loop": (
        "letrec go = fn[go] n => if n < 1 then 0 else go (n - 1) "
        "in go 3"
    ),
    "records": (
        "let p = (fn[a] x => x + 1, fn[b] y => y * 2) in "
        "(#1 p) ((#2 p) 3)"
    ),
    "conditional": (
        "let f = if true then fn[t] x => x + 1 else fn[e] y => y - 1 "
        "in f 10"
    ),
    "datatype_map": """
        datatype intlist = Nil | Cons of int * intlist;
        letrec map = fn[map] f => fn[map2] xs =>
          case xs of
            Nil => Nil
          | Cons(h, t) => Cons(f h, map f t)
          end
        in map (fn[inc] x => x + 1) (Cons(1, Cons(2, Nil)))
    """,
    "refs": (
        "let c = ref (fn[a] x => x + 1) in "
        "let u = c := (fn[b] y => y * 2) in (!c) 5"
    ),
    "effects": (
        "let f = fn[noisy] x => print x in "
        "let g = fn[quiet] y => y + 1 in f (g 1)"
    ),
    "higher_order": (
        "let compose = fn[compose] f => fn[c2] g => fn[c3] x => f (g x) in "
        "let inc = fn[inc] a => a + 1 in "
        "let dbl = fn[dbl] b => b * 2 in "
        "compose inc dbl 7"
    ),
}


def sample_programs() -> Iterable:
    """(name, Program) pairs for all samples."""
    from repro.lang import parse

    for name, source in SAMPLE_SOURCES.items():
        yield name, parse(source)


def assert_same_label_sets(
    program: Program, left: CFAResult, right: CFAResult, context: str = ""
) -> None:
    """Assert that two analyses agree on every occurrence."""
    for node in program.nodes:
        a = left.labels_of(node)
        b = right.labels_of(node)
        assert a == b, (
            f"{context}: label sets differ at node #{node.nid} "
            f"({type(node).__name__}): {sorted(a)} vs {sorted(b)}"
        )


def assert_label_subset(
    program: Program, small: CFAResult, big: CFAResult, context: str = ""
) -> None:
    """Assert ``small``'s label sets are pointwise contained in
    ``big``'s."""
    for node in program.nodes:
        a = small.labels_of(node)
        b = big.labels_of(node)
        assert a <= b, (
            f"{context}: node #{node.nid} ({type(node).__name__}): "
            f"{sorted(a)} not within {sorted(b)}"
        )


def scanned_index(cfa, kinds, project, keep=None) -> list:
    """What :meth:`~repro.core.queries.SubtransitiveCFA._bearing_index`
    returns, the long way: a scan of every graph row in uid order
    (a uid the graph does not hold has ``None``), optionally only the
    rows ``keep(node)`` accepts."""
    entries = []
    for idx, node in enumerate(cfa.graph._nodes):
        if node is None or node.kind != "expr":
            continue
        if keep is not None and not keep(node):
            continue
        if node.expr is not None:
            if isinstance(node.expr, kinds):
                entries.append((idx, (project(node.expr),)))
        else:
            items = tuple(
                project(expr)
                for expr in node.absorbed
                if isinstance(expr, kinds)
            )
            if items:
                entries.append((idx, items))
    return entries
