"""The shipped rule programs: every linear analysis as rules.

These programs are the only implementation of the L/F lints and of
the paper's Section 8–9 consumers; :mod:`repro.lint` and
:mod:`repro.apps` read their output relations, and the golden tests
under ``tests/golden/`` freeze what they produce:

* ``lint-l001`` (L001, dead lambda): ``called`` projects the bounded
  ``calls`` annotation down to a key-existence view, and ``dead_fun``
  joins the lambda-bearing index with its stratified complement;
* ``lint-l002`` (L002, stuck application): ``reach_lam`` marks every
  node that can reach an abstraction (backward along edges) and a
  site is ``stuck`` when its operator node is in the stratified
  complement;
* ``lint-l004`` (L004, escaping function): ``escape`` marks
  everything reachable from a primitive-argument sink (forward), and
  ``escaping_fun`` joins the marks with the lambda-bearing index;
* ``lint-l005`` (L005, unused binding): ``unused_bind`` is the binder
  view joined with the complement of ``var_used``;
* ``lint-f001`` (F001, tainted sink): ``taint`` marks everything that
  may evaluate to a dereference (backward), and ``tainted_sink``
  joins the marks with the primitive-argument sinks;
* ``lint-f002`` (F002, escaping ref): ``escaping_ref`` restricts the
  ``escape`` marks to ref-bearing nodes;
* ``lint-f003`` (F003, unneeded parameter): ``unneeded_param`` is the
  parameter view joined with the complement of ``var_used``;
* ``lint-f004`` (F004, unreachable branch): ``con_val`` carries
  k-bounded constructor-name sets backward from construction sites
  (k = the widest datatype, via :func:`constructor_k`);
* ``app-called-once`` (:func:`~repro.apps.called_once.called_once`,
  and L003): ``calls`` carries 1-bounded call-site sets forward from
  operator nodes; an abstraction's annotation is then ``None`` (never
  called), a singleton (the unique site), or MANY;
* ``app-effects`` (:func:`~repro.apps.effects.effects_analysis`):
  ``red`` closes the base-effectful seeds forward along ``eff_edge``
  — the Section 8 colouring as a two-rule program;
* ``app-klimited`` (:func:`~repro.apps.klimited.k_limited_cfa`):
  ``klabels`` carries k-bounded abstraction-label sets backward from
  lambda-bearing nodes (the paper's Section 9 k-limited CFA).

``repro.lint`` compiles the lint programs together (plus
``app-called-once``, which L001/L003 read), so their recursive
relations share one stratum and fuse into a single ``run_fused``
sweep.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.rules.dsl import (
    CNAME,
    LABEL,
    NAME,
    NID,
    NODE,
    Rel,
    Rule,
    RuleProgram,
    make_vars,
)
from repro.rules.dsl import fingerprint
from repro.rules.schema import (
    APP_OP,
    BIND_VAR,
    CON_AT,
    DEREF_NODE,
    EDGE,
    EFF_BASE,
    EFF_EDGE,
    LAM_AT,
    LAM_NODE,
    PARAM_VAR,
    REF_NODE,
    SINK_ARG,
    VAR_USED,
)

# -- derived relations ---------------------------------------------------------

#: Nodes from which some abstraction node is reachable (L002's probe).
REACH_LAM = Rel("reach_lam", NODE)
#: Application sites whose operator label set is provably empty.
STUCK = Rel("stuck", NID)
#: Nodes reachable from a primitive-argument sink (L004/F002's probe).
ESCAPE = Rel("escape", NODE)
#: Escaping abstractions: the lambda-bearing node and its label.
ESCAPING_FUN = Rel("escaping_fun", NODE, LABEL)
#: 1-bounded call-site multiplicity per operator-reachable node.
CALLS = Rel("calls", NODE, NID, k=1)
#: Boolean projection of ``calls``: nodes some call site reaches.
CALLED = Rel("called", NODE)
#: Never-called abstractions: lambda-bearing node and label (L001).
DEAD_FUN = Rel("dead_fun", NODE, LABEL)
#: Nodes that may evaluate to a dereference (F001's probe).
TAINT = Rel("taint", NODE)
#: Primitive sinks whose argument node is tainted (F001).
TAINTED_SINK = Rel("tainted_sink", NID)
#: Escaping ref-bearing nodes (F002).
ESCAPING_REF = Rel("escaping_ref", NODE)
#: Parameters whose variable node is never demanded (F003).
UNNEEDED_PARAM = Rel("unneeded_param", NODE, LABEL)
#: Binders whose variable node is never demanded (L005).
UNUSED_BIND = Rel("unused_bind", NODE, NAME)
#: The Section 8 effects colouring (app-effects).
RED = Rel("red", NODE)


def constructor_k(program) -> int:
    """The F004 value bound: the largest constructor count of any
    declared datatype, so an annotation short of MANY is exact."""
    k = max(
        (
            len(decl.constructors)
            for decl in program.datatypes.values()
        ),
        default=1,
    )
    return max(k, 1)


def _l001_program() -> RuleProgram:
    N, S, L = make_vars("N S L")
    return RuleProgram(
        "lint-l001",
        [
            Rule(CALLED(N), [CALLS(N, S)], name="called-view"),
            Rule(
                DEAD_FUN(N, L),
                [LAM_AT(N, L), ~CALLED(N)],
                name="dead-fun",
            ),
        ],
        outputs=(DEAD_FUN,),
    )


def _l002_program() -> RuleProgram:
    N, M, S = make_vars("N M S")
    return RuleProgram(
        "lint-l002",
        [
            Rule(REACH_LAM(N), [LAM_NODE(N)], name="reach-lam-seed"),
            Rule(
                REACH_LAM(N),
                [REACH_LAM(M), EDGE(N, M)],
                name="reach-lam-step",
            ),
            Rule(STUCK(S), [APP_OP(S, N), ~REACH_LAM(N)], name="stuck-site"),
        ],
        outputs=(STUCK,),
    )


def _l004_program() -> RuleProgram:
    N, M, S, L = make_vars("N M S L")
    return RuleProgram(
        "lint-l004",
        [
            Rule(ESCAPE(N), [SINK_ARG(S, N)], name="escape-seed"),
            Rule(ESCAPE(N), [ESCAPE(M), EDGE(M, N)], name="escape-step"),
            Rule(
                ESCAPING_FUN(N, L),
                [ESCAPE(N), LAM_AT(N, L)],
                name="escaping-fun",
            ),
        ],
        outputs=(ESCAPING_FUN,),
    )


def _l005_program() -> RuleProgram:
    N, X = make_vars("N X")
    return RuleProgram(
        "lint-l005",
        [
            Rule(
                UNUSED_BIND(N, X),
                [BIND_VAR(N, X), ~VAR_USED(N)],
                name="unused-bind",
            ),
        ],
        outputs=(UNUSED_BIND,),
    )


def _f001_program() -> RuleProgram:
    N, M, S = make_vars("N M S")
    return RuleProgram(
        "lint-f001",
        [
            Rule(TAINT(N), [DEREF_NODE(N)], name="taint-seed"),
            Rule(TAINT(N), [TAINT(M), EDGE(N, M)], name="taint-step"),
            Rule(
                TAINTED_SINK(S),
                [SINK_ARG(S, N), TAINT(N)],
                name="tainted-sink",
            ),
        ],
        outputs=(TAINTED_SINK,),
    )


def _f002_program() -> RuleProgram:
    N = make_vars("N")[0]
    return RuleProgram(
        "lint-f002",
        [
            Rule(
                ESCAPING_REF(N),
                [ESCAPE(N), REF_NODE(N)],
                name="escaping-ref",
            ),
        ],
        outputs=(ESCAPING_REF,),
    )


def _f003_program() -> RuleProgram:
    N, L = make_vars("N L")
    return RuleProgram(
        "lint-f003",
        [
            Rule(
                UNNEEDED_PARAM(N, L),
                [PARAM_VAR(N, L), ~VAR_USED(N)],
                name="unneeded-param",
            ),
        ],
        outputs=(UNNEEDED_PARAM,),
    )


def f004_program(k: int = 1) -> RuleProgram:
    """The F004 program for a given constructor bound ``k`` — the
    value column saturates to MANY past ``k`` names."""
    con_val = Rel("con_val", NODE, CNAME, k=k)
    N, M, C = make_vars("N M C")
    return RuleProgram(
        "lint-f004",
        [
            Rule(con_val(N, C), [CON_AT(N, C)], name="con-val-seed"),
            Rule(
                con_val(N, C),
                [con_val(M, C), EDGE(N, M)],
                name="con-val-step",
            ),
        ],
        outputs=(con_val,),
    )


def _called_once_program() -> RuleProgram:
    N, M, S = make_vars("N M S")
    return RuleProgram(
        "app-called-once",
        [
            Rule(CALLS(N, S), [APP_OP(S, N)], name="calls-seed"),
            Rule(CALLS(N, S), [CALLS(M, S), EDGE(M, N)], name="calls-step"),
        ],
        outputs=(CALLS,),
    )


def _effects_program() -> RuleProgram:
    N, M = make_vars("N M")
    return RuleProgram(
        "app-effects",
        [
            Rule(RED(N), [EFF_BASE(N)], name="red-seed"),
            Rule(RED(N), [RED(M), EFF_EDGE(M, N)], name="red-step"),
        ],
        outputs=(RED,),
    )


def klimited_program(k: int = 2) -> RuleProgram:
    """The k-limited CFA program for a given ``k``: abstraction labels
    flow backward in the k-bounded lattice."""
    klabels = Rel("klabels", NODE, LABEL, k=k)
    N, M, L = make_vars("N M L")
    return RuleProgram(
        "app-klimited",
        [
            Rule(klabels(N, L), [LAM_AT(N, L)], name="klabels-seed"),
            Rule(
                klabels(N, L),
                [klabels(M, L), EDGE(N, M)],
                name="klabels-step",
            ),
        ],
        outputs=(klabels,),
    )


L001_PROGRAM = _l001_program()
L002_PROGRAM = _l002_program()
L004_PROGRAM = _l004_program()
L005_PROGRAM = _l005_program()
F001_PROGRAM = _f001_program()
F002_PROGRAM = _f002_program()
F003_PROGRAM = _f003_program()
#: The representative F004 instance (k=1; `repro.lint` builds the
#: per-program instance via :func:`f004_program`).
F004_PROGRAM = f004_program(1)
CALLED_ONCE_PROGRAM = _called_once_program()
EFFECTS_PROGRAM = _effects_program()
#: The representative k-limited instance (the CLI's default k=2).
KLIMITED_PROGRAM = klimited_program(2)

#: Every rule program the engine ships, in stable order.
SHIPPED_PROGRAMS = (
    L001_PROGRAM,
    L002_PROGRAM,
    L004_PROGRAM,
    L005_PROGRAM,
    F001_PROGRAM,
    F002_PROGRAM,
    F003_PROGRAM,
    F004_PROGRAM,
    CALLED_ONCE_PROGRAM,
    EFFECTS_PROGRAM,
    KLIMITED_PROGRAM,
)

#: The programs `repro.lint` evaluates together: every lint program
#: plus called-once (which L001/L003 read). F004 is instantiated per
#: constructor bound, so the tuple is built per k.
_LINT_PROGRAMS = (
    L001_PROGRAM,
    L002_PROGRAM,
    L004_PROGRAM,
    L005_PROGRAM,
    F001_PROGRAM,
    F002_PROGRAM,
    F003_PROGRAM,
    CALLED_ONCE_PROGRAM,
)

_fingerprint_cache: Optional[str] = None
_lint_rule_sets: Dict[int, object] = {}
_called_once_rule_set = None
_effects_rule_set = None
_klimited_rule_sets: Dict[int, object] = {}


def shipped_fingerprint() -> str:
    """The SHA-256 identity of the shipped rule programs — folded into
    the serve cache key so cached lint envelopes invalidate when a
    rule changes."""
    global _fingerprint_cache
    if _fingerprint_cache is None:
        _fingerprint_cache = fingerprint(SHIPPED_PROGRAMS)
    return _fingerprint_cache


def lint_rule_set(con_k: int = 1):
    """The compiled lint set (cached per constructor bound; compiling
    is pure static work): every L/F program plus called-once. All five
    recursive relations (reach_lam, escape, taint, calls, con_val)
    land in one stratum, so one fused sweep services every lint."""
    rule_set = _lint_rule_sets.get(con_k)
    if rule_set is None:
        from repro.rules.engine import CompiledRuleSet

        programs = _LINT_PROGRAMS + (
            F004_PROGRAM if con_k == 1 else f004_program(con_k),
        )
        rule_set = CompiledRuleSet(programs)
        _lint_rule_sets[con_k] = rule_set
    return rule_set


def called_once_rule_set():
    global _called_once_rule_set
    if _called_once_rule_set is None:
        from repro.rules.engine import CompiledRuleSet

        _called_once_rule_set = CompiledRuleSet((CALLED_ONCE_PROGRAM,))
    return _called_once_rule_set


def effects_rule_set():
    global _effects_rule_set
    if _effects_rule_set is None:
        from repro.rules.engine import CompiledRuleSet

        _effects_rule_set = CompiledRuleSet((EFFECTS_PROGRAM,))
    return _effects_rule_set


def klimited_rule_set(k: int = 2):
    rule_set = _klimited_rule_sets.get(k)
    if rule_set is None:
        from repro.rules.engine import CompiledRuleSet

        program = KLIMITED_PROGRAM if k == 2 else klimited_program(k)
        rule_set = CompiledRuleSet((program,))
        _klimited_rule_sets[k] = rule_set
    return rule_set
