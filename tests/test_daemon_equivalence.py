"""Property-based equivalence: warm daemon state vs. cold analysis.

Hypothesis drives random define/redefine/undefine sequences against a
:class:`~repro.daemon.delta.ProjectAnalysis` and checks, after every
mutation, that the warm ``repro.result/1`` envelope is byte-identical
to a cold analysis of the rendered source. Fallbacks count as passes
only because the fallback path *is* the cold path (replay); the test
asserts any fallback carries a known reason. A definition may be
rejected for exceeding the node budget only if the project kept its
previous envelope and a cold analysis of the would-be program exceeds
the budget too. Lint output — finding positions included, now that
the warm chain restamps cold-parse line numbers after every mutation
— is compared byte-identical against the true cold run at the end of
every sequence.
"""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.daemon import FALLBACK_REASONS, ProjectAnalysis
from repro.daemon.delta import free_base_names
from repro.errors import AnalysisBudgetExceeded, ScopeError
from repro.export import result_to_dict
from repro.lang.parser import parse, parse_expr
from repro.serve.worker import _lint_section

# Binder-free and single-binder bodies; {ref} is replaced with an
# existing name (or dropped when there is none yet).
TEMPLATES = (
    "fn x => x",
    "fn x => x x",
    "fn[t{i}] y => y",
    "fn f => fn g => fn x => f (g x)",
    "{ref}",
    "{ref} {ref}",
    "fn z => {ref} z",
    "{ref} (fn[a{i}] w => w)",
    "fn[r{i}] x => {ref} ({ref} x)",
)

ops = st.lists(
    st.tuples(
        st.sampled_from(["define", "redefine", "undefine"]),
        st.integers(min_value=0, max_value=len(TEMPLATES) - 1),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=1,
    max_size=8,
)


def build_source(template, names, pick, counter):
    if "{ref}" in template and not names:
        template = "fn x => x"
    source = template.replace("{i}", str(counter))
    while "{ref}" in source:
        source = source.replace(
            "{ref}", names[pick % len(names)], 1
        )
        pick += 1
    return source


def drive(pa, sequence):
    """Apply ``sequence`` to ``pa`` step by step, yielding ``(verb,
    name, source, error)``: ``error`` is the ScopeError or
    AnalysisBudgetExceeded that rejected the step, if any. A redefine
    may turn recursive through ``{ref}`` (a letrec flip for a lambda
    body, a rejected letrec violation otherwise); an undefine of a
    referenced name is rejected."""
    names = []
    for counter, (verb, index, pick) in enumerate(sequence):
        if verb == "define" or not names:
            verb, name = "define", f"d{counter}"
        else:
            name = names[pick % len(names)]
        source = None
        if verb != "undefine":
            source = build_source(TEMPLATES[index], names, pick, counter)
        try:
            if source is None:
                pa.undefine(name)
            else:
                pa.define(name, source)
        except (ScopeError, AnalysisBudgetExceeded) as error:
            yield verb, name, source, error
            continue
        if verb == "define":
            names.append(name)
        elif verb == "undefine":
            names.remove(name)
        yield verb, name, source, None


def envelope_json(cfa):
    return json.dumps(result_to_dict(cfa), sort_keys=True)


def would_be_source(pa, name, source):
    """The rendered program ``pa.define(name, source)`` would have
    produced (``pa`` holds the pre-operation definitions)."""
    bindings = {d.name: d.source for d in pa.defs}
    bindings[name] = source
    lines = []
    for def_name, def_source in bindings.items():
        recursive = def_name in free_base_names(parse_expr(def_source))
        keyword = "letrec" if recursive else "let"
        lines += [f"{keyword} {def_name} =", "(", def_source, ")", "in"]
    return "\n".join(lines + ["()"]) + "\n"


def run_sequence(sequence):
    pa = ProjectAnalysis()
    previous = envelope_json(pa.cfa())
    for verb, name, source, error in drive(pa, sequence):
        if isinstance(error, AnalysisBudgetExceeded):
            assert envelope_json(pa.cfa()) == previous, (verb, name)
            with pytest.raises(AnalysisBudgetExceeded):
                ProjectAnalysis.cold_cfa(would_be_source(pa, name, source))
        elif error is not None:
            # A fresh name never clashes; rejections leave the state
            # exact (checked below).
            assert verb != "define", error
        warm = envelope_json(pa.cfa())
        cold = envelope_json(ProjectAnalysis.cold_cfa(pa.render_source()))
        assert warm == cold, (verb, name, pa.render_source())
        report = pa.sanitize()
        assert report["ok"], report["violations"]
        previous = warm
    for reason, count in pa.fallbacks.items():
        assert reason in FALLBACK_REASONS
        assert count >= 0
    rendered = pa.render_source()
    cold_lint = _lint_section(
        parse(rendered), ProjectAnalysis.cold_cfa(rendered)
    )
    assert json.dumps(pa.lint(), sort_keys=True) == json.dumps(
        cold_lint, sort_keys=True
    )


# d6 = fn[r6] x => d3 (d4 x) on top of d0 = fn x => x,
# d1/d2 = d0 (fn[a] w => w), d3 = fn[r3] x => d0 (d1 x), d4 = d0 and
# d5 = compose is untypeable; it used to grind towards a flat
# million-node budget for a minute before being rejected.
BUDGET_GRIND = [
    ("define", 0, 0),
    ("define", 7, 0),
    ("define", 7, 0),
    ("define", 8, 0),
    ("define", 4, 0),
    ("define", 3, 0),
    ("define", 8, 3),
]


# The one (CSR) graph; the name keeps the test's id. This test alone
# carries the random-sequence coverage, hence 80 examples.
@settings(max_examples=80, deadline=None)
@given(sequence=ops)
@example(sequence=BUDGET_GRIND)
def test_random_sequences_csr_backend(sequence):
    run_sequence(sequence)


# The one (CSR) graph; the param keeps the test's id.
@pytest.mark.parametrize("backend", ["csr"])
def test_worst_case_sequence(backend):
    """A hand-picked sequence that exercises every delta path:
    append, letrec, redefine-with-cascade, fallback, undefine."""
    run_sequence(
        [
            ("define", 0, 0),
            ("define", 4, 0),
            ("redefine", 1, 0),
            ("define", 8, 1),
            ("redefine", 3, 1),
            ("undefine", 0, 2),
            ("define", 7, 0),
        ]
    )
