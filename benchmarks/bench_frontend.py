"""E13 (extra) — the paper's Section 10 closing observation.

"Additional measurements have shown that the cost of the analysis time
for the linear-time algorithm is now dominated by the cost of just
traversing the intermediate representation: for the lexgen example,
this cost accounted for up to 198 ms out of the total 368 ms for the
benchmark, and for life it was 65 ms out of 83 ms."

We measure the same decomposition: a bare IR traversal (visiting every
node, doing nothing) versus the full LC' analysis, plus the rest of
the front end for context (parse, type inference).

A traversal can only dominate if the front end that builds the IR is
linear too, so the second report times ``parse`` (lex, parse, rename,
index) of two binder chains at n and 8n and fits the exponent: a
``fn`` chain with distinct parameters (the scope map grows with the
depth) and a ``let`` chain whose lambdas all name their parameter
``y`` (the renamer hands out ``y_1`` ... ``y_n``).
"""

import pytest

from repro.bench import Table, fit_exponent, time_call
from repro.core.lc import build_subtransitive_graph
from repro.lang.parser import parse
from repro.lang.printer import pretty_program
from repro.types.infer import infer_types
from repro.workloads.synthetic import make_lexgen_like, make_life_like

PROGRAMS = {
    "life": make_life_like,
    "lexgen": make_lexgen_like,
}


#: Binder-chain lengths of the scaling report: n and 8n.
CHAIN_SIZES = (500, 4000)


def fn_chain(n: int) -> str:
    """``fn x0 => fn x1 => ... => x0``: n nested binders."""
    return "".join(f"fn x{i} => " for i in range(n)) + "x0"


def same_parameter_let_chain(n: int) -> str:
    """n ``let`` bindings of ``fn y => y``."""
    return "".join(f"let f{i} = fn y => y in " for i in range(n)) + "()"


CHAINS = {"fn": fn_chain, "let y": same_parameter_let_chain}


def traverse(program) -> int:
    count = 0
    for _node in program.root.walk():
        count += 1
    return count


def run_report():
    table = Table(
        [
            "prog",
            "nodes",
            "traverse t",
            "LC t",
            "traverse share",
            "parse t",
            "infer t",
        ],
        title="Front-end decomposition — traversal vs analysis",
    )
    rows = []
    for name, make in PROGRAMS.items():
        program = make()
        source = pretty_program(program)
        traverse_time = time_call(lambda: traverse(program), repeat=5)
        lc_time = time_call(
            lambda: build_subtransitive_graph(program), repeat=3
        )
        parse_time = time_call(lambda: parse(source), repeat=3)
        infer_time = time_call(lambda: infer_types(program), repeat=3)
        share = traverse_time / lc_time
        table.add_row(
            name,
            program.size,
            traverse_time,
            lc_time,
            f"{share:.0%}",
            parse_time,
            infer_time,
        )
        rows.append({"name": name, "share": share})
    return table, rows


def scaling_report(sizes=CHAIN_SIZES):
    """``parse`` time of each binder chain at every size, and the
    fitted exponent (1 for a linear front end, 2 for a quadratic
    one)."""
    table = Table(
        ["chain"] + [f"parse t (n={n})" for n in sizes] + ["exponent"],
        title="Front-end scaling in binders",
    )
    rows = []
    for name, make in CHAINS.items():
        times = []
        for n in sizes:
            source = make(n)
            times.append(time_call(lambda: parse(source), repeat=3))
        exponent = fit_exponent(sizes, times)
        table.add_row(name, *times, f"{exponent:.2f}")
        rows.append(
            {"chain": name, "sizes": list(sizes), "seconds": times,
             "exponent": exponent}
        )
    return table, rows


@pytest.mark.parametrize("name", list(PROGRAMS))
def test_traversal_time(benchmark, name):
    program = PROGRAMS[name]()
    benchmark(lambda: traverse(program))


@pytest.mark.parametrize("name", list(PROGRAMS))
def test_parse_time(benchmark, name):
    source = pretty_program(PROGRAMS[name]())
    benchmark(lambda: parse(source))


@pytest.mark.parametrize("name", list(PROGRAMS))
def test_infer_time(benchmark, name):
    program = PROGRAMS[name]()
    benchmark(lambda: infer_types(program))


def test_traversal_is_significant_fraction():
    """The qualitative claim: a meaningful slice of 'analysis time'
    is just walking the IR. (Python's interpretation overhead makes
    the share smaller than the paper's compiled 25-80%, but it must
    be non-negligible.)"""
    _, rows = run_report()
    for row in rows:
        assert row["share"] > 0.01, row


def test_parse_is_linear_in_binders():
    """Lexing, parsing, renaming and indexing stay linear however many
    binders a program nests or repeats a name in."""
    _, rows = scaling_report()
    for row in rows:
        assert row["exponent"] < 1.5, row


if __name__ == "__main__":
    table, _ = run_report()
    print(table.render())
    table, _ = scaling_report()
    print(table.render())
