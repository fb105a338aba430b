"""E3 — The Section 2 complexity table, measured.

The paper states, for bounded-type programs::

    Problem            Std Alg.   New Alg.
    Is l in L(e)?      O(n^3)     O(n)
    L(e)               O(n^3)     O(n)
    {e : l in L(e)}    O(n^3)     O(n)
    All label sets     O(n^3)     O(n^2)

The standard algorithm has to run its full fixpoint no matter how
small the question; the subtransitive algorithm answers each of the
first three queries with one reachability pass over a linear-size
graph (reusing a linear-time build).

We measure each query's *end-to-end* cost (analysis + query) on the
cubic family and fit log-log exponents. The new algorithm's rows
include the (linear) build, so the first three exponents sit near 1.
All label sets is one sweep over the condensed graph
(:meth:`~repro.core.queries.SubtransitiveCFA.all_label_sets`): its
output (the sum of |L(e)|) is quadratic, but on this family the sets
take O(n) distinct values and equal sets are shared, so its time sits
near 1 too. The standard rows track the cubic trend of the family.
"""

import pytest

from repro.bench import Table, fit_exponent, time_call
from repro.cfa.standard import analyze_standard
from repro.core.lc import build_subtransitive_graph
from repro.core.queries import SubtransitiveCFA
from repro.workloads.cubic import make_cubic_program

SIZES = [8, 16, 32, 64]


def _fixture(n):
    program = make_cubic_program(n)
    # Query targets: the last y-site (a non-trivial application) and
    # the first f-abstraction.
    site = program.nontrivial_applications()[-1]
    label = "f1"
    return program, site, label


def measure(n):
    program, site, label = _fixture(n)

    timings = {}
    timings["std_member"] = time_call(
        lambda: analyze_standard(program).is_label_in(label, site.fn),
        repeat=1,
    )
    timings["std_labels"] = time_call(
        lambda: analyze_standard(program).labels_of(site.fn), repeat=1
    )
    timings["std_inverse"] = time_call(
        lambda: analyze_standard(program).expressions_with_label(label),
        repeat=1,
    )
    timings["std_all"] = time_call(
        lambda: analyze_standard(program).all_label_sets(), repeat=1
    )

    def new_member():
        cfa = SubtransitiveCFA(build_subtransitive_graph(program))
        cfa.is_label_in(label, site.fn)

    def new_labels():
        cfa = SubtransitiveCFA(build_subtransitive_graph(program))
        cfa.labels_of(site.fn)

    def new_inverse():
        cfa = SubtransitiveCFA(build_subtransitive_graph(program))
        cfa.expressions_with_label(label)

    def new_all():
        cfa = SubtransitiveCFA(build_subtransitive_graph(program))
        cfa.all_label_sets()

    timings["new_member"] = time_call(new_member, repeat=1)
    timings["new_labels"] = time_call(new_labels, repeat=1)
    timings["new_inverse"] = time_call(new_inverse, repeat=1)
    timings["new_all"] = time_call(new_all, repeat=1)
    timings["size"] = program.size
    return timings


def run_report(sizes=SIZES):
    rows = [measure(n) for n in sizes]
    table = Table(
        ["problem", "std exp", "new exp", "paper std", "paper new"],
        title="Section 2 complexity table — empirical exponents",
    )
    sizes_col = [r["size"] for r in rows]

    def exp(key):
        return fit_exponent(sizes_col, [r[key] for r in rows])

    problems = [
        ("Is l in L(e)?", "std_member", "new_member", "n^3", "n"),
        ("L(e)", "std_labels", "new_labels", "n^3", "n"),
        ("{e : l in L(e)}", "std_inverse", "new_inverse", "n^3", "n"),
        ("All label sets", "std_all", "new_all", "n^3", "n^2"),
    ]
    summary = {}
    for name, std_key, new_key, paper_std, paper_new in problems:
        std_e, new_e = exp(std_key), exp(new_key)
        table.add_row(name, std_e, new_e, paper_std, paper_new)
        summary[name] = (std_e, new_e)
    return table, summary


@pytest.mark.parametrize("n", [16, 32])
def test_membership_query_standard(benchmark, n):
    program, site, label = _fixture(n)
    benchmark(
        lambda: analyze_standard(program).is_label_in(label, site.fn)
    )


@pytest.mark.parametrize("n", [16, 32])
def test_membership_query_subtransitive(benchmark, n):
    program, site, label = _fixture(n)

    def run():
        cfa = SubtransitiveCFA(build_subtransitive_graph(program))
        return cfa.is_label_in(label, site.fn)

    benchmark(run)


@pytest.mark.parametrize("n", [16, 32])
def test_all_label_sets_subtransitive(benchmark, n):
    program, _, _ = _fixture(n)

    def run():
        cfa = SubtransitiveCFA(build_subtransitive_graph(program))
        return cfa.all_label_sets()

    benchmark(run)


def test_complexity_separation():
    """Each 'new' query scales at least half a power of n better than
    its 'std' counterpart on this family."""
    _, summary = run_report(sizes=[16, 32, 64, 128])
    for name, (std_e, new_e) in summary.items():
        assert std_e - new_e > 0.5, (name, std_e, new_e)
    # The single-answer queries are near-linear, and so is the
    # all-label-sets sweep here, although the output it denotes (the
    # sum of |L(e)|) is quadratic: equal label sets are shared.
    assert summary["L(e)"][1] < 1.6
    assert summary["All label sets"][1] < 1.6
    sizes, outputs = [], []
    for n in [16, 32, 64, 128]:
        program = make_cubic_program(n)
        cfa = SubtransitiveCFA(build_subtransitive_graph(program))
        sizes.append(program.size)
        outputs.append(sum(map(len, cfa.all_label_sets().values())))
    assert fit_exponent(sizes, outputs) > 1.4


if __name__ == "__main__":
    table, _ = run_report()
    print(table.render())
