"""E5 — Section 9: k-limited CFA and called-once, in linear time.

k-limited CFA answers "which functions can this site call, if few"
without materialising any large label set: nodes carry at most k
tokens or MANY. The exact comparator must enumerate full label sets
per site (quadratic output on the cubic family, where every y-site can
call all n of the b_i).

Called-once (the abstract's third application) rides the same engine
in the reverse direction.
"""

import pytest

from repro.apps.called_once import called_once
from repro.apps.klimited import MANY, k_limited_cfa
from repro.bench import Table, fit_exponent, time_call
from repro.core.lc import build_subtransitive_graph
from repro.core.queries import SubtransitiveCFA
from repro.workloads.cubic import make_cubic_program

SIZES = [8, 16, 32, 64]


def run_report(sizes=SIZES, k=3):
    table = Table(
        [
            "n",
            "nodes",
            "k-lim t",
            "exact t",
            "many sites",
            "once fns",
            "once t",
        ],
        title=f"Section 9 — k-limited CFA (k={k}) and called-once",
    )
    rows = []
    for n in sizes:
        program = make_cubic_program(n)
        sub = build_subtransitive_graph(program)
        cfa = SubtransitiveCFA(sub)
        sites = program.applications

        klim_box = {}

        def run_klim():
            klim_box["r"] = k_limited_cfa(program, k=k, sub=sub)

        klim_time = time_call(run_klim, repeat=3)

        def run_exact():
            for site in sites:
                cfa.may_call(site)

        exact_time = time_call(run_exact, repeat=3)

        once_box = {}

        def run_once():
            once_box["r"] = called_once(program, sub=sub)

        once_time = time_call(run_once, repeat=3)

        many = sum(
            1 for site in sites if klim_box["r"].may_call(site) is MANY
        )
        table.add_row(
            n,
            program.size,
            klim_time,
            exact_time,
            many,
            len(once_box["r"].once_labels),
            once_time,
        )
        rows.append(
            {
                "size": program.size,
                "klim": klim_time,
                "exact": exact_time,
                "many": many,
            }
        )
    return table, rows


@pytest.mark.parametrize("n", [16, 32])
def test_k_limited_time(benchmark, n):
    program = make_cubic_program(n)
    sub = build_subtransitive_graph(program)
    benchmark(lambda: k_limited_cfa(program, k=3, sub=sub))


@pytest.mark.parametrize("n", [16, 32])
def test_exact_all_sites_time(benchmark, n):
    program = make_cubic_program(n)
    cfa = SubtransitiveCFA(build_subtransitive_graph(program))
    sites = program.applications

    def run():
        for site in sites:
            cfa.may_call(site)

    benchmark(run)


@pytest.mark.parametrize("n", [16, 32])
def test_called_once_time(benchmark, n):
    program = make_cubic_program(n)
    sub = build_subtransitive_graph(program)
    benchmark(lambda: called_once(program, sub=sub))


def test_klimited_shape():
    _, rows = run_report(sizes=[8, 16, 32], k=3)
    sizes = [r["size"] for r in rows]
    klim_exp = fit_exponent(sizes, [r["klim"] for r in rows])
    exact_exp = fit_exponent(sizes, [r["exact"] for r in rows])
    # k-limited stays ~linear while exact enumeration trends
    # quadratic on this family.
    assert klim_exp < 1.6, klim_exp
    assert exact_exp > 1.5, exact_exp
    # The y-sites all exceed k=3 once n > 3: they report MANY.
    assert rows[-1]["many"] >= 32


if __name__ == "__main__":
    table, _ = run_report()
    print(table.render())
