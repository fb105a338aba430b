"""E12 — the conclusion's hybrid algorithm.

"Our algorithm could potentially be combined with the standard
cubic-time CFA algorithm to obtain a hybrid algorithm that terminates
for arbitrary programs but is linear for bounded-type programs."

We check both halves: on the bounded-type cubic family the hybrid
stays on the subtransitive engine and scales linearly; on untypeable
self-applicative programs it detects the blow-up via the node budget,
falls back, and still answers correctly.
"""

import pytest

from repro.bench import Table, fit_exponent, time_call
from repro.core.hybrid import analyze_hybrid
from repro.lang import parse
from repro.workloads.cubic import make_cubic_program

UNTYPEABLE = (
    "fn[outer] f => "
    "(fn[a] x => f (fn[ea] v => x x v)) "
    "(fn[b] x2 => f (fn[eb] w => x2 x2 w))"
)


def run_report(sizes=(8, 16, 32, 64)):
    table = Table(
        ["workload", "engine", "time", "answer ok"],
        title="Hybrid driver — engine selection and totality",
    )
    rows = []
    for n in sizes:
        program = make_cubic_program(n)
        box = {}

        def run():
            box["r"] = analyze_hybrid(program)

        seconds = time_call(run, repeat=3)
        ok = box["r"].may_call(
            program.nontrivial_applications()[0]
        ) == frozenset(f"b{i}" for i in range(1, n + 1))
        table.add_row(f"cubic-{n}", box["r"].engine, seconds, ok)
        rows.append(
            {
                "n": n,
                "engine": box["r"].engine,
                "time": seconds,
                "ok": ok,
            }
        )

    program = parse(UNTYPEABLE)
    box = {}

    def run_untyped():
        box["r"] = analyze_hybrid(program)

    seconds = time_call(run_untyped, repeat=3)
    ok = box["r"].labels_of(program.root) == frozenset({"outer"})
    table.add_row("Y-combinator", box["r"].engine, seconds, ok)
    rows.append(
        {"n": None, "engine": box["r"].engine, "time": seconds, "ok": ok}
    )
    return table, rows


@pytest.mark.parametrize("n", [16, 32])
def test_hybrid_on_typed_family(benchmark, n):
    program = make_cubic_program(n)
    benchmark(lambda: analyze_hybrid(program))


def test_hybrid_on_untypeable(benchmark):
    program = parse(UNTYPEABLE)
    benchmark(lambda: analyze_hybrid(program))


def test_hybrid_behaviour():
    _, rows = run_report(sizes=(8, 16, 32))
    typed = [r for r in rows if r["n"] is not None]
    untyped = [r for r in rows if r["n"] is None]
    assert all(r["engine"] == "subtransitive" for r in typed)
    assert all(r["ok"] for r in rows)
    assert untyped[0]["engine"] == "standard"
    # Linear trend on the typed family.
    exp = fit_exponent(
        [r["n"] for r in typed], [r["time"] for r in typed]
    )
    assert exp < 1.8, exp


if __name__ == "__main__":
    table, _ = run_report()
    print(table.render())
