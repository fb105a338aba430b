"""Regenerate ``pins.json``: what the benchmark pins per seed.

Run from the root of a checkout::

    python3 layerbench/pin.py

For every seed in :data:`SEEDS` it pins the digests of the generated
inputs (``corpus``, ``session``) and the names of the cold programs
where LC' soundly answers with more labels than the standard algorithm
(``adds_labels``): on those, and only those, the cold oracle checks
containment instead of equality. A later run of ``run.py`` on a pinned
seed checks that the generators still make the same inputs. The pin
refuses to write if LC' disagrees with the standard algorithm in any
other way.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import inputs  # noqa: E402

#: The pinned seeds.
SEEDS = range(128)


def adds_labels(seed: int, run, check, verdicts: dict) -> list:
    """The seed's programs where LC' adds labels. ``verdicts`` memoises
    by source: the family programs are the same in every seed."""
    import oracles

    names = []
    for program in inputs.corpus(seed):
        source = program["source"]
        if source not in verdicts:
            got, wanted = check(run(source)), oracles.standard_answer(source)
            verdicts[source] = (
                "equal" if oracles.matches(got, wanted, may_add=False)
                else "adds" if oracles.matches(got, wanted, may_add=True)
                else "differs"
            )
        if verdicts[source] == "differs":
            raise SystemExit(
                f"seed {seed}, {program['name']}: LC' disagrees with standard CFA"
            )
        if verdicts[source] == "adds":
            names.append(program["name"])
    return sorted(names)


def main() -> int:
    from child import analyze_entry
    from repro._util import ensure_recursion_limit

    ensure_recursion_limit()
    run, check = analyze_entry()
    pins = {
        kind: {str(seed): inputs.digest(make(seed)) for seed in SEEDS}
        for kind, make in (("corpus", inputs.corpus), ("session", inputs.session))
    }
    verdicts: dict = {}
    pins["adds_labels"] = {
        str(seed): adds_labels(seed, run, check, verdicts) for seed in SEEDS
    }
    with open(HERE / "pins.json", "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
