"""E22 — a finished job is freed by reference counting.

Propositions 3/4 bound what LC' builds for a program to O(k·|P|)
nodes and edges, so a cold job's memory is its own live set, and it
should go when the job returns. It does only if nothing the job built
sits on a reference cycle: every object refers to what it was built
from (an operator node to its inner node, a type to its children),
and the node factory owns the maps that point the other way. Cyclic
garbage would instead wait for CPython's cyclic collector, which finds
it by walking the heap.

Two reports:

* **cyclic garbage per job** — each job kind of the cold path (the
  cubic family, a join point, a random typed program, a lexgen-style
  datatype program under ≈2, a budget fallback and an inference
  fallback; plain and with lint, audit and sanitize) runs through
  ``run_job`` with the collector off and ``gc.DEBUG_SAVEALL`` on; a
  collection afterwards counts what only the collector could free.
  An exact count, pinned at 0 in ``benchmarks/BASELINE.json``.
* **the collector per pass** — whole passes over those jobs with the
  collector on: collections per generation and the seconds they took
  (``gc.callbacks``), and the process RSS after each pass. Timings are
  warn-only.
"""

import gc
import time

from repro.bench import Table
from repro.lang.printer import pretty_program
from repro.serve.cache import canonical_options
from repro.serve.worker import run_job
from repro.workloads.cubic import make_cubic_source, make_unbounded_source
from repro.workloads.generators import (
    make_joinpoint_program,
    random_typed_program,
)
from repro.workloads.synthetic import make_synthetic_program

#: ``run_job`` options: the cold path as served, then with every
#: optional section.
OPTIONS = {
    "plain": {"algorithm": "hybrid"},
    "lint+audit+sanitize": {
        "algorithm": "hybrid",
        "lint": True,
        "audit": True,
        "sanitize": True,
    },
}

#: Untypeable: LC' runs uncapped and its ``dom``/``ran`` tower trips
#: the hybrid's node budget.
OMEGA = "(fn[w] x => x x) (fn[w2] y => y y)\n"

#: Untypeable and declares a datatype: no congruence can be picked,
#: so the hybrid falls back on inference.
UNTYPEABLE_WITH_DATATYPES = (
    "datatype intlist = Nil | Cons of int * intlist;\n" + OMEGA
)


def jobs(quick: bool = True):
    """``(name, source)`` of every job kind of the report."""
    scale = 1 if quick else 2
    return [
        ("cubic", make_cubic_source(16 * scale)),
        (
            "joinpoint",
            pretty_program(make_joinpoint_program(16 * scale, True)),
        ),
        ("random", pretty_program(random_typed_program(7, fuel=60))),
        ("lexgen", pretty_program(make_synthetic_program(2 * scale, "lexgen"))),
        ("life", pretty_program(make_synthetic_program(2 * scale, "life"))),
        ("unbounded-types", make_unbounded_source(6)),
        ("budget-fallback", OMEGA),
        ("inference-fallback", UNTYPEABLE_WITH_DATATYPES),
    ]


def cyclic_garbage(run) -> int:
    """Objects ``run()`` leaves that only the cyclic collector frees."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def garbage_rows(quick: bool = True):
    rows = []
    for variant, opts in OPTIONS.items():
        options = canonical_options(opts)
        for name, source in jobs(quick):
            payload = {"source": source, "options": options}
            run_job(payload)  # warm: first-use caches are not garbage
            status = run_job(payload)["status"]
            found = cyclic_garbage(lambda: run_job(payload))
            rows.append(
                {
                    "job": name,
                    "options": variant,
                    "status": status,
                    "cyclic_garbage": found,
                }
            )
    return rows


def _rss_mib():
    """This process's resident set (Linux ``VmRSS``), else ``None``."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        return None
    return None


def collector_rows(passes: int = 3, quick: bool = True):
    """Per pass over every job (plain options): collections per
    generation, collector seconds and RSS after the pass."""
    payloads = [
        {"source": source, "options": canonical_options(OPTIONS["plain"])}
        for _, source in jobs(quick)
    ]
    state = {"start": 0.0, "seconds": 0.0, "runs": [0, 0, 0]}

    def on_collect(phase, info):
        if phase == "start":
            state["start"] = time.perf_counter()
        else:
            state["seconds"] += time.perf_counter() - state["start"]
            state["runs"][info["generation"]] += 1

    gc.collect()
    rows = []
    gc.callbacks.append(on_collect)
    try:
        for number in range(1, passes + 1):
            state["seconds"] = 0.0
            state["runs"] = [0, 0, 0]
            start = time.perf_counter()
            for payload in payloads:
                run_job(payload)
            rows.append(
                {
                    "pass": number,
                    "pass_seconds": time.perf_counter() - start,
                    "gc_seconds": state["seconds"],
                    "gen0": state["runs"][0],
                    "gen1": state["runs"][1],
                    "gen2": state["runs"][2],
                    "rss_mib": _rss_mib(),
                }
            )
    finally:
        gc.callbacks.remove(on_collect)
    return rows


def run_report(quick: bool = True, passes: int = 3):
    garbage = garbage_rows(quick)
    table = Table(
        ["job", "options", "status", "cyclic garbage"],
        title="E22 — objects only the cyclic collector frees, per job",
    )
    for row in garbage:
        table.add_row(
            row["job"], row["options"], row["status"], row["cyclic_garbage"]
        )
    passes_rows = collector_rows(passes, quick)
    collector = Table(
        ["pass", "pass s", "gc s", "gen0", "gen1", "gen2", "RSS MiB"],
        title="E22 — the cyclic collector per pass (collector on)",
    )
    for row in passes_rows:
        collector.add_row(
            row["pass"],
            row["pass_seconds"],
            row["gc_seconds"],
            row["gen0"],
            row["gen1"],
            row["gen2"],
            row["rss_mib"] if row["rss_mib"] is not None else "-",
        )
    return table, collector, {"jobs": garbage, "passes": passes_rows}


def total_cyclic_garbage(report) -> int:
    """The pinned count: cyclic-garbage objects over every job."""
    return sum(row["cyclic_garbage"] for row in report["jobs"])


if __name__ == "__main__":
    from repro._util import ensure_recursion_limit

    ensure_recursion_limit()
    table, collector, _ = run_report(quick=False, passes=5)
    print(table.render())
    print()
    print(collector.render())
