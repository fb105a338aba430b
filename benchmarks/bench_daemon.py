"""E19 (extra) — incremental daemon: warm delta vs cold re-analysis.

The always-on daemon (docs/DAEMON.md) keeps a project's LC' graph
warm and, on redefinition, retracts only the edges justified by the
replaced binding before running the close phase from the delta
worklist. This experiment measures the payoff on the paper's cubic
family (Section 10, Table 1), entered one binding at a time the way
an editor session would:

* **cold**: parse + build + close of the whole rendered program —
  what every keystroke costs without the daemon;
* **warm**: redefining one leaf binding (``x_n``) through the delta
  engine, envelope-equivalent to the cold run by construction
  (enforced in tests/test_daemon_delta.py).

The claim: warm cost tracks the *delta's* neighbourhood, not the
program, so the speedup grows with n while retraction counts stay
flat. The acceptance floor is 10x at the largest size.

A second table times the **open**: a fresh project that appends every
binding of cubic-n, against a cold analysis of the same rendered
program. A mutation splices only its own nid range into the live
tables and re-keys only the nodes after it (an append moves just the
terminal ``()``), so the open is linear: the time per definition stays
flat and each expression occurrence is written to the factory's
occurrence table once, plus one re-key per append.

A third table follows a long **edit history**: layerbench's seeded
``daemon_edit`` session (``layerbench/inputs.py``: a cubic-16 project,
then rounds of same-shape and shape-changing redefinitions, appends
and undefines, each round read back by ``analyze``), applied eight
times to one project. Each mutation frees the rows it retires, so
after every block the warm graph has exactly a cold analysis's rows,
holds about the heap a fresh replay of the same program does, and
never replays.
"""

import gc
import importlib.util
import statistics
import time
import tracemalloc
from pathlib import Path

import pytest

from repro.bench import Table, time_call
from repro.core.nodes import NodeFactory
from repro.daemon import ProjectAnalysis

SIZES = [5, 10, 20, 40]

#: Cubic-n sizes of the open table: 66 to 514 definitions.
OPEN_SIZES = [16, 32, 64, 128]

#: The warm redefinition target: a binder-free application binding,
#: always delta-eligible (no fresh-name consumption to shift).
REDEFINE_TEMPLATE = "b{n} (fs f{n})"


def cubic_bindings(n):
    """The size-``n`` cubic family as (name, source) define steps."""
    bindings = [("fs", "fn[fs] x => x"), ("bs", "fn[bs] x => x")]
    for i in range(1, n + 1):
        bindings.append((f"f{i}", f"fn[f{i}] x => x"))
        bindings.append((f"b{i}", f"fn[b{i}] x => x"))
        bindings.append((f"x{i}", f"b{i} (fs f{i})"))
        bindings.append((f"y{i}", f"(bs b{i}) f{i}"))
    return bindings


def warm_project(n):
    pa = ProjectAnalysis()
    for name, source in cubic_bindings(n):
        pa.define(name, source)
    return pa


def run_report(sizes=SIZES):
    table = Table(
        [
            "n",
            "defs",
            "edges",
            "cold t",
            "warm t",
            "speedup",
            "retracted",
            "fallbacks",
        ],
        title="E19 — daemon: warm redefine vs cold re-analysis",
    )
    rows = []
    for n in sizes:
        pa = warm_project(n)
        source = pa.render_source()

        cold_time = time_call(
            lambda: ProjectAnalysis.cold_cfa(source), repeat=3
        )

        target = f"x{n}"
        new_source = REDEFINE_TEMPLATE.format(n=n)
        reports = []
        warm_time = time_call(
            lambda: reports.append(pa.define(target, new_source)),
            repeat=3,
        )
        last = reports[-1]
        assert last["delta"] is True, last
        fallbacks = sum(pa.fallbacks.values())
        speedup = cold_time / warm_time if warm_time else float("inf")
        table.add_row(
            n,
            len(pa.defs),
            last["graph"]["edges"],
            cold_time,
            warm_time,
            f"{speedup:.1f}x",
            last["retracted_edges"],
            fallbacks,
        )
        rows.append(
            {
                "n": n,
                "defs": len(pa.defs),
                "edges": last["graph"]["edges"],
                "cold_time": cold_time,
                "warm_time": warm_time,
                "speedup": speedup,
                "retracted_edges": last["retracted_edges"],
                "retracted_close_edges": last["retracted_close_edges"],
                "fallbacks": fallbacks,
            }
        )
    return table, rows


def occurrence_writes(n):
    """How many times opening cubic-``n`` writes an expression
    occurrence into the factory's tables (``record_expr`` calls)."""
    calls = [0]
    original = NodeFactory.record_expr

    def counting(self, expr, context, node):
        calls[0] += 1
        original(self, expr, context, node)

    NodeFactory.record_expr = counting
    try:
        pa = warm_project(n)
    finally:
        NodeFactory.record_expr = original
    return calls[0], pa


def open_report(sizes=OPEN_SIZES):
    """Time the in-process open of cubic-n against a cold analysis of
    the rendered program; count its occurrence-table writes."""
    table = Table(
        [
            "n",
            "defs",
            "size",
            "open t",
            "per def",
            "cold t",
            "open/cold",
            "occ writes",
        ],
        title="E19 — daemon: opening a project, one append per definition",
    )
    rows = []
    for n in sizes:
        writes, pa = occurrence_writes(n)
        source = pa.render_source()
        open_time = time_call(lambda: warm_project(n), repeat=3)
        cold_time = time_call(
            lambda: ProjectAnalysis.cold_cfa(source), repeat=3
        )
        defs = len(pa.defs)
        table.add_row(
            n,
            defs,
            pa.program.size,
            open_time,
            open_time / defs,
            cold_time,
            f"{open_time / cold_time:.1f}x",
            writes,
        )
        rows.append(
            {
                "n": n,
                "defs": defs,
                "size": pa.program.size,
                "open_time": open_time,
                "per_def": open_time / defs,
                "cold_time": cold_time,
                "open_over_cold": open_time / cold_time,
                "occurrence_writes": writes,
            }
        )
    return table, rows


#: How many times the history table applies the session to one project.
HISTORY_BLOCKS = 8


def daemon_session(seed=0):
    """layerbench's seeded ``daemon_edit`` session: its ``load`` (the
    cubic-16 bindings) and its ``ops``."""
    path = Path(__file__).resolve().parents[1] / "layerbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("layerbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.session(seed)


def _open(session):
    pa = ProjectAnalysis()
    for name, source in session["load"]:
        pa.define(name, source)
    return pa


def _apply(pa, ops, mutate, analyze):
    """The session's edits, timed into ``mutate``, and an ``envelope``
    per ``analyze`` read, timed into ``analyze`` (lint and query reads
    are skipped)."""
    for op in ops:
        verb = op["verb"]
        start = time.perf_counter()
        if verb == "define":
            pa.define(op["name"], op["source"])
        elif verb == "undefine":
            pa.undefine(op["name"])
        elif verb == "analyze":
            pa.envelope()
        else:
            continue
        times = analyze if verb == "analyze" else mutate
        times.append(time.perf_counter() - start)


def _traced_bytes():
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def history_report(blocks=HISTORY_BLOCKS, seed=0):
    """Apply the ``daemon_edit`` session's ops ``blocks`` times to one
    project opened with its load. Per block: the warm graph's rows
    against a cold analysis of the same program, replays so far, the
    heap the project holds against a fresh replay of the same program
    (tracemalloc, from a second, traced pass) and the block's mutation
    and ``analyze`` medians (from the untraced pass)."""
    table = Table(
        [
            "block",
            "rows",
            "cold nodes",
            "replays",
            "held KiB",
            "replay KiB",
            "mutate p50",
            "analyze p50",
        ],
        title="E19 — daemon: one project through a long edit history",
    )
    session = daemon_session(seed)
    rows = []
    pa = _open(session)
    for block in range(1, blocks + 1):
        mutate, analyze = [], []
        _apply(pa, session["ops"], mutate, analyze)
        cold = ProjectAnalysis.cold_cfa(pa.render_source())
        rows.append(
            {
                "block": block,
                "rows": pa.engine.graph.node_count,
                "row_arrays": len(pa.engine.graph._succ),
                "cold_nodes": cold.graph.node_count,
                "replays": sum(pa.fallbacks.values()),
                "mutate_p50": statistics.median(mutate),
                "analyze_p50": statistics.median(analyze),
            }
        )
    tracemalloc.start()
    try:
        base = _traced_bytes()
        pa = _open(session)
        for row in rows:
            _apply(pa, session["ops"], [], [])
            row["held_bytes"] = _traced_bytes() - base
            before = _traced_bytes()
            fresh = ProjectAnalysis()
            for entry in pa.defs:
                fresh.define(entry.name, entry.source)
            row["replay_bytes"] = _traced_bytes() - before
            del fresh
    finally:
        tracemalloc.stop()
    for row in rows:
        table.add_row(
            row["block"],
            row["rows"],
            row["cold_nodes"],
            row["replays"],
            row["held_bytes"] // 1024,
            row["replay_bytes"] // 1024,
            row["mutate_p50"],
            row["analyze_p50"],
        )
    return table, rows


def history_counts(rows):
    """The history table's exact counts, for the CI count gate."""
    return {
        "daemon.history.rows": rows[-1]["rows"],
        "daemon.history.peak_rows": max(row["rows"] for row in rows),
        "daemon.history.peak_row_arrays": max(
            row["row_arrays"] for row in rows
        ),
        "daemon.history.replays": rows[-1]["replays"],
    }


@pytest.mark.parametrize("n", [5, 20])
def test_warm_redefine(benchmark, n):
    pa = warm_project(n)
    new_source = REDEFINE_TEMPLATE.format(n=n)
    benchmark(lambda: pa.define(f"x{n}", new_source))


@pytest.mark.parametrize("n", [5, 20])
def test_cold_analysis(benchmark, n):
    source = warm_project(n).render_source()
    benchmark(lambda: ProjectAnalysis.cold_cfa(source))


def test_daemon_shape():
    _, rows = run_report(sizes=[5, 10, 20])
    for row in rows:
        # The delta never falls back on the cubic family: the
        # redefined binding is binder-free.
        assert row["fallbacks"] == 0, row
    # Retractions track the replaced binding's neighbourhood, not the
    # program: flat (within noise) while the graph grows ~4x.
    first, last = rows[0], rows[-1]
    assert last["edges"] > 2 * first["edges"]
    assert last["retracted_edges"] <= 2 * max(first["retracted_edges"], 8)
    # The speedup grows with n and clears the acceptance floor at the
    # largest size measured here.
    assert last["speedup"] >= 10, rows


def test_open_shape():
    _, rows = open_report(sizes=[8, 16, 32])
    for row in rows:
        # Each occurrence is written once, and each append but the
        # first re-keys the terminal it moved: linear, not quadratic.
        assert row["occurrence_writes"] == row["size"] + row["defs"] - 1


def test_history_shape():
    _, rows = history_report(blocks=2)
    for row in rows:
        # Every block ends on the same program: the graph has a cold
        # analysis's rows, holds no more heap than about twice a fresh
        # replay's, and never replays.
        assert row["rows"] == row["cold_nodes"], row
        assert row["row_arrays"] <= 2 * row["cold_nodes"], row
        assert row["held_bytes"] <= 2 * row["replay_bytes"], row
        assert row["replays"] == 0, row


if __name__ == "__main__":
    table, rows = run_report()
    print(table.render())
    table, _ = open_report()
    print(table.render())
    table, _ = history_report()
    print(table.render())
    last = rows[-1]
    print(
        f"n={last['n']}: warm {last['warm_time']:.6f}s vs "
        f"cold {last['cold_time']:.6f}s — {last['speedup']:.1f}x, "
        f"{last['retracted_edges']} edges retracted"
    )
