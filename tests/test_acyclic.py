"""A finished analysis is freed by reference counting.

Every object a job builds refers only to what it was built from: an
operator node to its inner node (the factory owns the map of operators
over a node), a type to its children, a kept inference error to no
frames. Dropping a result therefore frees all of it without CPython's
cyclic collector. With the collector off and ``gc.DEBUG_SAVEALL`` on,
a collection after each workload below must find nothing.
"""

import asyncio
import gc
import glob
import json

import pytest

import repro
from repro.daemon.delta import ProjectAnalysis
from repro.daemon.server import DaemonServer
from repro.lang.printer import pretty_program
from repro.serve.cache import canonical_options
from repro.serve.worker import run_job
from repro.workloads.cubic import make_cubic_source, make_unbounded_source
from repro.workloads.generators import (
    make_joinpoint_program,
    random_typed_program,
)
from repro.workloads.synthetic import make_synthetic_program

OMEGA = "(fn[w] x => x x) (fn[w2] y => y y)\n"

JOBS = {
    "cubic": lambda: make_cubic_source(8),
    "joinpoint": lambda: pretty_program(make_joinpoint_program(8, True)),
    "random-typed": lambda: pretty_program(random_typed_program(3, fuel=40)),
    "life": lambda: pretty_program(make_synthetic_program(1, "life")),
    "lexgen": lambda: pretty_program(make_synthetic_program(1, "lexgen")),
    "unbounded-types": lambda: make_unbounded_source(4),
    "budget-fallback": lambda: OMEGA,
    "inference-fallback": lambda: (
        "datatype intlist = Nil | Cons of int * intlist;\n" + OMEGA
    ),
}

OPTIONS = {
    "plain": {"algorithm": "hybrid"},
    "sections": {
        "algorithm": "hybrid", "lint": True, "audit": True, "sanitize": True,
    },
    "subtransitive": {"algorithm": "subtransitive", "lint": True},
}


def cyclic_garbage(run):
    """The objects ``run()`` leaves that only the cyclic collector can
    free (each described by its type)."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return sorted({type(obj).__qualname__ for obj in gc.garbage})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


@pytest.mark.parametrize("options", sorted(OPTIONS))
@pytest.mark.parametrize("job", sorted(JOBS))
def test_run_job_leaves_no_cycles(job, options):
    payload = {
        "source": JOBS[job](),
        "options": canonical_options(OPTIONS[options]),
    }
    first = run_job(payload)  # first-use caches are not garbage
    assert first["status"] in ("ok", "degraded"), first["error"]
    if job.endswith("fallback") and options != "subtransitive":
        assert first["status"] == "degraded"
    assert cyclic_garbage(lambda: run_job(payload)) == []


def test_profiled_job_leaves_no_cycles():
    payload = {
        "source": JOBS["cubic"](),
        "options": canonical_options(OPTIONS["sections"]),
        "profile": True,
    }
    assert run_job(payload)["profile"]
    assert cyclic_garbage(lambda: run_job(payload)) == []


EXAMPLES = sorted(glob.glob("examples/*.lam"))


@pytest.mark.parametrize("algorithm", sorted(repro._ALGORITHMS))
def test_every_algorithm_leaves_no_cycles(algorithm):
    assert EXAMPLES
    sources = [open(path, encoding="utf-8").read() for path in EXAMPLES]

    def run():
        for source in sources:
            try:
                repro.analyze(repro.parse(source), algorithm=algorithm)
            except repro.ReproError:
                pass  # a budget abort or an untypeable datatype program

    run()
    assert cyclic_garbage(run) == []


def test_warm_project_serves_every_verb_without_cycles():
    project = ProjectAnalysis()
    for name, source in [
        ("fs", "fn[fs] x => x"),
        ("f1", "fn[f1] x => x"),
        ("b1", "fn[b1] x => x"),
        ("x1", "b1 (fs f1)"),
        ("loop", "fn[loop] n => if n < 1 then 0 else loop (n - 1)"),
    ]:
        project.define(name, source)
    project.lint()
    verbs = [
        ("splice", lambda: project.define("x1", "f1 (fs b1)")),
        ("dred", lambda: project.define("x1", "b1 (fs (fs f1))")),
        ("append", lambda: project.define("z", "fs f1")),
        ("undefine", lambda: project.undefine("z")),
        ("analyze", project.envelope),
        ("lint", project.lint),
        ("audit", project.linearity_audit),
        ("sanitize", project.sanitize),
        ("query-name", lambda: project.query_name("x1")),
        ("query-label", lambda: project.query_label("fs")),
        ("render", project.render_source),
        ("rename-shift", lambda: project.define("fs", "fn[fs] x_1 => x_1")),
    ]
    for verb, serve in verbs:
        assert cyclic_garbage(serve) == [], verb


def test_daemon_requests_leave_no_cycles(tmp_path):
    """Each request binds its own span profiler; the span tree it
    drops must not be a cycle either."""
    server = DaemonServer(socket_path=str(tmp_path / "unused.sock"))
    requests = [
        {"verb": "define", "name": "fs", "source": "fn[fs] x => x"},
        {"verb": "define", "name": "f1", "source": "fn[f1] x => x"},
        {"verb": "define", "name": "x1", "source": "fs f1"},
        {"verb": "analyze"},
        {"verb": "lint"},
        {"verb": "query", "label": "fs"},
        {"verb": "define", "name": "x1", "source": "fs (fs f1)"},
        {"verb": "undefine", "name": "x1"},
    ]

    async def serve():
        found = {}
        for number, request in enumerate(requests):
            line = json.dumps(
                dict(
                    request, id=number, schema="repro.daemon/1",
                    record="request", project="p",
                )
            ).encode()
            # The request runs inside this one task, so the collection
            # sees only what the request itself left.
            gc.collect()
            gc.disable()
            gc.set_debug(gc.DEBUG_SAVEALL)
            try:
                reply = await server.dispatch_line(line)
                gc.collect()
                found[request["verb"] + str(number)] = sorted(
                    {type(obj).__qualname__ for obj in gc.garbage}
                )
            finally:
                gc.set_debug(0)
                gc.garbage.clear()
                gc.enable()
            assert reply["status"] == "ok", reply
        return found

    found = asyncio.run(serve())
    assert all(not garbage for garbage in found.values()), found
