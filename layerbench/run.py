"""Layer-attributed benchmark of the repro stack.

Usage, from the root of a checkout::

    python3 layerbench/run.py --workload cold_analyze --seed 0 \\
        --seconds 50 --trace 0
    python3 layerbench/run.py --workload all        # every workload

Workloads (see ``BENCHMARK.json`` and ``README.md`` beside this file):

* ``cold_analyze``: a seeded 200-program corpus through the batch
  worker (``run_job``, hybrid) in one fresh process;
* ``daemon_edit``: fresh ``repro daemon`` processes, each driven by
  one closed-loop ``DaemonClient`` through the same seeded edit
  session (project load by appends, then a fixed operation count).

``--trace 0`` measures with tracing off and prints the end-to-end
metrics. ``--trace 1`` alternates untraced and traced passes (cold) or
sessions (daemon) on the same seed and prints per-layer self times
(medians per pass or session), exact counts (one pass or session) and
the tracing overhead. Either way every output is checked against an
oracle outside the timed region, and the last line of standard output
is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Set

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".layerbench_cache"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("cold_analyze", "daemon_edit")

#: Alternating untraced/traced children (cold) in a traced run.
TRACE_SLICES = 4

#: Set-up samples per run (the median is reported).
SETUP_SAMPLES = 7

READ_VERBS = ("analyze", "lint", "query")


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (nearest rank, sorted copy)."""
    ordered = sorted(values)
    index = max(0, min(len(ordered) - 1, -(-q * len(ordered) // 100) - 1))
    return ordered[index]


def mix(kinds: List[str]) -> str:
    """``kind count`` pairs, most frequent first."""
    counts: Dict[str, int] = {}
    for kind in kinds:
        counts[kind] = counts.get(kind, 0) + 1
    ordered = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return ", ".join(f"{kind} {count}" for kind, count in ordered)


def pool_lines(times: List[float], kinds: List[str]) -> List[str]:
    """What the pooled ``p50_ms``/``p95_ms`` are made of: every
    operation by kind, and the kinds at or above each percentile."""
    p50, p95 = percentile(times, 50), percentile(times, 95)
    return [
        f"  pooled for p50/p95: {mix(kinds)}",
        f"  at or above p50: {mix([k for t, k in zip(times, kinds) if t >= p50])}",
        f"  at or above p95: {mix([k for t, k in zip(times, kinds) if t >= p95])}",
    ]


# -- cold_analyze ---------------------------------------------------------------------


def launch_child(extra: List[str], timeout: float) -> float:
    """Run one ``child.py`` to completion; returns its set-up time
    (launch to its ``ready`` line)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py")] + extra,
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"cold child failed (exit {code})")
    return setup


def run_child(corpus_path: Path, seconds: float, trace: bool):
    """One measuring child; returns ``(set-up seconds, result dict)``."""
    out = CACHE / f"child-{os.getpid()}.json"
    extra = ["--corpus", str(corpus_path), "--seconds", str(seconds), "--out", str(out)]
    if trace:
        extra.append("--trace")
    setup = launch_child(extra, timeout=170)
    with open(out, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    out.unlink()
    result = json.loads(lines[-1])
    result["answers"] = [json.loads(line)["answer"] for line in lines[:-1]]
    return setup, result


class Checks:
    """Operation and failure counts for the result line."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(what)

    def problem(self, what: str) -> None:
        self.problems.append(what)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def check_outputs(result, corpus, refs: list, may_add: Set[str], checks: Checks) -> None:
    """First-pass answers against the references (containment only
    for the programs in ``may_add``), later passes against the first."""
    from oracles import matches

    answers = result["answers"]
    for program, got, wanted in zip(corpus, answers, refs):
        ok = matches(got, wanted, program["name"] in may_add)
        checks.op(ok, f"{program['name']}: output differs from its reference")
    first = [a if isinstance(a, str) else inputs.digest(a) for a in answers]
    for record in result["passes"][1:]:
        for program, got, want in zip(corpus, record["digests"], first):
            checks.op(got == want, f"{program['name']}: output changed between passes")


def cold_run(corpus, may_add: Set[str], seconds: float, trace: bool, cache):
    import oracles

    checks = Checks()
    corpus_path = CACHE / f"corpus-{os.getpid()}.json"
    with open(corpus_path, "w", encoding="utf-8") as handle:
        json.dump(corpus, handle)
    try:
        refs = oracles.analyze_refs(corpus, cache)
        cache.save()
        if not trace:
            setups = [
                launch_child(["--probe"], timeout=60) for _ in range(SETUP_SAMPLES - 1)
            ]
            setup, result = run_child(corpus_path, seconds, False)
            setups.append(setup)
            check_outputs(result, corpus, refs, may_add, checks)
            return checks, cold_metrics(corpus, setups, result, cache)
        # Untraced and traced children alternate, so a slow spell on
        # the machine lands on both sides of the overhead figure.
        plain, traced = [], []
        for index in range(TRACE_SLICES):
            side = traced if index % 2 else plain
            _, result = run_child(corpus_path, seconds / TRACE_SLICES, bool(index % 2))
            check_outputs(result, corpus, refs, may_add, checks)
            side.extend(result["passes"])
        return checks, layer_metrics(
            [p["layers"] for p in traced],
            [sum(p["latencies"]) for p in traced],
            sum(best_of([p["latencies"] for p in traced]))
            / sum(best_of([p["latencies"] for p in plain])),
            {},
            checks,
        )
    finally:
        corpus_path.unlink()


def best_of(runs: List[List[float]]) -> List[float]:
    """Each operation's fastest time over repeats of the same sequence:
    on a shared machine, the least-disturbed measurement of its cost.
    Throughput is taken the same way, from the fastest whole repeat:
    on a shared two-vCPU machine the median repeat's throughput varied
    between runs by more than the metric's bound (see README.md)."""
    return [min(times) for times in zip(*runs)]


def cold_metrics(corpus, setups, result, cache) -> Dict[str, float]:
    """``load_s`` and the percentiles take each program at its best
    over the passes; ``ops_per_s`` is the throughput of the fastest
    whole pass."""
    passes = result["passes"]
    best = best_of([p["latencies"] for p in passes])
    fastest = min(sum(p["latencies"]) for p in passes)
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["maxrss_kb"] / 1024.0,
        "load_s": sum(best),
        "p50_ms": 1000.0 * statistics.median(best),
        "p95_ms": 1000.0 * percentile(best, 95),
        "ops_per_s": len(corpus) / fastest,
        # Reported in the summary only (not listed in BENCHMARK.json):
        "nodes_per_s": corpus_nodes(corpus, cache) / fastest,
        "pool": pool_lines(best, [p["family"] for p in corpus]),
    }


def corpus_nodes(corpus, cache) -> int:
    """AST nodes of the corpus (``Program.size`` summed)."""
    import repro

    return sum(
        cache.get("size", p["source"], lambda s: repro.parse(s).size)
        for p in corpus
    )


# -- daemon workload ------------------------------------------------------------------


class Session:
    """One fresh daemon driven through the seeded session."""

    def __init__(self, session: dict, refs: dict, trace: bool, index: int) -> None:
        self.session = session
        self.refs = refs
        self.trace = trace
        self.socket = f".layerbench_cache/d{os.getpid()}-{index}.sock"
        self.out = CACHE / f"daemon-{os.getpid()}-{index}.json"

    def run(self, checks: Checks) -> dict:
        from repro.daemon.client import DaemonClient, DaemonError

        command = [
            sys.executable, str(HERE / "daemon_main.py"),
            "--socket", self.socket, "--out", str(self.out),
        ]
        if self.trace:
            command.append("--trace")
        start = time.perf_counter()
        proc = subprocess.Popen(command, cwd=ROOT, env=child_env())
        try:
            client = self._connect(proc, DaemonClient)
            with client:
                client.status()
                setup = time.perf_counter() - start
                if self.trace:
                    # The client's half of the protocol layer, recorded
                    # in this process over the measured requests only.
                    recorder = spans.Recorder()
                    restore = spans.install_client(recorder)
                    try:
                        record = self._drive(client, DaemonError, checks)
                    finally:
                        restore()
                    record["client_layers"] = recorder.snapshot()
                else:
                    record = self._drive(client, DaemonError, checks)
                record["setup_s"] = setup
                source = client.source("bench")["source"]
                if source != self.refs["final_source"]:
                    checks.problem("daemon source differs from the session model")
                status = client.status()
                record["events_emitted"] = status["events"]["emitted"]
                client.shutdown()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0:
            raise RuntimeError(f"daemon exited with {code}")
        with open(self.out, encoding="utf-8") as handle:
            record.update(json.load(handle))
        self.out.unlink()
        return record

    def _connect(self, proc, client_cls):
        deadline = time.perf_counter() + 60
        while True:
            try:
                return client_cls(socket_path=self.socket, timeout=60)
            except (FileNotFoundError, ConnectionRefusedError):
                if proc.poll() is not None or time.perf_counter() > deadline:
                    raise RuntimeError("daemon did not start")
                time.sleep(0.002)

    def _drive(self, client, error_cls, checks: Checks) -> dict:
        from oracles import reply_digest

        clock = time.perf_counter
        rid = 0

        def call(verb: str, **fields):
            nonlocal rid
            rid += 1
            start = clock()
            try:
                reply = client.request(
                    verb, project="bench", request_id=f"lb{rid:06d}", **fields
                )
            except error_cls as error:
                reply = error
            return clock() - start, reply

        load_start = clock()
        load_rtts = []
        last_mutation = None
        for name, source in self.session["load"]:
            rtt, reply = call("define", name=name, source=source)
            load_rtts.append(rtt)
            checks.op(not isinstance(reply, Exception), f"load {name}: {reply}")
            last_mutation = reply
        load_s = clock() - load_start
        ops_start = clock()
        results = []
        for op in self.session["ops"]:
            fields = {k: v for k, v in op.items() if k != "verb"}
            rtt, reply = call(op["verb"], **fields)
            results.append((op["verb"], rtt, reply))
        ops_wall = clock() - ops_start
        kinds = []
        for (verb, rtt, reply), expected in zip(results, self.refs["expected"]):
            if isinstance(reply, Exception):
                kinds.append(verb)
                checks.op(False, f"{verb}: {reply}")
                continue
            if verb in READ_VERBS:
                kinds.append(verb)
            else:
                # The path the daemon took: define:splice, define:delta...
                kinds.append(f"{reply['op']}:{reply['mode']}")
                last_mutation = reply
            checks.op(
                reply_digest(verb, reply) == expected,
                f"{verb} reply differs from a cold analysis",
            )
        return {
            "load": load_rtts,
            "rtts": [rtt for _, rtt, _ in results],
            "kinds": kinds,
            "ops_wall": ops_wall,
            "rtt_total": sum(load_rtts) + sum(r[1] for r in results),
            "wall": load_s + ops_wall,
            "warm_nodes": last_mutation["graph"]["nodes"]
            if isinstance(last_mutation, dict)
            else 0,
        }


def daemon_run(session: dict, seconds: float, trace: bool, cache):
    import oracles

    checks = Checks()
    refs = oracles.session_refs(session, cache)
    cache.save()
    records: List[dict] = []
    traced: List[dict] = []
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        plain = Session(session, refs, False, index).run(checks)
        records.append(plain)
        index += 1
        if trace:
            traced.append(Session(session, refs, True, index).run(checks))
            index += 1
        if time.perf_counter() >= deadline:
            break
    if trace:
        return checks, daemon_layer_metrics(records, traced, refs, checks)
    setups = [r["setup_s"] for r in records]
    empty = {"load": [], "ops": []}
    while len(setups) < SETUP_SAMPLES:
        # Too few sessions for a set-up median: time more launches.
        probe = Session(empty, {"expected": [], "final_source": inputs.render([])}, False, index)
        setups.append(probe.run(checks)["setup_s"])
        index += 1
    return checks, daemon_metrics(records, setups)


def daemon_metrics(records: List[dict], setups: List[float]) -> Dict[str, float]:
    """Every session replays the same operations, so each operation's
    time is its best over the sessions (see :func:`best_of`) for
    ``load_s`` and the percentiles; ``ops_per_s`` is the fastest
    session's requests over its wall time after the load."""
    ops = best_of([r["rtts"] for r in records])
    kinds = records[0]["kinds"]
    read = [t for t, kind in zip(ops, kinds) if kind in READ_VERBS]
    mutate = [t for t, kind in zip(ops, kinds) if kind not in READ_VERBS]
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in records) / 1024.0,
        "load_s": sum(best_of([r["load"] for r in records])),
        "p50_ms": 1000.0 * statistics.median(ops),
        "p95_ms": 1000.0 * percentile(ops, 95),
        "ops_per_s": max(len(r["kinds"]) / r["ops_wall"] for r in records),
        # Reported in the summary only (not listed in BENCHMARK.json):
        "mutate_p50_ms": 1000.0 * statistics.median(mutate),
        "mutate_p95_ms": 1000.0 * percentile(mutate, 95),
        "read_p50_ms": 1000.0 * statistics.median(read),
        "read_p95_ms": 1000.0 * percentile(read, 95),
        "pool": pool_lines(ops, kinds),
    }


def daemon_layer_metrics(records, traced, refs, checks: Checks) -> Dict[str, float]:
    """The daemon's and the client's layer times per traced session.
    Transport is what the round trips leave once every span on either
    end of the socket is taken out: socket, kernel and event loop."""
    layers = []
    for record in traced:
        layer, client = record["layers"], record["client_layers"]
        for name, seconds in client["self_s"].items():
            layer["self_s"][name] += seconds
        layer["self_s"]["daemon.transport"] = (
            record["rtt_total"] - layer["outermost_s"] - client["outermost_s"]
        )
        layer["counts"]["delta.warm_nodes"] = record["warm_nodes"]
        layer["counts"]["events.emitted"] = record["events_emitted"]
        layers.append(layer)
    extra = {"delta.cold_nodes": refs["cold_nodes"]}
    plain = daemon_metrics(records, [0.0])
    extra.update(
        {
            f"daemon.{key}": plain[key]
            for key in ("mutate_p50_ms", "mutate_p95_ms", "read_p50_ms", "read_p95_ms")
        }
    )

    def best_total(sessions):
        return sum(best_of([r["rtts"] for r in sessions]))

    return layer_metrics(
        layers,
        [r["wall"] for r in traced],
        best_total(traced) / best_total(records),
        extra,
        checks,
    )


# -- per-layer metrics ---------------------------------------------------------------


def layer_metrics(layers, walls, slowdown, extra, checks: Checks):
    """Per-layer self times (median per pass or session), the exact
    counts of the first traced pass or session, attribution and
    overhead (``slowdown``: traced over untraced time of the same
    operations, each at its best).

    Attribution counts only the layers that are not catch-alls
    (``spans.CATCH_ALL``); ``other_s`` is the rest of the traced wall
    time, the catch-alls' self time included."""
    metrics: Dict[str, float] = {}
    time_names = dict(spans.LAYER_TIMES, **{"daemon.transport": "daemon.transport_s"})
    for layer, name in time_names.items():
        metrics[name] = statistics.median(l["self_s"].get(layer, 0.0) for l in layers)
    named = [
        sum(l["self_s"].get(layer, 0.0) for layer in time_names if layer not in spans.CATCH_ALL)
        for l in layers
    ]
    metrics["other_s"] = statistics.median(wall - n for n, wall in zip(named, walls))
    attributed = [n / wall for n, wall in zip(named, walls)]
    counts = dict(layers[0]["counts"])
    for later in layers[1:]:
        if later["counts"] != counts:
            checks.problem("exact counts differ between traced passes")
    for name in spans.COUNTS + ["delta.warm_nodes", "delta.cold_nodes", "events.emitted"]:
        metrics[name] = counts.get(name, 0)
    for name in ("daemon.mutate_p50_ms", "daemon.mutate_p95_ms",
                 "daemon.read_p50_ms", "daemon.read_p95_ms"):
        metrics[name] = 0.0
    metrics.update(extra)
    metrics["trace.wall_s"] = statistics.median(walls)
    metrics["trace.attributed"] = statistics.median(attributed)
    metrics["trace.overhead"] = slowdown - 1.0
    return metrics


# -- output ---------------------------------------------------------------------------


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def result_line(checks: Checks, metrics: Dict[str, float], trace: bool) -> dict:
    spec = load_benchmark()["per_layer" if trace else "end_to_end"]
    return {
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec
        },
    }


#: Workload-specific names of the end-to-end figures, for the summary.
SUMMARY = {
    "cold_analyze": [
        ("setup_s", "setup_s", "s"), ("peak_rss_mb", "peak_rss_mb", "MiB"),
        ("failed_share", None, "ratio"), ("program_p50_ms", "p50_ms", "ms"),
        ("program_p95_ms", "p95_ms", "ms"), ("nodes_per_s", "nodes_per_s", "nodes/s"),
    ],
    "daemon_edit": [
        ("setup_s", "setup_s", "s"), ("peak_rss_mb", "peak_rss_mb", "MiB"),
        ("failed_share", None, "ratio"), ("mutate_p50_ms", "mutate_p50_ms", "ms"),
        ("mutate_p95_ms", "mutate_p95_ms", "ms"), ("read_p50_ms", "read_p50_ms", "ms"),
        ("read_p95_ms", "read_p95_ms", "ms"), ("requests_per_s", "ops_per_s", "1/s"),
        ("load_s", "load_s", "s"),
    ],
}


def summary_lines(workload: str, seed: int, checks: Checks, metrics, trace: bool):
    head = (
        f"{workload} seed={seed} trace={int(trace)}: "
        f"{checks.attempted} operations, {checks.failed} failed"
    )
    lines = [head]
    lines += [f"  problem: {p}" for p in checks.problems]
    if trace:
        for name in sorted(metrics):
            lines.append(f"  {name} = {metrics[name]:.6g}")
        return lines
    share = checks.failed / max(checks.attempted, 1)
    for label, key, unit in SUMMARY[workload]:
        value = share if key is None else metrics[key]
        lines.append(f"  {label} = {value:.6g} {unit}")
    return lines + metrics["pool"]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, pins):
    import oracles

    cache = oracles.Cache(CACHE / f"refs-{oracles.code_version(SRC / 'repro')}.json")
    if workload == "daemon_edit":
        made, pinned = inputs.session(seed), pins["session"].get(str(seed))
        checks, metrics = daemon_run(made, seconds, trace, cache)
    else:
        made, pinned = inputs.corpus(seed), pins["corpus"].get(str(seed))
        checks, metrics = cold_run(made, may_add_labels(made, pins, seed), seconds, trace, cache)
    if pinned is not None and pinned != inputs.digest(made):
        checks.problem("generated inputs differ from the pinned digest")
    return checks, metrics


def may_add_labels(corpus, pins, seed: int) -> Set[str]:
    """The programs the cold oracle checks by containment: those
    pinned for the seed, or, for a seed outside the pins, every random
    program (the family programs are the same in every seed, and no
    pin names one)."""
    pinned = pins["adds_labels"].get(str(seed))
    if pinned is not None:
        return set(pinned)
    print(f"seed {seed} is not pinned: random programs are checked by containment")
    return {p["name"] for p in corpus if p["family"] == "random"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    CACHE.mkdir(exist_ok=True)
    from repro._util import ensure_recursion_limit

    ensure_recursion_limit()
    with open(HERE / "pins.json", encoding="utf-8") as handle:
        pins = json.load(handle)
    trace = bool(args.trace)
    seconds = args.seconds or load_benchmark()["run_seconds"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {}
    for workload in workloads:
        checks, metrics = run_workload(workload, args.seed, seconds, trace, pins)
        for line in summary_lines(workload, args.seed, checks, metrics, trace):
            print(line, flush=True)
        combined[workload] = result_line(checks, metrics, trace)
    if args.workload == "all":
        print(json.dumps(combined, sort_keys=True))
    else:
        print(json.dumps(combined[args.workload], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
