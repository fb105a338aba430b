"""The process that runs the cold workload.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``. It imports the
entry modules, makes one warm-up call on a trivial program and prints
``ready`` (the end of set-up). With ``--probe`` it stops there.
Otherwise it reads the corpus, runs whole passes over it until
``--seconds`` have passed (at least one), and writes to ``--out`` one
JSON line per program with its first-pass answer, then one line with
per-pass latencies and answer digests, per-pass layer snapshots
(``--trace``) and its peak RSS.

The path measured is ``repro batch``'s worker with the shipped
defaults (no backend or implementation argument): ``run_job`` with the
hybrid algorithm, source text in, ``repro.result/1`` envelope and its
fingerprint out.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import inputs

TRIVIAL = "let id = fn[id] x => x in id (fn[g] y => y)\n"


def analyze_entry():
    from repro.serve.cache import canonical_options
    from repro.serve.worker import run_job

    options = canonical_options({"algorithm": "hybrid"})

    def run(source: str):
        return run_job({"source": source, "options": options})

    def check(response):
        envelope = response.get("envelope")
        if response["status"] not in ("ok", "degraded") or envelope is None:
            return "error"
        return analysis_answer(envelope)

    return run, check


def analysis_answer(envelope: dict) -> dict:
    """What the analysis oracle checks: the engine that answered, each
    call site's callees and each label's flow set."""
    return {
        "engine": envelope["engine"]["name"],
        "call_graph": {
            nid: entry["callees"] for nid, entry in envelope["call_graph"].items()
        },
        "label_flows": envelope["label_flows"],
    }


def peak_rss_kb() -> int:
    """This process's peak resident set (``VmHWM``). Not ``ru_maxrss``:
    Linux carries that across ``exec`` from the forking parent."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--corpus")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    from repro._util import ensure_recursion_limit

    ensure_recursion_limit()
    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    run, check = analyze_entry()
    check(run(TRIVIAL))
    print("ready", flush=True)
    if args.probe:
        return 0

    with open(args.corpus, encoding="utf-8") as handle:
        corpus = json.load(handle)
    with open(args.out, "w", encoding="utf-8") as out:
        passes = run_passes(corpus, run, check, recorder, args.seconds, out)
        summary = {
            "passes": passes,
            "maxrss_kb": peak_rss_kb(),
        }
        out.write(json.dumps(summary) + "\n")
    return 0


def run_passes(corpus, run, check, recorder, seconds: float, out):
    """Whole passes over ``corpus`` until ``seconds`` have passed.

    The first pass's answers stream to ``out`` one JSON line per
    program, so they never accumulate in this process (its peak RSS is
    a reported metric); later passes keep only answer digests, which
    the parent compares with the first pass."""
    deadline = time.perf_counter() + seconds
    clock = time.perf_counter
    passes = []
    while not passes or clock() < deadline:
        latencies = []
        digests = []
        before = recorder.snapshot() if recorder is not None else None
        for program in corpus:
            start = clock()
            output = run(program["source"])
            latencies.append(clock() - start)
            answer = check(output)
            if passes:
                digests.append(
                    answer if isinstance(answer, str) else inputs.digest(answer)
                )
            else:
                out.write(json.dumps({"answer": answer}) + "\n")
        record = {"latencies": latencies, "digests": digests}
        if recorder is not None:
            record["layers"] = _delta(before, recorder.snapshot())
        passes.append(record)
    return passes


def _delta(before, after):
    return {
        section: (
            {key: value[key] - before[section][key] for key in value}
            if isinstance(value, dict)
            else value - before[section]
        )
        for section, value in after.items()
    }


if __name__ == "__main__":
    sys.exit(main())
