"""Reference answers for the correctness checks, computed outside
every timed region.

* ``cold_analyze``: call graph and label flows of the cubic standard
  algorithm (``repro.cfa.standard``), which Propositions 1-2 say LC'
  must equal. The one exception is pinned: on a datatype program the
  default datatype congruence may soundly add labels, and ``pins.json``
  names, per seed, the programs where it does.
* ``daemon_edit``: a cold analysis and a cold ``repro lint`` of the
  program the session has defined at each read, rendered exactly as
  the daemon's ``source`` verb renders it.

Answers are cached in the checkout by source digest, keyed by a digest
of the package's source tree, so a changed program never reuses them.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional

import inputs
from child import analysis_answer


def code_version(src: Path) -> str:
    """Digest of every Python file of the package under ``src``."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class Cache:
    """A JSON map from ``kind:source-digest`` to a reference answer."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.entries: Dict[str, str] = {}
        if path.exists():
            with open(path, encoding="utf-8") as handle:
                self.entries = json.load(handle)
        self.dirty = False

    def get(self, kind: str, source: str, compute):
        key = kind + ":" + hashlib.sha256(source.encode("utf-8")).hexdigest()
        value = self.entries.get(key)
        if value is None:
            value = self.entries[key] = compute(source)
            self.dirty = True
        return value

    def save(self) -> None:
        if self.dirty:
            tmp = self.path.with_suffix(".tmp")
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(self.entries, handle)
            os.replace(tmp, self.path)
            self.dirty = False


def standard_answer(source: str) -> dict:
    import repro
    from repro.cfa.standard import analyze_standard
    from repro.export import result_to_dict

    return analysis_answer(result_to_dict(analyze_standard(repro.parse(source))))


SECTIONS = ("call_graph", "label_flows")


def contains(got: dict, wanted: dict) -> bool:
    """The same call sites and labels, every reference set contained
    in the measured one."""
    for section in SECTIONS:
        mine, theirs = got[section], wanted[section]
        if mine.keys() != theirs.keys():
            return False
        if any(not set(theirs[k]) <= set(mine[k]) for k in theirs):
            return False
    return True


def matches(got, wanted: dict, may_add: bool) -> bool:
    """Whether a measured answer agrees with the standard algorithm's:
    exactly, unless the program may add labels (``may_add``) and LC'
    answered it, where containment is the property that holds."""
    if not isinstance(got, dict):
        return False
    if may_add and got["engine"] == "subtransitive":
        return contains(got, wanted)
    return all(got[section] == wanted[section] for section in SECTIONS)


def analyze_refs(corpus: List[dict], cache: Cache) -> list:
    return [
        cache.get("standard-answer", p["source"], standard_answer) for p in corpus
    ]


def lint_answer(source: str) -> str:
    """The findings of ``repro lint --format json`` for one file
    (hybrid analysis, every rule), shaped like the daemon's ``lint``
    reply: engine, fallback reason, findings and counts."""
    import repro
    from repro.core.hybrid import analyze_hybrid
    from repro.lint import run_lints
    from repro.obs.metrics import MetricsRegistry

    program = repro.parse(source)
    registry = MetricsRegistry()
    analysis = analyze_hybrid(program, registry=registry)
    document = run_lints(program, analysis, registry=registry).to_dict()
    return inputs.digest(
        {key: document[key] for key in ("engine", "fallback_reason", "findings", "counts")}
    )


def session_refs(session: dict, cache: Cache) -> dict:
    """Expected reply digests for each read of the session, the final
    rendered program, and the cold node count of that program."""
    import repro
    from repro.daemon.delta import ProjectAnalysis
    from repro.export import result_to_dict

    def cold_analysis(source: str) -> dict:
        envelope = result_to_dict(repro.analyze(repro.parse(source)))
        return {"envelope": inputs.digest(envelope), "flows": envelope["label_flows"]}

    bindings = dict(session["load"])
    expected: List[Optional[str]] = []
    for op in session["ops"]:
        verb = op["verb"]
        if verb == "define":
            bindings[op["name"]] = op["source"]
        elif verb == "undefine":
            del bindings[op["name"]]
        source = inputs.render(list(bindings.items()))
        if verb == "analyze":
            expected.append(cache.get("cold-analysis", source, cold_analysis)["envelope"])
        elif verb == "lint":
            expected.append(cache.get("cold-lint", source, lint_answer))
        elif verb == "query":
            flows = cache.get("cold-analysis", source, cold_analysis)["flows"]
            label = op["label"]
            expected.append(inputs.digest({"label": label, "nids": flows[label]}))
        else:
            expected.append(None)
    final = inputs.render(list(bindings.items()))
    return {
        "expected": expected,
        "final_source": final,
        "cold_nodes": ProjectAnalysis.cold_cfa(final).graph.node_count,
    }


def reply_digest(verb: str, reply: dict) -> Optional[str]:
    """The digest of a daemon reply comparable with the references."""
    if verb == "analyze":
        return inputs.digest(reply["envelope"])
    if verb == "lint":
        return inputs.digest(reply)
    if verb == "query":
        return inputs.digest(
            {"label": reply["label"], "nids": sorted(reply["nids"])}
        )
    return None
