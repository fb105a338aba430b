"""Golden outputs of the shipped rule programs.

The rule programs are the only implementation of the L/F lints and
of the paper's Section 8–9 consumers. ``tests/golden/`` freezes what
they print on the example corpus — ``repro effects``, ``repro
klimited -k 2`` and ``repro called-once`` as ``<stem>.<command>.txt``
(the lint envelopes are ``<stem>.lint.json``, compared by
``tests/test_backend_equivalence.py``) — and ``--explain`` must only
ever add derivations to the findings.
"""

import glob
import os
import pathlib

import pytest

from repro import cli
from repro.core.lc import build_subtransitive_graph
from repro.lang import parse
from repro.lint import run_lints

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"
EXAMPLES_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, "examples"
)
EXAMPLE_FILES = sorted(
    glob.glob(os.path.join(EXAMPLES_DIR, "*.lam"))
)
EXAMPLE_IDS = [os.path.basename(path) for path in EXAMPLE_FILES]

#: Golden name -> the app command line that produced it.
APP_COMMANDS = {
    "effects": ["effects"],
    "klimited": ["klimited", "-k", "2"],
    "called-once": ["called-once"],
}


def load(path):
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read())


#: Every L/F pass: the rule-program lints that carry derivations.
PORTED = (
    "L001", "L002", "L003", "L004", "L005",
    "F001", "F002", "F003", "F004",
)


@pytest.mark.parametrize("command", sorted(APP_COMMANDS))
@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=EXAMPLE_IDS)
def test_app_output_matches_golden(path, command, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    relative = f"examples/{os.path.basename(path)}"
    assert cli.main(APP_COMMANDS[command] + [relative]) == 0
    out, err = capsys.readouterr()
    stem = os.path.basename(path)[: -len(".lam")]
    assert out == (GOLDEN_DIR / f"{stem}.{command}.txt").read_text()
    assert err == ""


def normalised(result):
    """The lint result's serialised document minus wall-clock noise."""
    document = result.to_dict()
    document.pop("pass_seconds", None)
    return document


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=EXAMPLE_IDS)
def test_explain_attaches_derivations_to_ported_findings(path):
    program = load(path)
    sub = build_subtransitive_graph(program)
    result = run_lints(program, sub, explain=True)
    ported = [f for f in result.findings if f.rule in PORTED]
    for finding in ported:
        # A verdict on a node the graph never built has no derivation
        # to attach (the pass reports it from the AST view).
        if finding.derivation is None:
            continue
        assert finding.derivation, finding.rule
        for step in finding.derivation:
            assert set(step) == {"rule", "fact", "premises"}
    # T-series findings never grow the key: the envelope stays
    # byte-stable for consumers that don't ask for provenance.
    for finding in result.findings:
        if finding.rule not in PORTED:
            assert "derivation" not in finding.to_dict()


def test_explain_only_adds_derivations():
    program = parse("let f = fn[f] x => x in f 1")
    sub = build_subtransitive_graph(program)
    result = run_lints(program, sub, explain=True)
    assert any(f.derivation for f in result.findings)
    # Minus the provenance it asked for, the envelope is unchanged.
    explained = normalised(result)
    for finding in explained["findings"]:
        finding.pop("derivation", None)
    assert explained == normalised(run_lints(program, sub))
