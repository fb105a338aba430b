"""Type inference runs once per program version.

:func:`repro.types.infer.infer_types` is wrapped at every module
attribute that holds it (as the layer benchmark's tracer does) and its
calls are recorded. A cold job infers exactly once, however many
consumers read the types (LC''s depth bound, the T-series lint rules,
the audit section). The daemon infers one definition at a time, and
only the definitions that changed since the last lint read.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import repro
import repro.daemon.audit  # noqa: F401 -- loaded before the wrapping
import repro.types.infer as infer_module
from repro.cli import main
from repro.daemon import ProjectAnalysis
from repro.flow.audit import audit_linearity, audit_section
from repro.lint import run_lints
from repro.serve.worker import run_job

PROGRAMS = {
    "typeable": "let id = fn[id] x => x in id (fn[g] y => y)",
    # Untypeable; the hybrid abandons LC' on its node budget.
    "omega": "(fn[w] x => x x) (fn[w2] y => y y)",
    # Untypeable, yet LC' answers it.
    "self-apply": "let w = fn[w] x => x x in w (fn[i] y => y)",
    # Untypeable with a datatype: the hybrid falls back on inference.
    "datatype": "datatype nat = Z | S of nat;\n(fn[w] x => x x) Z",
    # Untypeable; LC' exceeds its node budget, hybrid or not.
    "triple": "(fn[w] x => x x x) (fn[v] y => y y y)",
}

#: Definitions the seed-0 ``daemon_edit`` session infers: every
#: definition live at its first lint read, then at each later read the
#: live definitions edited since the read before.
DAEMON_EDIT_SEED0_INFERENCES = 220


@pytest.fixture()
def infer_calls(monkeypatch):
    """The ``definition`` argument of every ``infer_types`` call
    (``None`` for whole-program inference)."""
    calls = []
    real = infer_module.infer_types

    def counting(program, definition=None, env=None):
        calls.append(definition)
        return real(program, definition=definition, env=env)

    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        if getattr(module, "infer_types", None) is real:
            monkeypatch.setattr(module, "infer_types", counting)
    return calls


@pytest.mark.parametrize(
    "algorithm", ["hybrid", "subtransitive", "standard", "polyvariant"]
)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_cold_job_with_lint_and_audit_infers_once(
    infer_calls, algorithm, name
):
    response = run_job(
        {
            "source": PROGRAMS[name],
            "options": {"algorithm": algorithm, "lint": True, "audit": True},
        }
    )
    assert response["status"] in ("ok", "degraded"), response["error"]
    assert infer_calls == [None]


@pytest.mark.parametrize("name", ["typeable", "omega", "self-apply"])
def test_run_lints_infers_once(infer_calls, name):
    run_lints(repro.parse(PROGRAMS[name]))
    assert infer_calls == [None]


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_hybrid_then_audit_section_infers_once(infer_calls, name):
    program = repro.parse(PROGRAMS[name])
    section = audit_section(program, repro.analyze(program, "hybrid"))
    assert section["typeable"] == (name == "typeable")
    assert infer_calls == [None]


@pytest.mark.parametrize("name", ["typeable", "omega", "self-apply"])
def test_analyze_then_audit_section_infers_once(infer_calls, name):
    program = repro.parse(PROGRAMS[name])
    audit_section(program, repro.analyze(program))
    assert infer_calls == [None]


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_cli_lint_and_audit_infer_once(infer_calls, name, tmp_path, capsys):
    path = tmp_path / "program.ml"
    path.write_text(PROGRAMS[name])
    main(["lint", str(path)])
    assert infer_calls == [None]
    main(["analyze", str(path), "--audit", "--json", "--algorithm", "hybrid"])
    assert infer_calls == [None, None]


def _session(seed):
    """The benchmark's seeded ``daemon_edit`` session."""
    path = Path(__file__).resolve().parents[1] / "layerbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("layerbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.session(seed)


def test_daemon_edit_session_infers_per_definition(infer_calls):
    session = _session(0)
    pa = ProjectAnalysis()
    for name, source in session["load"]:
        pa.define(name, source)
    expected, edited, first_read = 0, set(), True
    for op in session["ops"]:
        verb = op["verb"]
        if verb == "define":
            pa.define(op["name"], op["source"])
            edited.add(op["name"])
        elif verb == "undefine":
            pa.undefine(op["name"])
            edited.discard(op["name"])
        elif verb == "lint":
            live = {entry.name for entry in pa.defs}
            expected += len(live if first_read else edited & live)
            first_read, edited = False, set()
            pa.lint()
        elif verb == "analyze":
            pa.envelope()
    assert None not in infer_calls  # never the whole program
    assert len(infer_calls) == expected == DAEMON_EDIT_SEED0_INFERENCES


def _names(calls):
    return [definition.name for definition in calls]


def test_daemon_reinfers_what_a_scheme_change_reaches(infer_calls):
    pa = ProjectAnalysis()
    pa.define("f", "fn x => x")
    pa.define("u", "f 1")
    pa.define("v", "fn y => y")
    assert infer_calls == []  # mutations never infer
    pa.lint()
    assert _names(infer_calls) == ["f", "u", "v"]
    del infer_calls[:]
    pa.lint()
    assert infer_calls == []
    pa.define("f", "fn z => z")  # the same scheme up to renaming
    pa.lint()
    assert _names(infer_calls) == ["f"]
    del infer_calls[:]
    pa.define("f", "fn x => x + 1")  # int -> int: u is re-inferred
    pa.lint()
    assert _names(infer_calls) == ["f", "u"]


def test_untypeable_definition_holds_back_later_ones(infer_calls):
    pa = ProjectAnalysis()
    pa.define("f", "fn x => x x")
    pa.define("u", "fn y => y")
    assert not pa.linearity_audit().typeable
    assert _names(infer_calls) == ["f"]
    del infer_calls[:]
    pa.define("f", "fn x => x")
    assert pa.linearity_audit().typeable
    assert _names(infer_calls) == ["f", "u"]


def test_open_scheme_falls_back_to_whole_program(infer_calls, monkeypatch):
    # With print's variable at level 0 (its typing before it was made
    # level-aware) p's scheme stays open, and q's use of p changes
    # p's own types; only whole-program inference sees that.
    real = infer_module._prim_scheme
    monkeypatch.setattr(
        infer_module, "_prim_scheme", lambda name, level: real(name, 0)
    )
    pa = ProjectAnalysis()
    pa.define("p", "fn[p] x => print x")
    pa.define("q", "p (fn y => y)")
    warm = pa.linearity_audit()
    assert [call is None for call in infer_calls] == [False, True]
    cold = audit_linearity(repro.parse(pa.render_source()))
    assert warm.to_dict() == cold.to_dict()
