"""The daemon's T-series audit, inferred one definition at a time.

A project program is a chain of top-level ``let``/``letrec`` bindings
ending in ``()``. When every top-level scheme is closed, a
definition's types depend only on its own source and on the schemes of
the earlier definitions it names. So each
:class:`~repro.daemon.delta.DefEntry` keeps what its last inference
left (:class:`DefinitionTyping`): its generalised scheme and its
:data:`~repro.flow.audit.TypeShare`. A lint read walks the definitions
in order and re-infers one only when

* it changed since it was last inferred (a new entry has no memo), or
* a definition it names now has a scheme that differs, up to renaming
  of quantified variables, from the one it was inferred against.

The read then adds up the shares (:func:`chain_audit`); each chain
node and the final ``()`` type as unit, size 1. Inference runs lazily
here, never on the mutation path.

The result equals a cold :func:`~repro.flow.audit.audit_linearity` of
the rendered program:

* each step is :func:`~repro.types.infer.infer_types` restricted to
  one binding, and it hands later definitions the scheme as it stood
  *before* its own deferred projections were resolved, which is what
  whole-program inference instantiates;
* an untypeable definition makes the program untypeable (the cold
  ``typeable=False`` audit); later definitions wait until it is fixed;
* a scheme with a free, ungeneralised variable would let a later
  definition change earlier types, so such a read falls back to
  whole-program inference.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import TypeInferenceError
from repro.flow.audit import (
    LinearityAudit,
    TypeShare,
    audit_linearity,
    audit_of_share,
    type_share,
)
from repro.lang.ast import Program
from repro.lang.rename import free_variables
from repro.types.infer import infer_types
from repro.types.types import TScheme


class DefinitionTyping:
    """What one definition's last inference left."""

    __slots__ = ("scheme", "closed", "share", "deps")

    def __init__(
        self,
        scheme: Optional[TScheme],
        share: Optional[TypeShare],
        deps: Dict[str, TScheme],
    ) -> None:
        #: The scheme later definitions instantiate; ``None`` when the
        #: definition is untypeable.
        self.scheme = scheme
        #: Checked once here, so a read never walks the scheme.
        self.closed = scheme is None or scheme.is_closed
        #: The bound subtree's share (``None`` when untypeable).
        self.share = share
        #: The scheme of each earlier definition it names (by fresh
        #: name), as it was inferred against.
        self.deps = deps

    def current(self, schemes: Dict[str, TScheme]) -> bool:
        """Does every named definition still have the scheme this
        typing was inferred against (up to renaming)?"""
        for name, seen in self.deps.items():
            now = schemes.get(name)
            if now is seen:
                continue
            if now is None or not now.alpha_equal(seen):
                return False
            self.deps[name] = now  # the next read compares by identity
        return True


def infer_definition(
    program: Program, entry, schemes: Dict[str, TScheme]
) -> DefinitionTyping:
    """Infer one definition under the schemes of those before it."""
    deps = {
        name: schemes[name]
        for name in free_variables(entry.bound)
        if name != entry.fresh  # a letrec's own name
    }
    try:
        result = infer_types(program, definition=entry.spine, env=deps)
    except TypeInferenceError:
        return DefinitionTyping(None, None, deps)
    return DefinitionTyping(
        result.schemes[entry.fresh],
        type_share(entry.bound.walk(), result),
        deps,
    )


def chain_audit(program: Program, defs: List) -> LinearityAudit:
    """The linearity audit of the project ``program`` whose chain
    holds ``defs``, re-inferring only stale definitions."""
    schemes: Dict[str, TScheme] = {}
    total = peak = count = 1  # the final ``()``
    for entry in defs:
        typing = entry.typing
        if typing is None or not typing.current(schemes):
            typing = entry.typing = infer_definition(program, entry, schemes)
        if typing.scheme is None:
            return audit_of_share(program, None)
        if not typing.closed:
            return audit_linearity(program)
        schemes[entry.fresh] = typing.scheme
        size, top, nodes = typing.share
        total += size + 1  # + the chain node
        peak = max(peak, top)
        count += nodes + 1
    return audit_of_share(program, (total, peak, count))
