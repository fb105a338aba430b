"""Node congruences for recursive datatypes (paper Section 6).

Extending the node grammar with de-constructor operators makes the
node space unbounded for recursive datatypes (``cdr(e)``,
``cdr(cdr(e))``, ...) — the paper notes the resulting problem is
2NPDA-hard in general. It therefore proposes two *finite node
congruences* that bound the nodes considered, trading accuracy:

* ``≈1`` (:class:`TypeCongruence`): "n1 ≈1 n2 whenever τ(n1) = τ(n2)
  and both are datatypes". Every node whose type is a given datatype
  collapses into one class node — O(n) classes, linear analysis,
  coarse: in the paper's ``cons(2, cons(1, nil))`` example, ``car(e)``
  sees both 1 and 2.

* ``≈2`` (:class:`BaseTypeCongruence`): additionally requires the two
  nodes to share a *base node* and to involve a de-constructor — finer
  ("strictly more accurate"), up to O(n^2) classes in general, linear
  again if datatype nesting depth is bounded.

A congruence object plugs into :class:`~repro.core.nodes.NodeFactory`
and answers two questions at node-creation time: should this *base*
node be absorbed into a class, and should this *operator* node be?
``None`` means "keep the structural identity".

The default (``ExactCongruence``) never merges — every node term is
its own class — which is exact but only guaranteed to terminate when
functions do not flow through recursive datatype values.
"""

from __future__ import annotations

from typing import Optional

from repro.types.types import TData, Type, prune

from repro.core.nodes import Node, OpKey


class Congruence:
    """Interface: canonicalisation strategy for node terms."""

    #: Human-readable name used in reports.
    name = "exact"

    #: Whether this congruence needs type information.
    requires_types = False

    def canon_base(self, ty: Optional[Type]) -> Optional[tuple]:
        """Class key for a base (expression/variable) node, or None."""
        return None

    def canon_op(
        self, opkey: OpKey, inner: Node, ty: Optional[Type]
    ) -> Optional[tuple]:
        """Class key for an operator node, or None for structural."""
        return None


class ExactCongruence(Congruence):
    """No merging; node terms keep their structural identity."""


class TypeCongruence(Congruence):
    """The paper's ``≈1``: all datatype-typed nodes of the same type
    form one class."""

    name = "type (≈1)"
    requires_types = True

    def canon_base(self, ty: Optional[Type]) -> Optional[tuple]:
        if ty is None:
            return None
        ty = prune(ty)
        if isinstance(ty, TData):
            return ("class1", ty.name)
        return None

    def canon_op(
        self, opkey: OpKey, inner: Node, ty: Optional[Type]
    ) -> Optional[tuple]:
        return self.canon_base(ty)


class BaseTypeCongruence(Congruence):
    """The paper's ``≈2``: datatype-typed nodes with the same base
    node that involve a de-constructor form one class."""

    name = "base-and-type (≈2)"
    requires_types = True

    def canon_op(
        self, opkey: OpKey, inner: Node, ty: Optional[Type]
    ) -> Optional[tuple]:
        if ty is None:
            return None
        ty = prune(ty)
        if not isinstance(ty, TData):
            return None
        if opkey[0] != "con" and not inner.has_decon:
            return None
        return ("class2", inner.base_uid, ty.name)


#: Congruence registry keyed by the names the public API accepts.
CONGRUENCES = {
    "exact": ExactCongruence,
    "type": TypeCongruence,
    "base-and-type": BaseTypeCongruence,
}


def make_congruence(name: str) -> Congruence:
    """Instantiate a congruence by registry name."""
    try:
        return CONGRUENCES[name]()
    except KeyError:
        raise ValueError(
            f"unknown congruence {name!r}; expected one of "
            + ", ".join(sorted(CONGRUENCES))
        ) from None
