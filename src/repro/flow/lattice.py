"""Value lattices for the dataflow framework.

Section 9 of the paper fixes the shape every linear-time client
analysis shares: "we annotate each node with a value that is either a
small set or the token 'many' ... Each update can be done in constant
time, each node can be updated at most a constant number of times, and
hence if we only propagate changes, we can obtain a linear-time
algorithm."

Two lattices cover every shipped analysis:

* the **boolean mark lattice** (``False < True``) — plain
  reachability, used by the lint relations and the effects colouring;
* the **k-bounded set lattice** — subsets of tokens of size <= k,
  topped by the absorbing element :data:`MANY`. A node's annotation
  grows at most k+2 times, so a propagation is O(k * E).

Every ``value is MANY`` identity check in the codebase relies on
there being exactly one :data:`MANY` instance: this one.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, Union


class _Many:
    """The absorbing 'many' annotation (singleton)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "MANY"


#: The paper's "many" token.
MANY = _Many()

Annotation = Union[FrozenSet[Hashable], _Many]


def bounded_seed(tokens: FrozenSet[Hashable], k: int) -> Annotation:
    """Clamp a seed set into the k-bounded lattice."""
    return MANY if len(tokens) > k else frozenset(tokens)


def bounded_join(a: Annotation, b: Annotation, k: int) -> Annotation:
    """Join in the k-bounded set lattice (MANY is absorbing)."""
    if a is MANY or b is MANY:
        return MANY
    merged = a | b
    return MANY if len(merged) > k else merged
