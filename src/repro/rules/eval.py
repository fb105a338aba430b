"""Shared rule-firing machinery: extents, the fact world, and joins.

Both evaluators sit on the same three pieces, so they cannot drift
apart semantically:

* :class:`Extents` — the derived-fact store. A plain relation is a set
  of keys; a k-bounded relation is a map from key to a lattice
  annotation (``frozenset`` of at most k values, or
  :data:`~repro.rules.lattice.MANY`), joined with
  :func:`~repro.rules.lattice.bounded_join` on every update. A key of
  one column is stored bare, wider keys as tuples, so a recursive
  relation's extent *is* the flow sweep's own item map.
* :class:`World` — uniform fact access for rule firing: base relations
  come from a :class:`~repro.rules.schema.FactSource`, derived ones
  from the extents.
* :func:`fire_rule` — one rule's satisfying bindings, as
  ``(head_key, contribution, premises)`` triples. A bounded premise is
  read through the transport pattern the checker enforces: its keys
  join normally and its *annotation* rides through to the head's value
  column unopened (so ``MANY`` propagates as ``MANY``, exactly as the
  fused sweep's lattice does).

Negation is stratified complement: by the time a negated atom is
evaluated its relation is complete (the checker's strata guarantee),
so ``not holds(...)`` is the complement test, and it runs with every
variable already bound (range restriction) — an O(1) membership probe.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.rules.dsl import Atom, Rel, Rule, Var
from repro.rules.lattice import MANY, bounded_join
from repro.rules.schema import FactSource

Key = Tuple
Contribution = object  # True for plain heads; frozenset-or-MANY for bounded


def clamp(annotation, k: int):
    """Clamp an annotation into the k-bounded lattice."""
    if annotation is MANY:
        return MANY
    return MANY if len(annotation) > k else frozenset(annotation)


def add_bounded(store: Dict, key, contribution, k: int) -> bool:
    """Join one contribution into a k-bounded extent; True when the
    annotation changed."""
    new = clamp(contribution, k)
    old = store.get(key)
    if old is not None:
        new = bounded_join(old, new, k)
        if new == old:
            return False
    store[key] = new
    return True


class Extents:
    """Derived-fact store for one evaluation run. Methods take and
    return key tuples; :attr:`data` holds single-column keys bare."""

    def __init__(self, relations: Dict[str, Rel]):
        #: Only the derived relations; base facts live in the source.
        self.relations = {
            name: rel
            for name, rel in relations.items()
            if rel.kind == "idb"
        }
        self.data: Dict[str, Dict[object, object]] = {
            name: {} for name in self.relations
        }

    @staticmethod
    def stored(rel: Rel, key: Key):
        """The form ``key`` is stored under: bare for one column."""
        return key[0] if rel.key_arity == 1 else tuple(key)

    def add(self, rel: Rel, key: Key, contribution) -> bool:
        """Join one contribution in; True when the extent changed."""
        store = self.data[rel.name]
        key = self.stored(rel, key)
        if rel.bounded:
            return add_bounded(store, key, contribution, rel.k)
        if key in store:
            return False
        store[key] = True
        return True

    def replace(self, rel: Rel, values: Dict[object, object]) -> None:
        """Install a completed fixpoint for one relation (the compiled
        engine's post-sweep write-back); ``values`` is taken over, not
        copied."""
        self.data[rel.name] = values

    def holds(self, rel: Rel, fact: Key) -> bool:
        if rel.bounded:
            raise TypeError(
                f"'{rel.name}' is k-bounded; membership of a value "
                "is not a fact test"
            )
        return self.stored(rel, fact) in self.data[rel.name]

    def annotation(self, rel: Rel, key: Key):
        return self.data[rel.name].get(self.stored(rel, key))

    def items(self, name: str) -> Iterator[Tuple[Key, object]]:
        """``(key tuple, value)`` pairs of one relation."""
        store = self.data[name]
        if self.relations[name].key_arity == 1:
            return (((key,), value) for key, value in store.items())
        return iter(store.items())

    def keys(self, name: str) -> List[Key]:
        return [key for key, _ in self.items(name)]

    def size(self) -> int:
        return sum(len(store) for store in self.data.values())


class World:
    """Fact access for rule firing: one source, one extent store."""

    def __init__(self, source: FactSource, extents: Extents):
        self.source = source
        self.extents = extents

    def lookup(self, rel: Rel, pattern: Tuple) -> Iterable[Tuple]:
        """Concrete facts of a plain relation matching ``pattern``
        (``None`` marks a free column)."""
        if rel.kind == "edb":
            return self.source.lookup(rel.name, pattern)
        if all(value is not None for value in pattern):
            probe = tuple(pattern)
            return (probe,) if self.extents.holds(rel, probe) else ()
        return (
            fact
            for fact in self.extents.keys(rel.name)
            if all(
                want is None or have == want
                for have, want in zip(fact, pattern)
            )
        )

    def annotations(
        self, rel: Rel, key_pattern: Tuple
    ) -> Iterator[Tuple[Key, object]]:
        """(key, annotation) pairs of a bounded relation matching the
        key pattern."""
        if all(value is not None for value in key_pattern):
            probe = tuple(key_pattern)
            annotation = self.extents.annotation(rel, probe)
            if annotation is not None:
                yield probe, annotation
            return
        for key, annotation in self.extents.items(rel.name):
            if all(
                want is None or have == want
                for have, want in zip(key, key_pattern)
            ):
                yield key, annotation

    def holds(self, rel: Rel, fact: Tuple) -> bool:
        if rel.kind == "edb":
            return self.source.contains(rel.name, tuple(fact))
        return self.extents.holds(rel, fact)


# -- rule firing ---------------------------------------------------------------


def _order_positives(atoms: List[Atom]) -> List[Atom]:
    """Body order for the nested-loop join: the authored driver first,
    then greedily any atom sharing a bound variable (the checker
    guarantees such an ordering exists for linear rules; for anything
    else we fall back to a scan, which only the naive evaluator runs)."""
    if not atoms:
        return []
    ordered = [atoms[0]]
    bound = set(atoms[0].variables)
    rest = list(atoms[1:])
    while rest:
        pick = next(
            (a for a in rest if any(v in bound for v in a.variables)),
            rest[0],
        )
        rest.remove(pick)
        ordered.append(pick)
        bound.update(pick.variables)
    return ordered


def _pattern(atom: Atom, binding: Dict[Var, object], arity: int) -> Tuple:
    out = []
    for term in atom.terms[:arity]:
        if isinstance(term, Var):
            out.append(binding.get(term))
        else:
            out.append(term)
    return tuple(out)


def _bind(
    atom: Atom, fact: Tuple, binding: Dict[Var, object], arity: int
) -> Optional[Dict[Var, object]]:
    new = binding
    for term, value in zip(atom.terms[:arity], fact):
        if isinstance(term, Var):
            if term in new:
                if new[term] != value:
                    return None
            else:
                if new is binding:
                    new = dict(binding)
                new[term] = value
        elif term != value:
            return None
    return new if new is not binding else dict(binding)


def fire_rule(
    rule: Rule, world: World, explain: bool = False
) -> Iterator[Tuple[Key, Contribution, Tuple]]:
    """Every satisfying binding of ``rule`` against ``world``.

    Yields ``(head_key, contribution, premises)``: the head's key
    tuple, its lattice contribution (``True``, or an annotation for a
    bounded head), and — when ``explain`` — the ground premises as
    ``(rel_name, fact, negated)`` triples, in body order.
    """
    positives = _order_positives([a for a in rule.body if not a.negated])
    negatives = [a for a in rule.body if a.negated]
    head = rule.head
    bounded_head = head.rel.bounded

    def ground(atom: Atom, binding: Dict[Var, object]) -> Tuple:
        return tuple(
            binding[t] if isinstance(t, Var) else t for t in atom.terms
        )

    def emit(binding, transported, premises):
        for atom in negatives:
            fact = ground(atom, binding)
            if world.holds(atom.rel, fact):
                return
            if explain:
                premises = premises + ((atom.rel.name, fact, True),)
        if bounded_head:
            key = tuple(
                binding[t] if isinstance(t, Var) else t
                for t in head.terms[:-1]
            )
            value_term = head.terms[-1]
            value = binding[value_term]
            if value_term in transported:
                contribution = value  # an annotation, ridden through
            else:
                contribution = frozenset((value,))
        else:
            key = tuple(
                binding[t] if isinstance(t, Var) else t
                for t in head.terms
            )
            contribution = True
        yield key, contribution, premises

    def extend(index, binding, transported, premises):
        if index == len(positives):
            yield from emit(binding, transported, premises)
            return
        atom = positives[index]
        if atom.rel.bounded:
            key_arity = atom.rel.key_arity
            value_term = atom.terms[-1]
            for key, annotation in world.annotations(
                atom.rel, _pattern(atom, binding, key_arity)
            ):
                new = _bind(atom, key, binding, key_arity)
                if new is None:
                    continue
                # The transport pattern: the value variable carries
                # the whole annotation (the checker guarantees it is
                # read nowhere else).
                new[value_term] = annotation
                step = premises
                if explain:
                    step = premises + (
                        (atom.rel.name, key + (annotation,), False),
                    )
                yield from extend(
                    index + 1, new, transported | {value_term}, step
                )
        else:
            for fact in world.lookup(
                atom.rel, _pattern(atom, binding, atom.rel.arity)
            ):
                new = _bind(atom, fact, binding, atom.rel.arity)
                if new is None:
                    continue
                step = premises
                if explain:
                    step = premises + ((atom.rel.name, fact, False),)
                yield from extend(index + 1, new, transported, step)

    yield from extend(0, {}, frozenset(), ())
