"""The compiled rule engine: stratified rules onto fused flow sweeps.

:class:`CompiledRuleSet` takes checked rule programs and executes them
level by level on the plan :func:`~repro.rules.check.check_programs`
built:

* **non-recursive relations** are complete after firing their rules
  once — by construction a level's relations depend only on strictly
  lower levels, so each firing pass sees finished inputs. Each such
  rule is lowered at construction to a generated nested-loop function
  (:class:`_CompiledJoin`) that writes straight into the extents;
* **recursive relations** compile onto the existing flow scheduler:
  their seed rules fire into the extents, and their step rules — which
  the compiler requires in propagation shape, ``R(N) :- R(M),
  edge(M, N)`` (or ``edge(N, M)``; with a transported value column for
  k-bounded heads) — become a :class:`~repro.flow.analyses.
  ReachabilityAnalysis` or :class:`~repro.flow.analyses.
  BoundedSetAnalysis`. Every recursive relation of one level joins a
  single :func:`~repro.flow.framework.run_fused` call, so rule
  programs inherit the engine's fuel accounting, metrics, span
  profiling, CSR flat sweeps, and worklist fusion for free.

The propagation-shape restriction is not a loss of generality the
checker would hide: the linearity classifier only admits recursive
rules whose recursion is driven by one premise joined through a
binary base relation, and on the subtransitive schema that is an
``edge`` step (or ``eff_edge`` for the effects colouring — any
node-to-node base relation may carry a sweep). Anything else fails
compilation with an actionable error.

With ``explain=True`` the run records provenance: join-derived facts
(fired through :func:`~repro.rules.eval.fire_rule`, which derives the
same facts in the same order as the lowered joins) keep the rule and
ground premises that first produced them, and
propagated facts record their first deriving edge via a transfer
override (the framework guarantees identical step/update accounting
either way). :meth:`RuleEvaluation.derivation` replays a fact's chain
down to base facts — the evidence ``repro lint --explain`` prints.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.flow.analyses import BoundedSetAnalysis, ReachabilityAnalysis
from repro.flow.framework import FlowContext, run_fused
from repro.obs.events import span
from repro.rules.check import CheckedRules, RelationPlan, check_programs
from repro.rules.dsl import NODE, Rel, Rule, RuleProgram, Var, fingerprint
from repro.rules.eval import (
    Extents,
    World,
    _order_positives,
    add_bounded,
    fire_rule,
)
from repro.rules.lattice import MANY
from repro.rules.schema import FactSource, GraphFactSource, GRAPH_SCHEMA

_AUTO = object()


class RuleCompileError(ReproError):
    """A checked rule set the compiled engine still cannot execute —
    always a recursive rule outside the propagation shape."""


def render_value(value) -> str:
    """Render one column value (or annotation) for provenance text."""
    if value is MANY:
        return "MANY"
    if isinstance(value, frozenset):
        return "{" + ", ".join(sorted(render_value(v) for v in value)) + "}"
    describe = getattr(value, "describe", None)
    if callable(describe):
        return describe()
    if isinstance(value, str):
        return f'"{value}"'
    return repr(value)


def render_fact(name: str, fact: Sequence) -> str:
    return f"{name}({', '.join(render_value(v) for v in fact)})"


class _StepSpec:
    """One compiled step rule: the binary base relation it propagates
    along (``via``) and which way that premise points."""

    __slots__ = ("rule", "direction", "via")

    def __init__(self, rule: Rule, direction: str, via: str):
        self.rule = rule
        self.direction = direction
        self.via = via


def _shape_error(rule: Rule, why: str) -> RuleCompileError:
    return RuleCompileError(
        f"rule {rule.name}: {why}; recursive rules must have the "
        "propagation shape R(N) :- R(M), edge(M, N) (or edge(N, M); "
        "any binary node-to-node base relation works in place of "
        "'edge', and k-bounded heads carry their value variable "
        "through both R atoms)"
    )


def _step_spec(plan: RelationPlan, rule: Rule) -> _StepSpec:
    rel = plan.rel
    if rel.key_arity != 1 or rel.columns[0] != NODE:
        raise RuleCompileError(
            f"rule {rule.name}: recursive relation '{rel.name}' must "
            "be keyed by a single node column to propagate along the "
            "graph; re-key it or stage the extra columns through a "
            "non-recursive relation"
        )
    body = rule.body
    if len(body) != 2 or any(atom.negated for atom in body):
        raise _shape_error(
            rule, "the body must be exactly two positive atoms"
        )
    rec = next((a for a in body if a.rel.name == rel.name), None)
    via = next(
        (
            a
            for a in body
            if a.rel.kind == "edb"
            and a.rel.columns == (NODE, NODE)
            and a.rel.name != rel.name
        ),
        None,
    )
    if rec is None or via is None:
        raise _shape_error(
            rule,
            "the body must pair one premise over the head's own "
            "relation with one binary node-to-node base premise to "
            "propagate along",
        )
    head_key = rule.head.terms[0]
    rec_key = rec.terms[0]
    if (
        not isinstance(head_key, Var)
        or not isinstance(rec_key, Var)
        or head_key == rec_key
    ):
        raise _shape_error(
            rule, "head and recursive premise need distinct key variables"
        )
    if rel.bounded and rule.head.terms[-1] != rec.terms[-1]:
        raise _shape_error(
            rule,
            "a k-bounded step must transport one value variable "
            "through both atoms",
        )
    src, dst = via.terms
    if (src, dst) == (rec_key, head_key):
        return _StepSpec(rule, "successors", via.rel.name)
    if (src, dst) == (head_key, rec_key):
        return _StepSpec(rule, "predecessors", via.rel.name)
    raise _shape_error(
        rule,
        "the base premise must connect the recursive premise's key "
        "to the head's key",
    )


# -- the join compiler ---------------------------------------------------------


class _Access:
    """How a compiled join reads one body atom, fixed when the rule is
    lowered: ``mode`` is ``"scan"`` (no key column bound: every fact),
    ``"probe"`` (some bound: one index bucket), ``"member"`` (every
    key column bound: one membership test or annotation fetch) or
    ``"keys"`` (a derived relation's stored keys, for a projection);
    ``mask`` marks the bound key columns."""

    __slots__ = ("rel", "mode", "mask")

    def __init__(self, rel: Rel, mode: str, mask: Tuple[bool, ...]):
        self.rel = rel
        self.mode = mode
        self.mask = mask

    def resolve(self, source: FactSource, extents: Extents, indexes: Dict):
        """The container this run's join reads the atom through."""
        rel = self.rel
        if rel.kind == "edb":
            if self.mode == "scan":
                return source.facts(rel.name)
            return source.index(rel.name, self.mask)
        store = extents.data[rel.name]
        if self.mode in ("member", "keys"):
            return store
        if self.mode == "scan":
            return store.items() if rel.bounded else store
        # A probe into a derived relation: the relation is complete
        # (it sits in a strictly lower stratum), so its index is
        # built once per run and shared by every rule probing it.
        index = indexes.get((rel.name, self.mask))
        if index is None:
            index = {}
            for key, annotation in store.items():
                probe = tuple(
                    value
                    for value, bound in zip(key, self.mask)
                    if bound
                )
                row = (key, annotation) if rel.bounded else key
                index.setdefault(probe, []).append(row)
            indexes[(rel.name, self.mask)] = index
        return index


class _CompiledJoin:
    """One seed/join rule lowered to a specialised Python function.

    The function holds the join as nested loops over local slots: the
    body's probe order, each atom's access path and each negated atom's
    membership test are all fixed at lowering time, so a run pays no
    per-binding dict copies or variable hashing. A projection of one
    derived relation onto its keys is a single dict update instead.
    Either way it derives exactly the facts
    :func:`~repro.rules.eval.fire_rule` does, in the same order,
    writing them straight into the head's extent; provenance recording
    (``explain``) stays with :func:`fire_rule`.
    """

    def __init__(self, rule: Rule):
        self.rule = rule
        self.head = rule.head.rel
        self.accesses: List[_Access] = []
        #: The generated function's text (``join(a0, ..., store, add)``).
        self.source, constants = self._lower(rule)
        namespace = {"frozenset": frozenset, **constants}
        exec(compile(self.source, f"<rule {rule.name}>", "exec"), namespace)
        self.function = namespace["join"]

    def _lower(self, rule: Rule) -> Tuple[str, Dict[str, object]]:
        constants: Dict[str, object] = {}
        slots: Dict[Var, str] = {}
        transported = set()
        pending = list(rule.negative)
        lines: List[str] = []
        depth = 1

        def line(text: str) -> None:
            lines.append("    " * depth + text)

        def code(term) -> str:
            if isinstance(term, Var):
                return slots[term]
            name = f"c{len(constants)}"
            constants[name] = term
            return name

        def row(codes: List[str]) -> str:
            return "(" + ", ".join(codes) + ("," if len(codes) == 1 else "") + ")"

        def stored(rel: Rel, codes: List[str]) -> str:
            # Extents keep a single-column key bare.
            if rel.kind == "idb" and len(codes) == 1:
                return codes[0]
            return row(codes)

        def access(rel: Rel, mode: str, mask) -> str:
            self.accesses.append(_Access(rel, mode, tuple(mask)))
            return f"a{len(self.accesses) - 1}"

        def check_negations() -> None:
            nonlocal depth
            for atom in list(pending):
                if all(var in slots for var in atom.variables):
                    pending.remove(atom)
                    mask = (True,) * atom.rel.arity
                    fact = stored(atom.rel, [code(t) for t in atom.terms])
                    line(f"if {fact} not in {access(atom.rel, 'member', mask)}:")
                    depth += 1

        body = rule.body
        if (
            len(body) == 1
            and body[0].rel.kind == "idb"
            and not self.head.bounded
            and body[0].terms[: body[0].rel.key_arity] == rule.head.terms
            and len(set(rule.head.terms)) == len(rule.head.terms)
            and all(isinstance(t, Var) for t in rule.head.terms)
        ):
            # A projection onto the keys of one derived relation: one
            # dict update, which reuses the source's stored hashes.
            mask = (True,) * body[0].rel.key_arity
            source = (
                f"def join({access(body[0].rel, 'keys', mask)}, store, add):\n"
                "    n = len(store)\n"
                "    store.update(dict.fromkeys(a0, True))\n"
                "    return len(store) - n\n"
            )
            return source, constants
        check_negations()
        for atom in _order_positives(list(rule.positive)):
            rel = atom.rel
            keys = atom.terms[: rel.key_arity]
            mask = [
                not isinstance(t, Var) or t in slots for t in keys
            ]
            value = atom.terms[-1] if rel.bounded else None
            if all(mask):
                name = access(rel, "member", mask)
                fact = stored(rel, [code(t) for t in keys])
                if rel.bounded:
                    slots[value] = f"v{len(slots)}"
                    transported.add(value)
                    line(f"{slots[value]} = {name}.get({fact})")
                    line(f"if {slots[value]} is not None:")
                else:
                    line(f"if {fact} in {name}:")
                depth += 1
            else:
                mode = "probe" if any(mask) else "scan"
                name = access(rel, mode, mask)
                bucket = name
                if mode == "probe":
                    bound = [code(t) for t, b in zip(keys, mask) if b]
                    bucket = f"{name}.get({row(bound)}, ())"
                targets: List[str] = []
                checks: List[str] = []
                for term, bound in zip(keys, mask):
                    if bound:
                        targets.append("_")
                    elif term in slots:
                        # A variable repeated within this atom.
                        temp = f"t{len(checks)}"
                        targets.append(temp)
                        checks.append(f"{temp} == {slots[term]}")
                    else:
                        slots[term] = f"v{len(slots)}"
                        targets.append(slots[term])
                target = stored(rel, targets)
                if rel.bounded:
                    slots[value] = f"v{len(slots)}"
                    transported.add(value)
                    target = f"{target}, {slots[value]}"
                line(f"for {target} in {bucket}:")
                depth += 1
                if checks:
                    line(f"if {' and '.join(checks)}:")
                    depth += 1
            check_negations()

        head = rule.head
        if self.head.bounded:
            key = stored(self.head, [code(t) for t in head.terms[:-1]])
            value = head.terms[-1]
            contribution = (
                slots[value]
                if value in transported
                else f"frozenset(({code(value)},))"
            )
            # A first contribution needs no join: a fresh singleton
            # is within k, and a transported annotation already has
            # the head's k (the checker's transport discipline).
            line(f"k = {key}")
            line(f"c = {contribution}")
            line("if k not in store:")
            line("    store[k] = c")
            line("    n += 1")
            line(f"elif add(store, k, c, {code(self.head.k)}):")
            line("    n += 1")
            first, last = "n = 0", "return n"
        else:
            # A plain head only ever gains keys: count them by size.
            line(f"store[{stored(self.head, [code(t) for t in head.terms])}] = True")
            first, last = "n = len(store)", "return len(store) - n"
        params = ", ".join(
            [f"a{i}" for i in range(len(self.accesses))] + ["store", "add"]
        )
        source = "\n".join(
            [f"def join({params}):", f"    {first}"] + lines + [f"    {last}", ""]
        )
        return source, constants

    def run(self, source: FactSource, extents: Extents, indexes: Dict) -> int:
        """Fire the rule once; returns how many head facts changed."""
        args = [
            access.resolve(source, extents, indexes)
            for access in self.accesses
        ]
        return self.function(
            *args, extents.data[self.head.name], add_bounded
        )


class RuleEvaluation:
    """One run's results: the extents plus (with ``explain``) the
    provenance needed to replay any fact's derivation."""

    def __init__(
        self,
        checked: CheckedRules,
        extents: Extents,
        source: FactSource,
        provenance: Optional[Dict] = None,
        parents: Optional[Dict] = None,
        specs: Optional[Dict[str, List[_StepSpec]]] = None,
    ):
        self.checked = checked
        self.extents = extents
        self.source = source
        self._provenance = provenance if provenance is not None else {}
        self._parents = parents if parents is not None else {}
        self._specs = specs if specs is not None else {}

    @property
    def explained(self) -> bool:
        return bool(self._provenance) or bool(self._parents)

    def relation(self, name: str) -> Rel:
        return self.extents.relations[name]

    def holds(self, name: str, *key) -> bool:
        return self.extents.holds(self.relation(name), tuple(key))

    def annotation(self, name: str, *key):
        return self.extents.annotation(self.relation(name), tuple(key))

    def rows(self, name: str) -> List[Tuple]:
        """The relation's rows, deterministically ordered: key tuples
        for a plain relation, key + annotation for a bounded one."""
        if self.relation(name).bounded:
            rows = [key + (ann,) for key, ann in self.extents.items(name)]
        else:
            rows = self.extents.keys(name)
        return sorted(rows, key=lambda row: render_fact(name, row))

    def fact_text(self, name: str, key: Sequence) -> str:
        rel = self.relation(name)
        key = tuple(key)
        if rel.bounded:
            return render_fact(name, key + (self.annotation(name, *key),))
        return render_fact(name, key)

    def _premise_text(self, premise) -> str:
        rel_name, fact, negated = premise
        bang = "!" if negated else ""
        return bang + render_fact(rel_name, fact)

    def _chain_next(self, premises):
        """The first derived premise that has recorded provenance —
        where the derivation chain continues."""
        for rel_name, fact, negated in premises:
            if negated:
                continue
            rel = self.checked.relations.get(rel_name)
            if rel is None or rel.kind != "idb":
                continue
            key = fact[: rel.key_arity] if rel.bounded else fact
            nxt = (rel_name, tuple(key))
            if nxt in self._provenance or nxt in self._parents:
                return nxt
        return None

    def _propagation_rule(self, name: str, src, dst):
        """Which step rule carried ``src -> dst``: the spec whose base
        premise direction matches an existing base fact."""
        specs = self._specs.get(name, ())
        for spec in specs:
            a, b = (src, dst) if spec.direction == "successors" else (dst, src)
            if self.source.contains(spec.via, (a, b)):
                return spec.rule, (spec.via, (a, b), False)
        if specs:
            spec = specs[0]
            a, b = (src, dst) if spec.direction == "successors" else (dst, src)
            return spec.rule, (spec.via, (a, b), False)
        return None, None

    def derivation(self, name: str, key: Sequence, limit: int = 24):
        """The fact's derivation chain, ground facts last: a list of
        ``{"rule", "fact", "premises"}`` dicts (JSON-safe strings).
        Empty when the run was not explained or the fact was never
        derived."""
        steps: List[Dict[str, object]] = []
        current: Optional[Tuple] = (name, tuple(key))
        seen = set()
        while current is not None and current not in seen:
            if len(steps) >= limit:
                steps.append({"rule": "...", "fact": "...", "premises": []})
                break
            seen.add(current)
            record = self._provenance.get(current)
            if record is not None:
                rule_name, premises = record
                steps.append(
                    {
                        "rule": rule_name,
                        "fact": self.fact_text(*current),
                        "premises": [
                            self._premise_text(p) for p in premises
                        ],
                    }
                )
                current = self._chain_next(premises)
                continue
            src = self._parents.get(current)
            if src is None:
                break
            rel_name, (dst,) = current
            rule, edge_premise = self._propagation_rule(rel_name, src, dst)
            premises = [self._premise_text((rel_name, (src,), False))]
            if edge_premise is not None:
                premises.append(self._premise_text(edge_premise))
            steps.append(
                {
                    "rule": rule.name if rule is not None else "?",
                    "fact": self.fact_text(rel_name, (dst,)),
                    "premises": premises,
                }
            )
            current = (rel_name, (src,))
        return steps


class _RuleReachAnalysis(ReachabilityAnalysis):
    """A recursive plain relation's sweep. Its fixpoint, the item ->
    True marks, is the relation's extent as it stands."""

    def finish(self, ctx, values):
        return values


class _RecordingReachAnalysis(_RuleReachAnalysis):
    """The explain variant: records the first deriving edge per mark.

    The transfer override is a *class-level* method on a separate
    class on purpose: the framework's identity-transfer and CSR flat
    fast paths key on ``type(analysis).transfer``, so the non-explain
    classes above keep those paths and only explained runs pay the
    per-edge call (with identical step/update accounting)."""

    def __init__(self, sources, follow, name, record):
        super().__init__(sources, follow, name)
        self._record = record

    def transfer(self, ctx, src, dst, value):
        self._record(src, dst)
        return value


class _RuleBoundedAnalysis(BoundedSetAnalysis):
    """A recursive k-bounded relation's sweep: seeds are the already
    clamped annotations the seed rules derived (MANY included)."""

    def seeds(self, ctx):
        return self._seed_map


class _RecordingBoundedAnalysis(_RuleBoundedAnalysis):
    def __init__(self, seed_map, k, follow, name, record):
        super().__init__(seed_map, k, follow, name)
        self._record = record

    def transfer(self, ctx, src, dst, value):
        self._record(src, dst)
        return value


class CompiledRuleSet:
    """Rule programs checked, shape-validated, and ready to run.

    Construction performs every static stage (the checker plus the
    propagation-shape validation), so a ``CompiledRuleSet`` that
    exists can always execute; :meth:`run` is the dynamic stage.
    """

    def __init__(
        self,
        programs: Sequence[RuleProgram],
        schema: Optional[Dict[str, Rel]] = None,
        require_linear: bool = True,
    ):
        self.programs = tuple(programs)
        if schema is None:
            schema = GRAPH_SCHEMA
        self.checked = check_programs(
            self.programs, schema=schema, require_linear=require_linear
        )
        self.fingerprint = fingerprint(self.programs)
        self.specs: Dict[str, List[_StepSpec]] = {}
        for level in self.checked.levels:
            for plan in level:
                if not plan.step_rules:
                    continue
                specs = [
                    _step_spec(plan, rule) for rule in plan.step_rules
                ]
                vias = sorted({spec.via for spec in specs})
                if len(vias) > 1:
                    raise RuleCompileError(
                        f"relation '{plan.rel.name}': step rules "
                        "propagate along different base relations "
                        f"({', '.join(vias)}); one sweep follows one "
                        "relation — split the strata or unify the "
                        "premises"
                    )
                self.specs[plan.rel.name] = specs
        #: Every seed/join rule, lowered once (see :class:`_CompiledJoin`).
        self.joins: Dict[Rule, _CompiledJoin] = {
            rule: _CompiledJoin(rule)
            for level in self.checked.levels
            for plan in level
            for rule in plan.seed_rules
        }

    # -- the dynamic stage -------------------------------------------------

    def _follow(self, plan: RelationPlan, ctx: FlowContext,
                source: FactSource):
        """The sweep's follow function. ``edge`` sweeps on graph-backed
        sources hand out the graph's own bound methods so
        single-direction boolean sweeps stay eligible for the CSR flat
        path; other base relations go through the source's indexed
        lookup."""
        specs = self.specs[plan.rel.name]
        via = specs[0].via
        directions = {spec.direction for spec in specs}
        graph_backed = (
            via == "edge" and isinstance(source, GraphFactSource)
        )
        if directions == {"successors"}:
            if graph_backed:
                return ctx.graph.successors
            return lambda item: [
                dst for _, dst in source.lookup(via, (item, None))
            ]
        if directions == {"predecessors"}:
            if graph_backed:
                return ctx.graph.predecessors
            return lambda item: [
                src for src, _ in source.lookup(via, (None, item))
            ]

        def both(item):
            for _, dst in source.lookup(via, (item, None)):
                yield dst
            for src, _ in source.lookup(via, (None, item)):
                yield src

        return both

    def run(
        self,
        ctx: Optional[FlowContext] = None,
        source: Optional[FactSource] = None,
        fuel=_AUTO,
        registry=None,
        explain: bool = False,
    ) -> RuleEvaluation:
        """Evaluate to fixpoint; returns a :class:`RuleEvaluation`.

        Pass a graph-bearing ``ctx`` (the source defaults to its
        :class:`~repro.rules.schema.GraphFactSource`) or an explicit
        ``source`` (the test/reference harness path). ``fuel``
        defaults to the context's linear budget when a graph is
        present, unlimited otherwise.
        """
        if ctx is None:
            ctx = FlowContext()
        if source is None:
            source = GraphFactSource(ctx)
        if registry is None:
            registry = ctx.registry
        if fuel is _AUTO:
            fuel = (
                ctx.default_fuel() if ctx.graph is not None else None
            )
        provenance: Optional[Dict] = {} if explain else None
        parents: Optional[Dict] = {} if explain else None
        extents = Extents(self.checked.relations)
        world = World(source, extents) if explain else None
        joined = 0

        with span("rules.eval"), registry.timer("rules.eval"):
            for level in self.checked.levels:
                joined += self._run_level(
                    level, ctx, source, world, extents,
                    fuel, registry, provenance, parents,
                )

        registry.counter("rules.join.derived").inc(joined)
        registry.counter("rules.facts").inc(extents.size())
        registry.gauge("rules.levels").set(len(self.checked.levels))
        registry.gauge("rules.relations").set(len(extents.relations))
        return RuleEvaluation(
            self.checked, extents, source,
            provenance=provenance, parents=parents, specs=self.specs,
        )

    def _run_level(
        self, level, ctx, source, world, extents,
        fuel, registry, provenance, parents,
    ) -> int:
        """One stratum: fire every seed/join rule once (inputs are
        complete), then fuse the stratum's recursive sweeps. Explained
        runs fire through :func:`fire_rule` to record each fact's
        first premises; the others run the lowered joins."""
        joined = 0
        indexes: Dict = {}
        sweeps: List[Tuple[RelationPlan, object]] = []
        for plan in level:
            for rule in plan.seed_rules:
                if provenance is None:
                    joined += self.joins[rule].run(
                        source, extents, indexes
                    )
                    continue
                for key, contribution, premises in list(
                    fire_rule(rule, world, explain=True)
                ):
                    if extents.add(plan.rel, key, contribution):
                        joined += 1
                    provenance.setdefault(
                        (plan.rel.name, key), (rule.name, premises)
                    )
            if plan.step_rules:
                sweeps.append(
                    (plan, self._sweep(plan, ctx, source, extents, parents))
                )
        if sweeps:
            results = run_fused(
                [analysis for _, analysis in sweeps],
                ctx, fuel=fuel, registry=registry,
            )
            for (plan, _), result in zip(sweeps, results):
                extents.replace(plan.rel, result)
        return joined

    def _sweep(self, plan: RelationPlan, ctx, source, extents, parents):
        name = f"rule-{plan.rel.name}"
        follow = self._follow(plan, ctx, source)
        store = extents.data[plan.rel.name]
        record = None
        if parents is not None:
            rel_name = plan.rel.name

            def record(src, dst, _rel=rel_name):
                parents.setdefault((_rel, (dst,)), src)

        if plan.rel.bounded:
            if record is not None:
                return _RecordingBoundedAnalysis(
                    store, plan.rel.k, follow, name, record
                )
            return _RuleBoundedAnalysis(store, plan.rel.k, follow, name)
        sources = list(store)
        if record is not None:
            return _RecordingReachAnalysis(sources, follow, name, record)
        return _RuleReachAnalysis(sources, follow, name)


def compile_programs(
    programs: Sequence[RuleProgram],
    schema: Optional[Dict[str, Rel]] = None,
    require_linear: bool = True,
) -> CompiledRuleSet:
    """Convenience constructor mirroring :func:`check_programs`."""
    return CompiledRuleSet(
        programs, schema=schema, require_linear=require_linear
    )
