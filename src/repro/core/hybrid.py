"""The hybrid analysis (paper, Conclusion).

"Our algorithm could potentially be combined with the standard
cubic-time CFA algorithm to obtain a hybrid algorithm that terminates
for arbitrary programs but is linear for bounded-type programs."

LC' itself never inspects types; its only failure mode on non-bounded
programs is materialising too many ``dom``/``ran`` nodes. The hybrid
therefore simply runs LC' under a node budget proportional to program
size and falls back to the standard algorithm when the budget trips —
no type information needed at all, matching the paper's observation
that the algorithm "only needs to know that the types exist".
"""

from __future__ import annotations

from typing import Optional, Union

from repro.cfa.base import CFAResult
from repro.cfa.standard import StandardCFAResult, analyze_standard
from repro.errors import AnalysisBudgetExceeded, TypeInferenceError
from repro.lang.ast import Program
from repro.types.infer import try_infer_types

from repro.core.lc import SubtransitiveGraph
from repro.core.queries import SubtransitiveCFA, analyze_subtransitive

#: Node budget multiplier for the LC' attempt. Bounded-type programs
#: observed in practice stay under ~3 nodes per syntax node; 16 leaves
#: generous headroom while still tripping quickly on unbounded towers.
HYBRID_BUDGET_FACTOR = 16


class HybridResult:
    """Outcome of the hybrid driver.

    ``engine`` is ``"subtransitive"`` or ``"standard"``; ``result``
    satisfies the :class:`~repro.cfa.base.CFAResult` interface either
    way, and all queries delegate to it.
    """

    def __init__(
        self,
        engine: str,
        result: Union[SubtransitiveCFA, StandardCFAResult],
        fallback_reason: Optional[str] = None,
        registry=None,
        inference=None,
    ):
        self.engine = engine
        self.result = result
        #: Why the LC' attempt was abandoned (``None`` when it won):
        #: ``"budget"`` or ``"inference"``.
        self.fallback_reason = fallback_reason
        #: The registry that instrumented the (possibly abandoned) LC'
        #: attempt; kept so metrics documents can report the attempt's
        #: budget burn even after a fallback, when ``result`` no
        #: longer references it.
        self.registry = registry
        #: The type-inference outcome of the LC' attempt (see
        #: :attr:`repro.core.lc.SubtransitiveGraph.inference`), kept
        #: on a fallback too so lint and the audit reuse it; ``None``
        #: when no inference ran.
        self.inference = inference

    def __getattr__(self, name):
        return getattr(self.result, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<HybridResult engine={self.engine}>"


def subtransitive_graph_of(result) -> Optional[SubtransitiveGraph]:
    """The LC' graph inside an analysis result: a
    :class:`SubtransitiveGraph`, a :class:`SubtransitiveCFA` or a
    :class:`HybridResult` that kept LC'. ``None`` for anything else
    (the standard/cubic engines build none)."""
    if isinstance(result, HybridResult):
        result = result.result
    if isinstance(result, SubtransitiveCFA):
        return result.sub
    if isinstance(result, SubtransitiveGraph):
        return result
    return None


def analyze_hybrid(
    program: Program,
    budget_factor: int = HYBRID_BUDGET_FACTOR,
    node_budget: Optional[int] = None,
    registry=None,
    events=None,
) -> HybridResult:
    """Try LC' with a linear node budget; fall back to the cubic
    standard algorithm if the budget trips.

    Always terminates: LC' either reaches a fixpoint within budget
    (and is exact — Propositions 1-2 hold regardless of typing) or the
    standard algorithm provides the answer. ``registry``/``events``
    (see :mod:`repro.obs`) instrument the LC' attempt; a fallback is
    recorded on the registry (``hybrid.fallbacks``) and the event log,
    so metrics consumers can see the abandoned attempt's budget burn.
    A bound profiler keeps the abandoned attempt's spans (the engine's
    try/finally span sites stay balanced across the budget trip), so a
    flamegraph shows the burn next to the ``cfa.standard`` span of the
    cubic re-run.
    """
    if node_budget is None:
        node_budget = budget_factor * max(program.size, 16)
    inference = try_infer_types(program)
    try:
        result = analyze_subtransitive(
            program,
            inference=inference,
            node_budget=node_budget,
            registry=registry,
            events=events,
        )
        return HybridResult(
            "subtransitive", result, registry=registry, inference=inference
        )
    except (AnalysisBudgetExceeded, TypeInferenceError) as error:
        # Budget trip: unbounded dom/ran towers (untypeable program).
        # Inference failure: a datatype-using program we cannot pick a
        # congruence for. Either way the cubic algorithm is total.
        reason = (
            "budget"
            if isinstance(error, AnalysisBudgetExceeded)
            else "inference"
        )
        if registry is not None:
            registry.counter("hybrid.fallbacks").inc()
            registry.counter(f"hybrid.fallback.{reason}").inc()
        if events is not None:
            events.emit("budget", resource="hybrid", action="fallback",
                        reason=reason)
        return HybridResult(
            "standard",
            analyze_standard(program),
            fallback_reason=reason,
            registry=registry,
            inference=inference,
        )
