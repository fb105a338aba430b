"""The linearity auditor: check Proposition 3/4 preconditions up front.

Propositions 3 and 4 make LC''s linear-time bound *conditional*: the
number of demanded nodes (and hence edges) is O(k·n) only for programs
in the bounded-type class ``P_k``. Van Horn & Mairson's complexity
results show how fragile that boundary is — nothing in the engine
itself checks it; the hybrid driver only notices *after* burning its
budget. This module is the static pre-flight check:

* :func:`audit_linearity` measures the program's type trees
  (:mod:`repro.types.measure`) and predicts the LC' node/edge budget —
  every demanded graph node corresponds to a position in some
  occurrence's type tree (Section 4), so the sum of type-tree sizes
  over all occurrences bounds the demanded-node count;
* :class:`LinearityAudit` carries the verdicts the T-series lint rules
  surface (T001 ``P_k`` violation, T002 predicted budget excess, T003
  hybrid-fallback forecast);
* :func:`audit_section` shapes an audit — plus the *actual* LC'
  statistics when an analysis already ran — into the deterministic
  dict attached to ``repro.result/1`` envelopes under the ``audit``
  key (predicted vs. actual budget, no wall-clock noise).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.errors import TypeInferenceError
from repro.lang.ast import Program

#: One stretch of a program's occurrences, measured: (sum of type-tree
#: sizes, largest size, occurrence count). Shares of disjoint
#: stretches add up to the whole program's (see :func:`audit_of_share`).
TypeShare = Tuple[int, int, int]

#: Default bound ``k`` on type-tree size: a program whose deepest
#: occurrence type exceeds this is treated as outside every practical
#: ``P_k`` (the paper reports real programs average "around 2 or 3").
DEFAULT_SIZE_THRESHOLD = 64


def _node_budget(program: Program) -> int:
    """The hybrid driver's LC' node budget for ``program`` (the
    threshold the forecast is judged against)."""
    from repro.core.hybrid import HYBRID_BUDGET_FACTOR

    return HYBRID_BUDGET_FACTOR * max(program.size, 16)


class LinearityAudit:
    """The static pre-flight verdicts for one program.

    ``typeable`` is False when inference failed (the program is
    outside every ``P_k``); ``predicted_nodes`` is the Section 4
    position-count bound on demanded LC' nodes (``None`` when
    untypeable); ``forecast`` predicts the hybrid driver's outcome:
    ``None`` (no fallback foreseen), ``"inference"`` (certain
    fallback: an untypeable program that declares datatypes, for which
    no congruence can be picked), or ``"budget"`` (predicted node
    budget exceeds the hybrid allowance). An untypeable program
    without datatypes gets no forecast: LC' runs on it uncapped under
    the node budget alone, and may well finish.
    """

    def __init__(
        self,
        program: Program,
        typeable: bool,
        max_type_size: Optional[int],
        avg_type_size: Optional[float],
        predicted_nodes: Optional[int],
        size_threshold: int,
        node_budget: int,
    ):
        self.program = program
        self.program_size = program.size
        self.typeable = typeable
        self.max_type_size = max_type_size
        self.avg_type_size = avg_type_size
        self.predicted_nodes = predicted_nodes
        self.size_threshold = size_threshold
        self.node_budget = node_budget

    @property
    def bounded(self) -> bool:
        """Does the program lie in ``P_k`` for the audited ``k``
        (i.e. do Propositions 3/4 apply)?"""
        return (
            self.typeable
            and self.max_type_size is not None
            and self.max_type_size <= self.size_threshold
        )

    @property
    def forecast(self) -> Optional[str]:
        if not self.typeable:
            return "inference" if self.program.datatypes else None
        if (
            self.predicted_nodes is not None
            and self.predicted_nodes > self.node_budget
        ):
            return "budget"
        return None

    def to_dict(self) -> Dict[str, object]:
        """The deterministic envelope fragment (no timings)."""
        return {
            "typeable": self.typeable,
            "bounded": self.bounded,
            "max_type_size": self.max_type_size,
            "avg_type_size": self.avg_type_size,
            "predicted_nodes": self.predicted_nodes,
            "node_budget": self.node_budget,
            "size_threshold": self.size_threshold,
            "program_size": self.program_size,
            "forecast": self.forecast,
        }

    def render(self) -> str:
        if not self.typeable:
            outcome = (
                "the hybrid driver will fall back to standard CFA"
                if self.forecast is not None
                else "LC' runs uncapped under the hybrid node budget"
            )
            return (
                "linearity audit: untypeable — outside every P_k; "
                + outcome
            )
        lines = [
            f"linearity audit: P_{self.max_type_size} "
            f"(threshold {self.size_threshold}; "
            f"avg type size {self.avg_type_size:.2f})",
            f"predicted demanded nodes: {self.predicted_nodes} "
            f"(hybrid budget {self.node_budget})",
        ]
        if self.forecast is not None:
            lines.append(f"forecast: hybrid fallback ({self.forecast})")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LinearityAudit typeable={self.typeable} "
            f"k={self.max_type_size} forecast={self.forecast!r}>"
        )


def type_share(nodes: Iterable, inference) -> TypeShare:
    """The :data:`TypeShare` of ``nodes`` under ``inference``."""
    from repro.types.measure import type_size

    memo: Dict[int, int] = {}
    sizes = [type_size(inference.type_of(node), memo) for node in nodes]
    return sum(sizes), max(sizes, default=0), len(sizes)


def audit_of_share(
    program: Program,
    share: Optional[TypeShare],
    size_threshold: int = DEFAULT_SIZE_THRESHOLD,
) -> LinearityAudit:
    """The audit of ``program`` from the share of all its occurrences,
    or the ``typeable=False`` audit when ``share`` is ``None``."""
    if share is None:
        return LinearityAudit(
            program,
            typeable=False,
            max_type_size=None,
            avg_type_size=None,
            predicted_nodes=None,
            size_threshold=size_threshold,
            node_budget=_node_budget(program),
        )
    predicted, peak, count = share
    return LinearityAudit(
        program,
        typeable=True,
        max_type_size=peak,
        avg_type_size=predicted / max(count, 1),
        predicted_nodes=predicted,
        size_threshold=size_threshold,
        node_budget=_node_budget(program),
    )


def audit_linearity(
    program: Program,
    inference=None,
    size_threshold: int = DEFAULT_SIZE_THRESHOLD,
) -> LinearityAudit:
    """Statically audit ``program`` against the Proposition 3/4
    preconditions, *before* any LC' run.

    ``inference`` is an inference outcome already at hand (an
    ``InferenceResult``, or the ``TypeInferenceError`` it raised; see
    :func:`inference_of`); without one, type inference runs here. An
    untypeable program yields a ``typeable=False`` audit instead of
    raising. The predicted node budget is the sum of type-tree sizes
    over all occurrences — the Section 4 bound on how many
    ``dom``/``ran`` positions the demand-driven closure can ever
    materialise.
    """
    from repro.types.infer import try_infer_types

    if inference is None:
        inference = try_infer_types(program)
    share = None
    if not isinstance(inference, TypeInferenceError):
        share = type_share(program.nodes, inference)
    return audit_of_share(program, share, size_threshold)


def inference_of(analysis):
    """The type-inference outcome an analysis result kept (LC' and
    the hybrid keep theirs, a hybrid fallback included), or ``None``
    when it ran none."""
    from repro.core.hybrid import HybridResult, subtransitive_graph_of

    if isinstance(analysis, HybridResult):
        return analysis.inference
    sub = subtransitive_graph_of(analysis)
    return sub.inference if sub is not None else None


def audit_section(
    program: Program,
    analysis=None,
    audit: Optional[LinearityAudit] = None,
    size_threshold: int = DEFAULT_SIZE_THRESHOLD,
) -> Dict[str, object]:
    """The ``audit`` envelope section: the static prediction plus the
    actual LC' accounting when an analysis is available.

    ``audit`` is the program's audit if one was already made;
    otherwise it is made from the analysis's own inference outcome
    (:func:`inference_of`), so the section never infers types a second
    time. Deterministic by construction (counts only, no wall-clock),
    so envelopes carrying it stay byte-stable and cacheable.
    """
    from repro.core.hybrid import subtransitive_graph_of

    if audit is None:
        audit = audit_linearity(
            program, inference_of(analysis), size_threshold
        )
    section = audit.to_dict()
    sub = subtransitive_graph_of(analysis)
    if sub is None:
        section["actual"] = None
        section["within_budget"] = None
    else:
        stats = sub.stats
        section["actual"] = {
            "nodes": stats.total_nodes,
            "edges": stats.total_edges,
            "demanded": stats.demanded_nodes,
        }
        section["within_budget"] = (
            stats.total_nodes <= audit.node_budget
        )
    return section
