"""repro.flow — the monotone dataflow framework (Sections 5, 8, 9).

A single worklist engine over the subtransitive graph, client analyses
declared as lattice + downstream relation, a fused scheduler running
several passes in one sweep, and the linearity auditor that checks the
Proposition 3/4 bounded-type preconditions before the LC' engine runs.
"""

from repro.flow.analyses import (
    BoundedSetAnalysis,
    EffectsAnalysis,
    ReachabilityAnalysis,
    base_red,
    structural_parent_rule,
)
from repro.flow.audit import (
    DEFAULT_SIZE_THRESHOLD,
    LinearityAudit,
    audit_linearity,
    audit_section,
)
from repro.flow.framework import (
    DEFAULT_FUEL_FACTOR,
    FlowAnalysis,
    FlowContext,
    MarkAnalysis,
    run_flow,
    run_fused,
)
from repro.flow.lattice import MANY, Annotation, bounded_join, bounded_seed

__all__ = [
    "MANY",
    "Annotation",
    "bounded_seed",
    "bounded_join",
    "FlowAnalysis",
    "FlowContext",
    "MarkAnalysis",
    "run_flow",
    "run_fused",
    "DEFAULT_FUEL_FACTOR",
    "BoundedSetAnalysis",
    "ReachabilityAnalysis",
    "EffectsAnalysis",
    "base_red",
    "structural_parent_rule",
    "LinearityAudit",
    "audit_linearity",
    "audit_section",
    "DEFAULT_SIZE_THRESHOLD",
]
