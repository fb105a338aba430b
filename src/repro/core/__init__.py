"""The paper's contribution: linear-time subtransitive CFA.

* :mod:`repro.core.nodes` — the enriched node grammar
  (``e | dom(n) | ran(n) | proj_j(n) | c~j(n) | cell(n)``), hash-consed;
* :mod:`repro.core.lc` — the LC' engine: linear build phase plus
  demand-driven closure phase, with the paper's build/close accounting;
* :mod:`repro.core.queries` — Algorithms 1-2 and the O(n^2)
  all-label-sets computation, as graph reachability;
* :mod:`repro.core.datatypes` — the Section 6 node congruences
  (``≈1``, ``≈2``) for recursive datatypes;
* :mod:`repro.core.polyvariant` — Section 7 graph-fragment
  instantiation and summarisation;
* :mod:`repro.core.hybrid` — the conclusion's hybrid driver (budgeted
  LC' with cubic fallback), total on arbitrary programs.
"""

from repro.core.datatypes import (
    BaseTypeCongruence,
    Congruence,
    ExactCongruence,
    TypeCongruence,
    make_congruence,
)
from repro.core.hybrid import (
    HybridResult,
    analyze_hybrid,
    subtransitive_graph_of,
)
from repro.core.lc import (
    LCEngine,
    LCStatistics,
    SubtransitiveGraph,
    build_subtransitive_graph,
)
from repro.core.nodes import Node, NodeFactory
from repro.core.polyvariant import (
    FragmentSummary,
    analyze_polyvariant,
    choose_polyvariant_binders,
    summarize_fragment,
)
from repro.core.queries import SubtransitiveCFA, analyze_subtransitive

__all__ = [
    "BaseTypeCongruence",
    "Congruence",
    "ExactCongruence",
    "FragmentSummary",
    "HybridResult",
    "LCEngine",
    "LCStatistics",
    "Node",
    "NodeFactory",
    "SubtransitiveCFA",
    "SubtransitiveGraph",
    "TypeCongruence",
    "analyze_hybrid",
    "analyze_polyvariant",
    "analyze_subtransitive",
    "build_subtransitive_graph",
    "choose_polyvariant_binders",
    "make_congruence",
    "subtransitive_graph_of",
    "summarize_fragment",
]
