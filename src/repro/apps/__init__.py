"""Linear-time CFA-consuming applications (paper Sections 8-9).

The paper's thesis is that the "all calls from all call-sites" view of
CFA is the wrong interface: that representation is quadratic, but many
consumers only need linear-size answers that can be computed *directly
on the subtransitive graph*:

* :mod:`repro.apps.effects` — find the side-effecting expressions
  (Section 8): a linear colouring of the graph, versus the naive
  consumer that materialises the call graph first (quadratic);
* :mod:`repro.apps.klimited` — k-limited CFA (Section 9): per call
  site, the callee set if it has at most k elements, else "many";
* :mod:`repro.apps.called_once` — abstractions invoked from exactly
  one call site (listed in the paper's abstract), via the same
  bounded-lattice propagation run in the reverse direction.

Each linear analysis is a rule program (:mod:`repro.rules.programs`)
compiled onto the shared flow engine: a node carries a set of at most
k tokens or the absorbing value MANY, so every node changes at most
k+2 times and the fixpoint is linear.
"""

from repro.apps.called_once import CalledOnceResult, called_once
from repro.apps.effects import (
    EffectsResult,
    effects_analysis,
    effects_analysis_baseline,
)
from repro.apps.klimited import KLimitedResult, MANY, k_limited_cfa

__all__ = [
    "CalledOnceResult",
    "EffectsResult",
    "KLimitedResult",
    "MANY",
    "called_once",
    "effects_analysis",
    "effects_analysis_baseline",
    "k_limited_cfa",
]
