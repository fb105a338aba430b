"""Type-tree measures and the bounded-type classes ``P_k``.

Section 4 of the paper: "for monotyped programs, we simply bound the
tree-size of a program's types by some constant k. Equivalently, we
could bound a program's order and arity." Section 5 adopts
McAllester's definition for polymorphic programs: the monotypes of
each expression *in the let-expansion* all have size <= k. Because
:mod:`repro.types.infer` annotates each occurrence with its
per-occurrence instantiation, those are exactly the let-expansion
monotypes, so the measures here work unchanged for polymorphic
programs.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from repro.lang.ast import Program
from repro.types.infer import InferenceResult, infer_types
from repro.types.types import TData, TFun, TRecord, TRef, TVar, Type, prune


#: Memoised values of one measure, keyed by ``id`` of a pruned type
#: node. Inference shares type nodes between occurrences (a function's
#: type contains its body's), so measuring each occurrence afresh is
#: quadratic on deep types; one memo per call keeps it linear. A memo
#: must not outlive the types it measured (ids are reused).
Memo = Dict[int, int]


def _measure(ty: Type, memo: Memo, leaf: int, combine) -> int:
    """The value of ``ty`` under one measure: ``leaf`` at variables and
    named datatypes, else ``combine(node, child values)``. Every pruned
    node's value goes into ``memo``; the walk keeps its own stack, so
    deep types do not recurse."""
    ty = prune(ty)
    if isinstance(ty, (TVar, TData)):
        return leaf
    value = memo.get(id(ty))
    if value is not None:
        return value
    stack = [ty]
    while stack:
        node = stack[-1]
        if id(node) in memo:
            stack.pop()
        elif isinstance(node, (TVar, TData)):
            memo[id(node)] = leaf
            stack.pop()
        else:
            children = [prune(child) for child in node.children()]
            missing = [child for child in children if id(child) not in memo]
            if missing:
                stack.extend(missing)
            else:
                stack.pop()
                memo[id(node)] = combine(
                    node, [memo[id(child)] for child in children]
                )
    return memo[id(ty)]


def _size(node: Type, children: List[int]) -> int:
    return 1 + sum(children)


def _depth(node: Type, children: List[int]) -> int:
    return 1 + max(children, default=0)


def _order(node: Type, children: List[int]) -> int:
    if isinstance(node, TFun):
        return max(children[0] + 1, children[1])
    if isinstance(node, (TRecord, TRef)):
        return max(children, default=0)
    return 0


def _arity(node: Type, children: List[int]) -> int:
    return 1 + children[1] if isinstance(node, TFun) else 0


def type_size(ty: Type, memo: Optional[Memo] = None) -> int:
    """Tree size of a type (number of nodes).

    Named datatypes count as leaves: they are recursive, so unfolding
    would be infinite; the paper handles them separately via the node
    congruences of Section 6. Pass one ``memo`` to measure many types
    of one inference in linear time.
    """
    return _measure(ty, {} if memo is None else memo, 1, _size)


def type_depth(ty: Type, memo: Optional[Memo] = None) -> int:
    """Tree depth of a type (leaves have depth 1; named datatypes are
    leaves). Bounds the operator-tower depth the subtransitive engine
    may need: every node it must consider corresponds to a position in
    some program type tree (paper Section 4)."""
    return _measure(ty, {} if memo is None else memo, 1, _depth)


def max_type_depth(
    program: Program, inference: Optional[InferenceResult] = None
) -> int:
    """The deepest type tree over all occurrences of ``program``."""
    if inference is None:
        inference = infer_types(program)
    memo: Memo = {}
    return max(
        (type_depth(inference.type_of(node), memo) for node in program.nodes),
        default=1,
    )


def order_of(ty: Type, memo: Optional[Memo] = None) -> int:
    """Functional order: 0 for base types, and
    ``max(order(param) + 1, order(result))`` for arrows."""
    return _measure(ty, {} if memo is None else memo, 0, _order)


def arity_of(ty: Type, memo: Optional[Memo] = None) -> int:
    """Curried arity: the paper defines arity "so that currying
    increases argument count rather than order" — e.g. curried
    ``(int -> int) -> int list -> int list`` has arity 2."""
    return _measure(ty, {} if memo is None else memo, 0, _arity)


class BoundedTypeReport(NamedTuple):
    """Summary of a program's type-size profile.

    ``max_size`` is the bound ``k`` such that the program lies in
    ``P_k``; ``avg_size`` is the paper's empirical constant ``k_avg``
    ("the average size of the type trees at each node"), which the
    paper reports is "typically around 2 or 3".
    """

    max_size: int
    avg_size: float
    max_order: int
    max_arity: int
    node_count: int

    def within(self, k: int) -> bool:
        """True if the program lies in the class ``P_k``."""
        return self.max_size <= k


def bounded_type_report(
    program: Program, inference: Optional[InferenceResult] = None
) -> BoundedTypeReport:
    """Measure the type trees at every occurrence of ``program``.

    Runs inference if a result is not supplied; propagates
    :class:`TypeInferenceError` for untypeable programs.
    """
    if inference is None:
        inference = infer_types(program)
    sizes: Dict[int, int] = {}
    max_order = 0
    max_arity = 0
    size_memo: Memo = {}
    order_memo: Memo = {}
    arity_memo: Memo = {}
    for node in program.nodes:
        ty = inference.type_of(node)
        sizes[node.nid] = type_size(ty, size_memo)
        max_order = max(max_order, order_of(ty, order_memo))
        max_arity = max(max_arity, arity_of(ty, arity_memo))
    total = sum(sizes.values())
    count = max(len(sizes), 1)
    return BoundedTypeReport(
        max_size=max(sizes.values(), default=0),
        avg_size=total / count,
        max_order=max_order,
        max_arity=max_arity,
        node_count=len(sizes),
    )


def is_bounded_type(program: Program, k: int) -> bool:
    """True if every occurrence's monotype has tree size <= ``k``
    (i.e. the program is in the paper's class ``P_k``)."""
    return bounded_type_report(program).within(k)
