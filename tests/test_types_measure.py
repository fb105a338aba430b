"""Tests for type-tree measures and the bounded-type classes P_k."""

import pytest

from repro.lang import parse
from repro.types.measure import (
    arity_of,
    bounded_type_report,
    is_bounded_type,
    order_of,
    type_size,
)
from repro.types.types import BOOL, INT, TData, TFun, TRecord, TRef, TVar
from repro.workloads.cubic import make_cubic_program
from repro.workloads.synthetic import make_life_like


class TestTypeSize:
    def test_base_type(self):
        assert type_size(INT) == 1

    def test_function_type(self):
        assert type_size(TFun(INT, INT)) == 3

    def test_nested_function(self):
        # (int -> int) -> int -> int : 7 nodes
        ty = TFun(TFun(INT, INT), TFun(INT, INT))
        assert type_size(ty) == 7

    def test_record(self):
        assert type_size(TRecord((INT, BOOL))) == 3

    def test_datatype_counts_as_leaf(self):
        assert type_size(TData("intlist")) == 1

    def test_ref(self):
        assert type_size(TRef(INT)) == 2

    def test_tvar_is_leaf(self):
        assert type_size(TVar()) == 1


class TestOrderAndArity:
    def test_base_order(self):
        assert order_of(INT) == 0

    def test_first_order_function(self):
        assert order_of(TFun(INT, INT)) == 1

    def test_second_order_function(self):
        assert order_of(TFun(TFun(INT, INT), INT)) == 2

    def test_order_ignores_currying(self):
        assert order_of(TFun(INT, TFun(INT, INT))) == 1

    def test_paper_map_example(self):
        # (Int -> Int) -> Int list -> Int list has arity 2, order 2.
        intlist = TData("intlist")
        ty = TFun(TFun(INT, INT), TFun(intlist, intlist))
        assert arity_of(ty) == 2
        assert order_of(ty) == 2

    def test_arity_of_base(self):
        assert arity_of(INT) == 0

    def test_order_looks_into_records_and_refs(self):
        assert order_of(TRecord((TFun(INT, INT), INT))) == 1
        assert order_of(TRef(TFun(TFun(INT, INT), INT))) == 2


class TestBoundedTypeReport:
    def test_simple_program(self):
        prog = parse("(fn x => x + 1) 2")
        report = bounded_type_report(prog)
        assert report.max_size == 3  # int -> int
        assert report.max_order == 1
        assert report.node_count == prog.size

    def test_within(self):
        prog = parse("fn x => x + 1")
        report = bounded_type_report(prog)
        assert report.within(3)
        assert not report.within(2)

    def test_is_bounded_type(self):
        prog = parse("1 + 2")
        assert is_bounded_type(prog, 1)

    def test_polymorphic_sizes_use_instantiations(self):
        # id instantiated at (int -> int) -> ... makes the max size
        # grow even though id's definition is tiny.
        prog = parse("let id = fn x => x in (id (fn y => y + 1)) 3")
        report = bounded_type_report(prog)
        assert report.max_size >= 5

    def test_cubic_family_is_uniformly_bounded(self):
        small = bounded_type_report(make_cubic_program(2))
        large = bounded_type_report(make_cubic_program(20))
        # The family is in P_k for a fixed k independent of n.
        assert small.max_size == large.max_size

    def test_paper_constant_claim_on_realistic_program(self):
        # "the constant is quite small, typically around 2 or 3."
        report = bounded_type_report(make_life_like())
        assert 1.5 <= report.avg_size <= 4.0

    def test_avg_no_larger_than_max(self):
        report = bounded_type_report(make_cubic_program(3))
        assert report.avg_size <= report.max_size


def fn_chain(n):
    """``fn x0 => fn x1 => ... => x0``: an n-deep type on one spine."""
    return parse("".join(f"fn x{i} => " for i in range(n)) + "x0")


class TestLinearOnDeepTypes:
    """Each occurrence of an n-deep ``fn`` chain has a type of size
    ~2n that shares its tail with the next occurrence's; measuring
    every occurrence afresh is quadratic, memoised per type node it is
    linear."""

    SIZES = (500, 4000)

    def _exponent(self, measure):
        from repro._util import ensure_recursion_limit
        from repro.bench.harness import fit_exponent, time_call
        from repro.types.infer import infer_types

        ensure_recursion_limit()
        times = []
        for n in self.SIZES:
            program = fn_chain(n)
            inference = infer_types(program)
            times.append(
                time_call(lambda: measure(program, inference), repeat=5)
            )
        return fit_exponent(self.SIZES, times)

    def test_max_type_depth_is_linear(self):
        from repro.types.measure import max_type_depth

        assert self._exponent(max_type_depth) < 1.5

    def test_audit_linearity_is_linear(self):
        from repro.flow.audit import audit_linearity

        assert self._exponent(audit_linearity) < 1.5

    def test_values_on_a_deep_chain(self):
        from repro._util import ensure_recursion_limit
        from repro.flow.audit import audit_linearity
        from repro.types.measure import max_type_depth

        ensure_recursion_limit()
        program = fn_chain(300)
        report = bounded_type_report(program)
        assert report.max_size == 601
        assert report.max_arity == 300 and report.max_order == 1
        assert report.avg_size == 301.0
        assert max_type_depth(program) == 301
        assert audit_linearity(program).predicted_nodes == 301 * 301

    def test_measures_share_nothing_between_calls(self):
        shared = TFun(INT, INT)
        ty = TFun(shared, TFun(shared, INT))
        assert type_size(ty) == 9
        assert order_of(ty) == 2
        assert arity_of(ty) == 2
