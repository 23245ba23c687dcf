"""SMT-LIB 2 subset frontend."""
from fractions import Fraction
from pathlib import Path

import pytest

from volcount.errors import ParseError
from volcount.model import Cmp, NumericKind
from volcount.smt2 import parse_smt2

FIXTURES = Path(__file__).parent / "fixtures"


def parse(body: str, decls: str = "") -> "Formula":
    return parse_smt2(decls + body)


INT_XY = "(declare-fun x () Int)(declare-fun y () Int)"
REAL_XY = "(declare-fun x () Real)(declare-fun y () Real)"


class TestF1:
    def test_structure(self):
        f = parse_smt2((FIXTURES / "f1.smt2").read_text())
        assert f.numeric_kind is NumericKind.REAL
        assert f.num_numeric_vars == 2
        assert f.num_bool_vars == 7
        assert len(f.atom_map) == 6
        assert len(f.clauses) == 7
        assert f.aux_var_ids == frozenset()
        assert len(f.user_bool_ids) == 1

    def test_var_names(self):
        f = parse_smt2((FIXTURES / "f1.smt2").read_text())
        assert f.var_names == ("x", "y")


class TestAtoms:
    def test_dedup_same_constraint(self):
        f = parse("(assert (or (< x y) (< x y)))", INT_XY)
        assert len(f.atom_map) == 1

    def test_dedup_across_spellings(self):
        # x < y and y > x canonicalize identically
        f = parse("(assert (and (< x y) (> y x)))", INT_XY)
        assert len(f.atom_map) == 1

    def test_chained_comparison(self):
        f = parse("(assert (< x y 3))", INT_XY)
        assert len(f.atom_map) == 2
        assert len(f.clauses) == 2

    def test_tautological_atom_folds_away(self):
        f = parse("(assert (or (< 0 1) (< x y)))", INT_XY)
        # the constant comparison folds to True, so no clause remains
        assert f.clauses == ()

    def test_constant_comparison_is_not_an_atom(self):
        f = parse("(assert (< 0 1))", INT_XY)
        assert f.atom_map == {}
        assert f.clauses == ()

    def test_contradictory_atom_folds_to_false(self):
        f = parse("(assert (and (< 1 0) (< x y)))", INT_XY)
        assert () in f.clauses  # empty clause: unsatisfiable skeleton

    def test_arithmetic_normalization(self):
        f = parse("(assert (<= (+ (* 2 x) (- y)) (/ y 2)))", INT_XY)
        (constraint,) = f.atom_map.values()
        # 2x - y <= y/2  ->  4x - 3y <= 0
        assert constraint.coeffs == (4, -3)
        assert constraint.rhs == 0
        assert constraint.op is Cmp.LE and not constraint.strict

    def test_equality_atom(self):
        f = parse("(assert (= x 3))", "(declare-fun x () Int)")
        (constraint,) = f.atom_map.values()
        assert constraint.op is Cmp.EQ
        assert constraint.coeffs == (1,) and constraint.rhs == 3

    def test_distinct_pairwise(self):
        f = parse(
            "(assert (distinct x y z))",
            INT_XY + "(declare-fun z () Int)",
        )
        assert len(f.atom_map) == 3
        assert len(f.clauses) == 3
        assert all(len(c) == 1 and c[0] < 0 for c in f.clauses)


class TestBooleanStructure:
    def test_user_bool_and_aux_partition(self):
        f = parse(
            "(assert (or (and b (< x y)) (> x 2)))",
            INT_XY + "(declare-fun b () Bool)",
        )
        assert len(f.user_bool_ids) == 1
        assert len(f.aux_var_ids) == 1  # gate for the nested conjunction
        assert f.user_bool_ids.isdisjoint(f.aux_var_ids)

    def test_root_conjunction_flattens(self):
        f = parse("(assert (and (< x 1) (< y 1)))", INT_XY)
        assert f.aux_var_ids == frozenset()
        assert sorted(len(c) for c in f.clauses) == [1, 1]

    def test_let_parallel_binding(self):
        # parallel let: inner a refers to the outer binding
        f = parse(
            "(assert (let ((a (< x 0)) (b a)) (and a b)))",
            INT_XY + "(declare-fun a () Bool)",
        )
        # both conjuncts are the same atom -> single unit clause after dedup
        assert len(f.atom_map) == 1

    def test_let_sharing_no_duplicate_gates(self):
        f = parse(
            "(assert (let ((v (or (< x 0) (< y 0)))) (and (or v (< x 5)) (or v (< y 5)))))",
            INT_XY,
        )
        assert len(f.aux_var_ids) == 1  # shared node encoded once

    def test_implies_right_associative(self):
        f = parse(
            "(assert (=> p q r))",
            "(declare-fun p () Bool)(declare-fun q () Bool)(declare-fun r () Bool)",
        )
        # p => (q => r) == (!p | !q | r): a single ternary clause
        assert f.clauses == ((-1, -2, 3),)

    def test_boolean_ite(self):
        f = parse(
            "(assert (ite (< x 0) (< y 0) (< y 5)))",
            INT_XY,
        )
        assert len(f.atom_map) == 3


class TestIgnoredAndErrors:
    def test_ignored_commands(self):
        f = parse(
            "(set-logic QF_LIA)(set-info :status sat)(assert (< x 1))(check-sat)(exit)",
            "(declare-fun x () Int)",
        )
        assert len(f.atom_map) == 1

    @pytest.mark.parametrize(
        "text",
        [
            "(declare-fun x () Int)(declare-fun y () Real)(assert (< x y))",
            "(declare-fun b () Bool)(declare-fun c () Bool)(assert (= b c))",
            "(declare-fun x () Int)(assert (< (ite (< x 0) x 1) 2))",
            "(declare-fun x () Int)(assert (< (* x x) 2))",
            "(declare-fun x () Int)(assert (< (/ x 0) 2))",
            "(declare-fun x () Int)(assert (< (/ 2 x) 2))",
            "(declare-fun x () Int)(assert (< x undeclared))",
            "(declare-fun x () Int)(assert x)",
            "(assert (< x 1))(declare-fun x () Int)",
            "(declare-fun f (Int) Int)(assert (< 0 1))",
            "(declare-fun x () Unknown)",
            "(push 1)",
            "(declare-fun x () Int)(assert (< x 1)",
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(ParseError):
            parse_smt2(text)

    def test_duplicate_declaration(self):
        with pytest.raises(ParseError):
            parse_smt2("(declare-fun x () Int)(declare-fun x () Int)")


class TestCommentsStringsAndQuotedSymbols:
    def test_quoted_and_plain_spellings_name_one_symbol(self):
        for decls, body in [
            ("(declare-fun |x| () Int)", "(assert (< x 3))"),
            ("(declare-fun x () Int)", "(assert (< |x| 3))"),
        ]:
            f = parse(body, decls)
            assert f.var_names == ("x",)
            assert len(f.atom_map) == 1

    def test_quoted_symbol_may_hold_spaces_and_parentheses(self):
        f = parse("(assert (< |y (z)| 2))", "(declare-fun |y (z)| () Int)")
        assert f.var_names == ("y (z)",)

    def test_quoted_let_binding(self):
        f = parse("(assert (let ((|a| (< x 0))) a))", "(declare-fun x () Int)")
        assert len(f.atom_map) == 1
        f = parse("(assert (let ((|a b| (< x 0))) |a b|))", "(declare-fun x () Int)")
        assert len(f.atom_map) == 1

    def test_quoted_numeral_is_a_symbol(self):
        with pytest.raises(ParseError, match="unknown symbol"):
            parse("(assert (< x |1|))", "(declare-fun x () Int)")

    def test_quoted_numeral_symbol_leaves_the_numeral_alone(self):
        f = parse("(assert (< |1| 1))", "(declare-fun |1| () Int)")
        assert f.var_names == ("1",)
        (constraint,) = f.atom_map.values()
        assert constraint.coeffs == (1,)
        assert constraint.rhs == 1

    def test_quoted_numeral_let_binding_leaves_the_numeral_alone(self):
        f = parse(
            "(assert (let ((|1| 5)) (and (< x |1|) (< 1 x))))",
            "(declare-fun x () Int)",
        )
        assert sorted(abs(c.rhs) for c in f.atom_map.values()) == [1, 5]

    def test_plain_numeral_is_not_a_name(self):
        with pytest.raises(ParseError, match="not a symbol"):
            parse_smt2("(declare-fun 1 () Int)")
        with pytest.raises(ParseError, match="not a symbol"):
            parse("(assert (let ((1 (< x 0))) true))", "(declare-fun x () Int)")

    def test_quoted_and_plain_declarations_collide(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_smt2("(declare-fun x () Int)(declare-fun |x| () Int)")

    def test_comments_strings_and_a_symbol_over_two_lines(self):
        f = parse_smt2(
            "; a comment (with a parenthesis\n"
            "(set-info :source |two\nlines|) ; trailing comment\n"
            '(set-info :status "sat ""q"" )")\n'
            "(declare-fun x () Int)\n"
            "(assert (< x 1)) ;(assert (< x 0))\n"
        )
        assert len(f.atom_map) == 1

    def test_quoted_fixture(self):
        f = parse_smt2((FIXTURES / "quoted.smt2").read_text())
        assert f.var_names == ("x", "y z")
        assert len(f.atom_map) == 4

    @pytest.mark.parametrize(
        "text,message",
        [
            ("(set-info :source |open)", "unterminated quoted symbol"),
            ('(set-info :status "sat ""q"")', "unterminated string literal"),
        ],
    )
    def test_unterminated_tokens(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_smt2(text)
