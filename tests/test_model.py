"""Canonicalization, polytope assembly, and config validation."""
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volcount.model import (
    Backend,
    Bunch,
    Cmp,
    Formula,
    LinearConstraint,
    NumericKind,
    SolverConfig,
    box_constraints,
    bunch_multiplier,
    bunch_polytope,
    literal_row,
    make_polytope,
    normalize_constraint,
)

from oracles import ineq, row_holds


def frac(x) -> Fraction:
    return Fraction(x)


class TestNormalizeConstraint:
    def test_difference_strict(self):
        raw = LinearConstraint((frac(1), frac(-1)), Cmp.LT, frac(0))
        c = normalize_constraint(raw)
        assert c.coeffs == (1, -1)
        assert c.op is Cmp.LE and c.strict
        assert c.rhs == 0

    def test_zero_row_tautology(self):
        c = normalize_constraint(LinearConstraint((frac(0),), Cmp.LE, frac(5)))
        assert c.is_tautology and not c.is_contradiction

    def test_zero_row_contradiction(self):
        c = normalize_constraint(LinearConstraint((frac(0), frac(0)), Cmp.LE, frac(-3)))
        assert c.is_contradiction

    def test_fractional_scaling(self):
        c = normalize_constraint(
            LinearConstraint((Fraction(1, 2),), Cmp.LE, Fraction(1, 4))
        )
        assert c.coeffs == (2,)
        assert c.rhs == 1
        assert not c.strict

    def test_ge_negates_both_sides(self):
        c = normalize_constraint(LinearConstraint((frac(1), frac(2)), Cmp.GE, frac(3)))
        assert c.coeffs == (-1, -2)
        assert c.rhs == -3
        assert c.op is Cmp.LE and not c.strict

    def test_gt_becomes_strict(self):
        c = normalize_constraint(LinearConstraint((frac(2),), Cmp.GT, frac(4)))
        assert c.coeffs == (-1,)
        assert c.rhs == -2
        assert c.strict

    def test_gcd_covers_rhs(self):
        c = normalize_constraint(LinearConstraint((frac(2), frac(4)), Cmp.LE, frac(6)))
        assert c.coeffs == (1, 2)
        assert c.rhs == 3

    def test_rhs_not_multiple_of_coeff_gcd(self):
        c = normalize_constraint(LinearConstraint((frac(2), frac(4)), Cmp.LE, frac(3)))
        assert c.coeffs == (2, 4)
        assert c.rhs == 3

    def test_equality_kept(self):
        c = normalize_constraint(
            LinearConstraint((Fraction(1, 3), frac(1)), Cmp.EQ, frac(2))
        )
        assert c.op is Cmp.EQ
        assert c.coeffs == (1, 3)
        assert c.rhs == 6


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
ops = st.sampled_from(list(Cmp))


@st.composite
def constraints(draw, max_dim=4):
    n = draw(st.integers(min_value=1, max_value=max_dim))
    coeffs = tuple(draw(rationals) for _ in range(n))
    return LinearConstraint(coeffs, draw(ops), draw(rationals))


@given(constraints())
@settings(max_examples=200, deadline=None)
def test_normalize_idempotent(c):
    once = normalize_constraint(c)
    assert normalize_constraint(once) == once


@given(constraints(), st.data())
@settings(max_examples=200, deadline=None)
def test_normalize_preserves_semantics(c, data):
    point = tuple(data.draw(rationals) for _ in c.coeffs)
    assert row_holds(c, point) == row_holds(normalize_constraint(c), point)


@given(constraints())
@settings(max_examples=200, deadline=None)
def test_normalize_integral_and_coprime(c):
    canon = normalize_constraint(c)
    values = [canon.rhs] + list(canon.coeffs)
    assert all(v.denominator == 1 for v in values)
    nonzero = [abs(int(v)) for v in values if v != 0]
    if nonzero:
        from math import gcd

        assert gcd(*nonzero) == 1 if len(nonzero) > 1 else True


class TestMakePolytope:
    def test_parallel_rows_keep_tightest(self):
        p = make_polytope([ineq([1, 0], 5), ineq([1, 0], 3)], 2)
        assert len(p.rows) == 1
        assert p.rows[0].rhs == 3

    def test_equal_rhs_prefers_strict(self):
        c = ineq([1], 2)
        strict = LinearConstraint(c.coeffs, Cmp.LE, c.rhs, strict=True)
        p = make_polytope([c, strict], 1)
        assert len(p.rows) == 1
        assert p.rows[0].strict

    def test_conflicting_equalities_contradict(self):
        a = normalize_constraint(LinearConstraint((frac(1),), Cmp.EQ, frac(1)))
        b = normalize_constraint(LinearConstraint((frac(1),), Cmp.EQ, frac(2)))
        p = make_polytope([a, b], 1)
        assert p.contradictory

    def test_tautologies_dropped_contradictions_flag(self):
        taut = normalize_constraint(LinearConstraint((frac(0),), Cmp.LE, frac(1)))
        contra = normalize_constraint(LinearConstraint((frac(0),), Cmp.LE, frac(-1)))
        p = make_polytope([taut], 1)
        assert p.rows == () and not p.contradictory
        p2 = make_polytope([contra, ineq([1], 4)], 1)
        assert p2.contradictory


@st.composite
def row_systems(draw):
    """Canonical constraints over n <= 3 drawn from a few coefficient
    vectors (the zero vector can be one) and right-hand sides, so parallel
    duplicates that mix ``<``, ``<=`` and ``=`` and constant rows that hold
    or fail are common."""
    n = draw(st.integers(min_value=1, max_value=3))
    vectors = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), min_size=1, max_size=3))
    rhs = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=2))
    raw = draw(
        st.lists(
            st.tuples(
                st.sampled_from(vectors),
                st.sampled_from([Cmp.LT, Cmp.LE, Cmp.EQ]),
                st.sampled_from(rhs),
            ),
            max_size=8,
        )
    )
    return [ineq(coeffs, b, op) for coeffs, op, b in raw], n


# Every point of {-1, -1/2, 0, 1/2, 1}^n: many of them lie on some row.
HALF_GRID = [Fraction(v, 2) for v in range(-2, 3)]


@given(row_systems())
@settings(max_examples=300, deadline=None)
def test_make_polytope_keeps_the_solution_set(system):
    cs, n = system
    p = make_polytope(cs, n)
    assert set(p.rows) <= set(cs)
    for point in itertools.product(HALF_GRID, repeat=n):
        inside = not p.contradictory and all(row_holds(r, point) for r in p.rows)
        assert inside == all(row_holds(c, point) for c in cs)


@given(constraints(), st.data())
@settings(max_examples=200, deadline=None)
def test_literal_row_negation_semantics(c, data):
    canon = normalize_constraint(c)
    point = tuple(data.draw(rationals) for _ in canon.coeffs)
    flipped = literal_row(canon, False)
    if canon.op is Cmp.EQ:
        assert flipped is None
    else:
        assert row_holds(flipped, point) == (not row_holds(canon, point))


class TestBoxAndBunch:
    def test_box_rows(self):
        rows = box_constraints(2, 8)
        assert len(rows) == 4
        highs = {tuple(int(c) for c in r.coeffs): int(r.rhs) for r in rows}
        assert highs[(1, 0)] == 127 and highs[(-1, 0)] == 128

    def test_box_disabled(self):
        assert box_constraints(3, 0) == []

    def test_multiplier(self):
        assert bunch_multiplier(Bunch({1: True}, 0)) == 1
        assert bunch_multiplier(Bunch({1: True}, 3)) == 8

    def test_bunch_polytope_shapes(self):
        atoms = {
            1: ineq([1, 1], 1),
            2: normalize_constraint(
                LinearConstraint((frac(0), frac(1)), Cmp.EQ, frac(0))
            ),
        }
        formula = Formula(3, ((1,), (2, 3)), atoms, 2, NumericKind.INT)
        bunch = Bunch({1: True, 2: False, 3: True}, 0)
        p, deferred = bunch_polytope(bunch, formula, SolverConfig(word_length=4))
        # one atom row + four box rows; the negated equality is deferred
        assert len(p.rows) == 5
        assert len(deferred) == 1
        assert deferred[0].op is Cmp.EQ


class TestFormulaValidation:
    def test_duplicate_var_in_clause(self):
        with pytest.raises(ValueError):
            Formula(2, ((1, -1),), {}, 0, NumericKind.INT)

    def test_literal_out_of_range(self):
        with pytest.raises(ValueError):
            Formula(1, ((2,),), {}, 0, NumericKind.INT)

    def test_atom_aux_overlap(self):
        atom = {1: ineq([1], 0)}
        with pytest.raises(ValueError):
            Formula(1, (), atom, 1, NumericKind.INT, aux_var_ids=frozenset({1}))

    def test_atom_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Formula(1, (), {1: ineq([1, 1], 0)}, 1, NumericKind.INT)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.word_length == 8
        assert cfg.min_coeff == 40 and cfg.max_coeff == 1600
        assert cfg.backends == frozenset({Backend.ESTIMATE})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"word_length": 63},
            {"word_length": -1},
            {"min_coeff": 0},
            {"min_coeff": 50, "max_coeff": 10},
            {"timeout": 0.0},
            {"timeout": float("nan")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)
