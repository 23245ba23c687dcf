"""Integer point counting against grid enumeration and closed forms."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volcount.count import count_integer_points, strict_to_closed
from volcount.errors import UnboundedError
from volcount.model import Cmp, make_polytope

from oracles import grid_count, ineq, poly


def box(n, lo, hi):
    rows = []
    for i in range(n):
        e = [Fraction(0)] * n
        e[i] = Fraction(1)
        rows.append(ineq(e, hi))
        rows.append(ineq([-c for c in e], -lo))
    return rows


class TestStrictToClosed:
    @pytest.mark.parametrize(
        "rhs,expected",
        [
            (Fraction(5), 4),          # integer bound: a x < 5 means a x <= 4
            (Fraction(7, 2), 3),       # fractional: a x < 3.5 means a x <= 3
            (Fraction(-3), -4),
            (Fraction(-7, 2), -4),
            (Fraction(0), -1),
        ],
    )
    def test_values(self, rhs, expected):
        assert strict_to_closed(rhs) == expected


class TestSmallClosedForms:
    def test_unit_box(self):
        p = poly(box(2, 0, 1), 2)
        assert count_integer_points(p) == 4

    def test_interval(self):
        p = poly([ineq([1], Fraction(5, 2)), ineq([-1], Fraction(1, 2))], 1)
        # -1/2 <= x <= 5/2 holds for x in {0, 1, 2}
        assert count_integer_points(p) == 3

    def test_strict_excludes_endpoint(self):
        closed = poly([ineq([1], 3), ineq([-1], 0)], 1)
        opened = poly([ineq([1], 3, Cmp.LT), ineq([-1], 0, Cmp.LT)], 1)
        assert count_integer_points(closed) == 4
        assert count_integer_points(opened) == 2

    def test_equality_row(self):
        rows = box(2, -3, 3) + [ineq([1, 1], 2, Cmp.EQ)]
        p = poly(rows, 2)
        # x + y = 2 with both in [-3, 3]: x in {-1..3}
        assert count_integer_points(p) == 5

    def test_empty(self):
        p = poly([ineq([1], 0), ineq([-1], -1)], 1)
        assert count_integer_points(p) == 0

    def test_zero_dim(self):
        assert count_integer_points(make_polytope([], 0)) == 1

    def test_unbounded(self):
        p = poly([ineq([1, 0], 1), ineq([-1, 0], 1), ineq([0, 1], 1)], 2)
        with pytest.raises(UnboundedError):
            count_integer_points(p)

    def test_unbounded_even_if_relaxation_suggests_otherwise(self):
        # x - y <= 0, y - x <= 0 forces x = y but leaves the diagonal infinite
        p = poly([ineq([1, -1], 0), ineq([-1, 1], 0)], 2)
        with pytest.raises(UnboundedError):
            count_integer_points(p)

    def test_separable_components_multiply(self):
        # two independent blocks: 3 values for x, 11 for (y, z) slab
        rows = box(3, -5, 5) + [
            ineq([1, 0, 0], 1),
            ineq([-1, 0, 0], 1),
            ineq([0, 1, 1], 0, Cmp.EQ),
        ]
        p = poly(rows, 3)
        assert count_integer_points(p) == 3 * 11


class TestDeferredDisequalities:
    def test_single_neq(self):
        p = poly(box(1, 0, 9), 1)
        neq = ineq([1], 4, Cmp.EQ)
        assert count_integer_points(p, (neq,)) == 9

    def test_neq_outside_region_changes_nothing(self):
        p = poly(box(1, 0, 9), 1)
        neq = ineq([1], 50, Cmp.EQ)
        assert count_integer_points(p, (neq,)) == 10

    def test_overlapping_neqs_inclusion_exclusion(self):
        p = poly(box(2, 0, 3), 2)
        neqs = (ineq([1, 0], 1, Cmp.EQ), ineq([0, 1], 2, Cmp.EQ))
        # grid 16, minus row x=1 (4), minus column y=2 (4), plus their meet
        assert count_integer_points(p, neqs) == 16 - 4 - 4 + 1

    def test_duplicate_neqs_do_not_double_subtract(self):
        p = poly(box(1, 0, 9), 1)
        neq = ineq([1], 4, Cmp.EQ)
        assert count_integer_points(p, (neq, neq)) == 9

    def test_fractional_neq_never_hits_lattice(self):
        p = poly(box(1, 0, 9), 1)
        neq = ineq([2], 5, Cmp.EQ)  # x = 5/2
        assert count_integer_points(p, (neq,)) == 10


class TestGridOracle:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_random_systems_match_grid(self, data):
        n = data.draw(st.integers(1, 3))
        lo = data.draw(st.integers(-16, 0))
        hi = data.draw(st.integers(0, 15))
        rows = box(n, lo, hi)
        for _ in range(data.draw(st.integers(0, 4))):
            coeffs = [Fraction(data.draw(st.integers(-3, 3))) for _ in range(n)]
            if all(c == 0 for c in coeffs):
                coeffs[0] = Fraction(1)
            op = data.draw(st.sampled_from([Cmp.LE, Cmp.LT, Cmp.EQ]))
            rhs = Fraction(data.draw(st.integers(-8, 8)), data.draw(st.integers(1, 3)))
            rows.append(ineq(coeffs, rhs, op))
        neqs = []
        for _ in range(data.draw(st.integers(0, 2))):
            coeffs = [Fraction(data.draw(st.integers(-2, 2))) for _ in range(n)]
            if all(c == 0 for c in coeffs):
                coeffs[0] = Fraction(1)
            neqs.append(ineq(coeffs, data.draw(st.integers(-4, 4)), Cmp.EQ))
        p = poly(rows, n)
        got = count_integer_points(p, tuple(neqs))
        want = grid_count(p, lo, hi, tuple(neqs))
        assert got == want

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_wide_one_dim_matches_grid(self, data):
        lo, hi = -32, 31
        rows = box(1, lo, hi)
        for _ in range(data.draw(st.integers(0, 3))):
            c = data.draw(st.integers(-5, 5)) or 1
            op = data.draw(st.sampled_from([Cmp.LE, Cmp.LT]))
            rows.append(ineq([c], Fraction(data.draw(st.integers(-60, 60)), data.draw(st.integers(1, 4))), op))
        p = poly(rows, 1)
        assert count_integer_points(p) == grid_count(p, lo, hi)


class TestLazyDisequalities:
    def test_graph_four_colouring_matches_grid(self):
        # Turan graph T(7, 4): K7 less three disjoint edges, 18 edges, the
        # most a 4-colourable graph on 7 vertices has.
        missing = {(0, 1), (2, 3), (4, 5)}
        edges = [(i, j) for i in range(7) for j in range(i + 1, 7) if (i, j) not in missing]
        assert len(edges) >= 18
        p = poly(box(7, 0, 3), 7)
        neqs = []
        for i, j in edges:
            coeffs = [0] * 7
            coeffs[i], coeffs[j] = 1, -1
            neqs.append(ineq(coeffs, 0, Cmp.EQ))
        got = count_integer_points(p, tuple(neqs))
        assert got > 0
        # The grid is the box itself, so the oracle need not re-check it.
        assert got == grid_count(make_polytope([], 7), 0, 3, tuple(neqs))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_difference_chains_with_neqs_match_grid(self, data):
        n = data.draw(st.integers(1, 3))
        lo = data.draw(st.integers(-6, 0))
        hi = data.draw(st.integers(0, 6))
        rows = box(n, lo, hi)
        # x_i - x_j < c chains: many branches reach the same subproblem
        for _ in range(data.draw(st.integers(0, 4)) if n > 1 else 0):
            i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            coeffs = [0] * n
            coeffs[i], coeffs[j] = 1, -1
            op = data.draw(st.sampled_from([Cmp.LE, Cmp.LT]))
            rows.append(ineq(coeffs, data.draw(st.integers(-4, 6)), op))
        for _ in range(data.draw(st.integers(0, 2))):
            coeffs = [data.draw(st.integers(-3, 3)) for _ in range(n)]
            if all(c == 0 for c in coeffs):
                coeffs[0] = 1
            rows.append(ineq(coeffs, data.draw(st.integers(-8, 8))))
        neqs = []
        for _ in range(data.draw(st.integers(0, 5))):
            coeffs = [data.draw(st.integers(-3, 3)) for _ in range(n)]
            neqs.append(ineq(coeffs, data.draw(st.integers(-6, 6)), Cmp.EQ))
        p = poly(rows, n)
        got = count_integer_points(p, tuple(neqs))
        assert got == grid_count(p, lo, hi, tuple(neqs))

    def test_diagonal_is_unbounded_with_a_neq(self):
        # x = y leaves the diagonal infinite; a disequality cannot bound it
        p = poly([ineq([1, -1], 0), ineq([-1, 1], 0)], 2)
        with pytest.raises(UnboundedError):
            count_integer_points(p, (ineq([1, 0], 3, Cmp.EQ),))
