"""Integer point counting against grid enumeration and closed forms."""
import itertools
import time
import traceback
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volcount import count, lp
from volcount.cli import main
from volcount.count import count_integer_points
from volcount.driver import load_formula, run
from volcount.errors import BackendError, SummationError, TimeoutExceeded, UnboundedError
from volcount.model import Backend, Cmp, SolverConfig, make_polytope

from oracles import grid_count, ineq, poly, sheared_cube

FIXTURES = Path(__file__).parent / "fixtures"


def box(n, lo, hi):
    rows = []
    for i in range(n):
        e = [Fraction(0)] * n
        e[i] = Fraction(1)
        rows.append(ineq(e, hi))
        rows.append(ineq([-c for c in e], -lo))
    return rows


class TestStrictRows:
    @pytest.mark.parametrize(
        "coeff,rhs,expected",
        [
            (1, 5, 5),      # x < 5 is x <= 4
            (2, 7, 4),      # 2x < 7 is 2x <= 6
            (-1, -3, 6),    # -x < -3 is x >= 4
            (-2, -7, 6),    # -2x < -7 is 2x >= 8
            (1, 0, 0),      # x < 0 is x <= -1
        ],
    )
    def test_strict_row_on_a_box(self, coeff, rhs, expected):
        p = poly(box(1, 0, 9) + [ineq([coeff], rhs, Cmp.LT)], 1)
        assert count_integer_points(p) == expected


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


def difference(n, i, j, rhs, op=Cmp.LE, g=1):
    """The row g x_i - g x_j (op) rhs over n variables."""
    coeffs = [0] * n
    coeffs[i], coeffs[j] = g, -g
    return ineq(coeffs, rhs, op)


def no_branching(*args):
    raise AssertionError("a difference system was branched on")


class TestDifferenceSummation:
    """Bounded difference systems are summed symbolically, never branched."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_difference_systems_match_grid(self, data):
        n = data.draw(st.integers(1, 4))
        lo = data.draw(st.integers(-6, 2))
        hi = data.draw(st.integers(lo, lo + 7))
        rows = []
        for v in range(n):
            # an interval of its own for each variable, inside [lo, hi]
            start, end = sorted(data.draw(st.integers(lo, hi)) for _ in range(2))
            unit = [0] * n
            unit[v] = 1
            rows += [ineq(unit, end), ineq([-u for u in unit], -start)]
        for _ in range(data.draw(st.integers(0, 6)) if n > 1 else 0):
            i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            g = data.draw(st.sampled_from([1, 1, 2, 3]))
            rhs = Fraction(data.draw(st.integers(-7, 7)), data.draw(st.sampled_from([1, 1, 2])))
            op = data.draw(st.sampled_from([Cmp.LE, Cmp.LT, Cmp.EQ]))
            rows.append(difference(n, i, j, rhs, op, g))
        p = poly(rows, n)
        with mock.patch.object(count, "_branch", no_branching):
            got = count_integer_points(p)
        assert got == grid_count(p, lo, hi)

    def test_bounds_are_pruned_by_the_system_without_the_variable(self):
        # x0 in [0, 3], x1 in [-1, 4], x1 - x0 <= -3, x0 - x1 <= 3: only
        # (2, -1) and (3, 0).  Pruning bounds on x0 with what x0 itself
        # implies, but keeping x1's original interval, counts 6.
        rows = [ineq([1, 0], 3), ineq([-1, 0], 0), ineq([0, 1], 4), ineq([0, -1], 1)]
        rows += [difference(2, 1, 0, -3), difference(2, 0, 1, 3)]
        p = poly(rows, 2)
        with mock.patch.object(count, "_branch", no_branching):
            assert count_integer_points(p) == 2
        assert grid_count(p, -1, 4) == 2

    def test_scaled_strict_and_equality_rows(self):
        # 2x - 2y <= 3 is x - y <= 1; x - y < 1 is x <= y; x - z = -2
        rows = box(3, -4, 3) + [
            difference(3, 0, 1, 3, g=2),
            difference(3, 1, 2, 1, Cmp.LT),
            difference(3, 0, 2, -2, Cmp.EQ),
        ]
        p = poly(rows, 3)
        with mock.patch.object(count, "_branch", no_branching):
            got = count_integer_points(p)
        assert got == grid_count(p, -4, 3) > 0

    def test_infeasible_cycle_counts_zero(self):
        # x < y < z < x over a box far too wide for interval propagation to
        # refute in its rounds: the negative cycle must be found when the
        # rows are closed, before any variable is eliminated.
        rows = box(3, -(2**31), 2**31 - 1) + [
            difference(3, 0, 1, 0, Cmp.LT),
            difference(3, 1, 2, 0, Cmp.LT),
            difference(3, 2, 0, 0, Cmp.LT),
        ]

        def no_elimination(*args):
            raise AssertionError("an infeasible system was eliminated")

        with mock.patch.object(count, "_branch", no_branching):
            with mock.patch.object(count, "_eliminate", no_elimination):
                assert count_integer_points(poly(rows, 3)) == 0

    def test_wide_box_chain_closed_form(self):
        # x0 < x1 < ... < x4 over 2^32 values: C(2^32, 5) points.
        n, size = 5, 2**32
        rows = box(n, -(size // 2), size // 2 - 1)
        rows += [difference(n, k, k + 1, 0, Cmp.LT) for k in range(n - 1)]
        with mock.patch.object(count, "_branch", no_branching):
            got = count_integer_points(poly(rows, n))
        assert got == size * (size - 1) * (size - 2) * (size - 3) * (size - 4) // 120


class TestSummationFallbacksAndErrors:
    def test_unbounded_difference_system_is_a_backend_error_in_the_cli(self, tmp_path, capsys):
        # x0 <= x1 with x0 >= 0 at -w=0: x1 runs free above
        halfline = tmp_path / "order.vs"
        halfline.write_text("p cnf v lc 2 2 2 2\nm1 1 -1 <= 0\nm2 1 0 >= 0\n1 0\n2 0\n")
        assert main(["-L", "-w=0", str(halfline)]) == 3
        out = capsys.readouterr().out
        assert "total integer_count: undefined" in out
        assert "infinite" in out

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_mixed_rows_and_disequalities_match_grid(self, data):
        n = data.draw(st.integers(2, 4))
        lo = data.draw(st.integers(-5, 0))
        hi = data.draw(st.integers(0, 5))
        rows = box(n, lo, hi)
        for _ in range(data.draw(st.integers(1, 4))):
            i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            rows.append(difference(n, i, j, data.draw(st.integers(-3, 3))))
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        if data.draw(st.booleans()):
            # x_i + x_j <= c: not a difference row
            coeffs = [0] * n
            coeffs[i] = coeffs[j] = 1
            rows.append(ineq(coeffs, data.draw(st.integers(-4, 4))))
            neqs = ()
        else:
            neqs = (difference(n, i, j, data.draw(st.integers(-2, 2)), Cmp.EQ),)
        p = poly(rows, n)
        assert count_integer_points(p, neqs) == grid_count(p, lo, hi, neqs)

    def test_deadline_expires_inside_the_summation(self):
        n = 6
        rows = box(n, -(2**31), 2**31 - 1)
        rows += [difference(n, k, k + 1, 0, Cmp.LT) for k in range(n - 1)]
        rows += [difference(n, 0, k, 0, Cmp.LT) for k in range(2, n)]
        checks = []

        def expire_at_fourth_check(deadline):
            # the first check is the counter's entry; the rest are cases
            checks.append(deadline)
            if len(checks) > 3:
                raise TimeoutExceeded("wall-clock budget exhausted")

        with mock.patch.object(count, "check_deadline", expire_at_fourth_check):
            with pytest.raises(TimeoutExceeded) as info:
                count_integer_points(poly(rows, n), deadline=time.monotonic() + 60)
        frames = [frame.name for frame in traceback.extract_tb(info.tb)]
        assert "_eliminate" in frames
        assert "_branch" not in frames

    def test_non_integer_sum_is_a_summation_error(self):
        # A wrong power-sum table (F_k(t) = t/2 for every k) sums x <= y
        # over [0, 2]^2 to 3/2; that must fail the count, never be rounded.
        # SummationError is a BackendError, so the driver fails only that
        # bunch.
        rows = box(2, 0, 2) + [difference(2, 0, 1, 0)]
        with mock.patch.object(count, "_faulhaber", lambda k: ((0, 1), 2)):
            with pytest.raises(SummationError, match="3/2"):
                count_integer_points(poly(rows, 2))
        assert issubclass(SummationError, BackendError)


def permuted(rows, perm):
    """``rows`` with variable j renamed to ``perm[j]``."""
    out = []
    for coeffs, rhs, op in rows:
        renamed = [0] * len(perm)
        for j, c in enumerate(coeffs):
            renamed[perm[j]] = c
        out.append(ineq(renamed, rhs, op))
    return out


def outcome(p, neqs=()):
    try:
        return count_integer_points(p, neqs)
    except UnboundedError as exc:
        return type(exc)


class TestRootIntervals:
    """Every variable gets a finite interval once, before counting."""

    TRIANGLE = [ineq([1, 1], 4), ineq([1, -2], 1), ineq([-2, 1], 1)]

    def test_triangle_needs_the_lp(self):
        # Every row has two open ends at the root, so only the LP bounds it.
        p = poly(self.TRIANGLE, 2)
        with mock.patch.object(lp, "integer_bounds", wraps=lp.integer_bounds) as probe:
            assert count_integer_points(p) == grid_count(p, -1, 3) == 10
        assert probe.call_count == 2

    def test_triangle_off_the_diagonal(self):
        p = poly(self.TRIANGLE, 2)
        neqs = (ineq([1, -1], 0, Cmp.EQ),)
        assert count_integer_points(p, neqs) == grid_count(p, -1, 3, neqs) == 6

    def test_empty_range_wins_under_every_variable_order(self):
        # 2x + 2z = 3 leaves x and z unbounded, but y = x + z = 3/2 has no
        # integer value, so there is no point.
        rows = [([2, 0, 2], 3, Cmp.EQ), ([-1, 1, -1], 0, Cmp.EQ)]
        for perm in itertools.permutations(range(3)):
            assert count_integer_points(poly(permuted(rows, perm), 3)) == 0

    def test_no_point_in_an_unbounded_relaxation_is_an_error(self):
        # 2y - 2x = 1 has no integer point, but no single range is empty and
        # z runs free above: the count is not decided as 0.
        rows = [ineq([1, 0, 0], 1), ineq([-1, 0, 0], 0), ineq([-2, 2, 0], 1, Cmp.EQ),
                ineq([0, 1, -1], 0)]
        with pytest.raises(UnboundedError, match="infinite"):
            count_integer_points(poly(rows, 3))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_renaming_variables_keeps_the_outcome(self, data):
        n = data.draw(st.integers(2, 3))
        rows = [
            (
                [data.draw(st.integers(-2, 2)) for _ in range(n)],
                data.draw(st.integers(-4, 4)),
                data.draw(st.sampled_from([Cmp.LE, Cmp.EQ])),
            )
            for _ in range(data.draw(st.integers(1, 3)))
        ]
        neqs = [([data.draw(st.integers(-2, 2)) for _ in range(n)], data.draw(st.integers(-3, 3)),
                 Cmp.EQ) for _ in range(data.draw(st.integers(0, 1)))]
        outcomes = {
            outcome(poly(permuted(rows, perm), n), tuple(permuted(neqs, perm)))
            for perm in itertools.permutations(range(n))
        }
        assert len(outcomes) == 1

    @pytest.mark.parametrize("n,k", [(4, 1000), (6, 10), (6, 64), (8, 2), (8, 30)])
    def test_sheared_cube_is_bounded_exactly(self, n, k):
        # |x_n| <= 1, then |x_j + k x_(j+1)| <= 1 from the end: every end is
        # filled exactly, never by the float LP, which is wrong on some of
        # these bodies.
        with mock.patch.object(lp, "integer_bounds", side_effect=AssertionError):
            assert count_integer_points(sheared_cube(n, k)) == 3**n


class TestCallCounts:
    """Work one count does.  On coloring, a lost component-memo hit counts
    that component again and raises the ``_count_core`` calls; on
    find_path1, a summation that splits into more cases raises the
    ``_eliminate`` calls."""

    @pytest.mark.parametrize(
        "fixture,word_length,name,calls,total",
        [
            ("coloring.smt2", 2, "_count_core", 157, 768),
            ("find_path1.vs", 6, "_eliminate", 9, 256257473472),
        ],
    )
    def test_calls(self, fixture, word_length, name, calls, total):
        config = SolverConfig(word_length=word_length, backends=frozenset({Backend.INTEGER_COUNT}))
        formula = load_formula(str(FIXTURES / fixture))
        with mock.patch.object(count, name, wraps=getattr(count, name)) as spy:
            report = run(config, formula)
        assert report.totals["integer_count"] == total
        assert spy.call_count == calls
