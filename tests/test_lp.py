"""Two-phase simplex and the polytope-level LP helpers."""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import volcount.lp
from volcount.bunches import enumerate_bunches
from volcount.driver import load_formula
from volcount.errors import NumericalError, UnboundedError
from volcount.lp import (
    LpStatus,
    chebyshev_center,
    integer_bounds,
    lp_feasible,
    lp_optimize,
    simplex_max,
)
from volcount.model import Cmp, SolverConfig, make_polytope

from oracles import cube, ineq, poly


class TestSimplexMax:
    def test_basic_2d(self):
        # max x + y st x <= 2, y <= 3, x + y <= 4
        res = simplex_max(
            np.array([1.0, 1.0]),
            np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
            np.array([2.0, 3.0, 4.0]),
        )
        assert res.status is LpStatus.OPTIMAL
        assert res.value == pytest.approx(4.0, abs=1e-9)

    def test_free_variables(self):
        # max -x st x >= -5 (i.e. -x <= 5); optimum at x = -5
        res = simplex_max(
            np.array([-1.0]), np.array([[-1.0]]), np.array([5.0])
        )
        assert res.status is LpStatus.OPTIMAL
        assert res.value == pytest.approx(5.0, abs=1e-9)
        assert res.point[0] == pytest.approx(-5.0, abs=1e-9)

    def test_infeasible(self):
        res = simplex_max(
            np.array([1.0]),
            np.array([[1.0], [-1.0]]),
            np.array([1.0, -2.0]),
        )
        assert res.status is LpStatus.INFEASIBLE

    def test_unbounded(self):
        res = simplex_max(np.array([1.0]), np.array([[-1.0]]), np.array([0.0]))
        assert res.status is LpStatus.UNBOUNDED

    @pytest.mark.parametrize(
        "b_ub, b_eq, status",
        [
            ([1.0], [0.0], LpStatus.OPTIMAL),
            ([-1.0], [0.0], LpStatus.INFEASIBLE),
            ([1.0], [0.5], LpStatus.INFEASIBLE),
        ],
    )
    def test_no_variables(self, b_ub, b_eq, status):
        # Rows without variables read 0 <= b_ub and 0 = b_eq.
        res = simplex_max(
            np.zeros(0), np.zeros((1, 0)), np.array(b_ub), np.zeros((1, 0)), np.array(b_eq)
        )
        assert res.status is status

    def test_equality_rows(self):
        # max x st x + y = 2, y <= 1, -y <= 0 -> x = 2 at y = 0
        res = simplex_max(
            np.array([1.0, 0.0]),
            np.array([[0.0, 1.0], [0.0, -1.0]]),
            np.array([1.0, 0.0]),
            np.array([[1.0, 1.0]]),
            np.array([2.0]),
        )
        assert res.status is LpStatus.OPTIMAL
        assert res.value == pytest.approx(2.0, abs=1e-9)

    def test_degenerate_does_not_cycle(self):
        # classic cycling-prone instance (Beale); Bland fallback must save it
        a = np.array(
            [
                [0.25, -8.0, -1.0, 9.0],
                [0.5, -12.0, -0.5, 3.0],
                [0.0, 0.0, 1.0, 0.0],
                [-1.0, 0.0, 0.0, 0.0],
                [0.0, -1.0, 0.0, 0.0],
                [0.0, 0.0, -1.0, 0.0],
                [0.0, 0.0, 0.0, -1.0],
            ]
        )
        b = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        c = np.array([0.75, -150.0, 0.02, -6.0])
        res = simplex_max(c, a, b)
        assert res.status is LpStatus.OPTIMAL
        # optimum 0.77 at (1, 0, 1, 0)
        assert res.value == pytest.approx(0.77, abs=1e-7)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_infeasible_systems_carry_a_farkas_certificate(data):
    """y >= 0 on the inequality rows, y^T A = 0 and y^T b < 0."""
    n = data.draw(st.integers(1, 4))
    m_ub = data.draw(st.integers(1, 7))
    m_eq = data.draw(st.integers(0, 2))
    entry = st.integers(-5, 5)
    m = m_ub + m_eq
    scale = np.array([data.draw(st.sampled_from([1.0, 0.5, 8.0, 2.0**20])) for _ in range(m)])
    a = np.array([[data.draw(entry) for _ in range(n)] for _ in range(m)]) * scale[:, None]
    b = np.array([data.draw(st.integers(-12, 4)) for _ in range(m)]) * scale
    res = simplex_max(np.zeros(n), a[:m_ub], b[:m_ub], a[m_ub:], b[m_ub:])
    assume(res.status is LpStatus.INFEASIBLE)
    y = res.certificate
    assert y is not None and y.shape == (m,)
    assert np.all(y[:m_ub] >= 0.0)
    assert np.linalg.norm(y @ a) <= 1e-7 * np.linalg.norm(y)
    assert float(y @ b) < 0.0


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_simplex_matches_highs(data):
    """Status and optimum agree with scipy's HiGHS, whether phase 1 starts
    feasible (every b >= 0, no equality) or must drive artificials out."""
    from scipy.optimize import linprog

    n = data.draw(st.integers(1, 4))
    kind = data.draw(st.sampled_from(["mixed", "around_point", "origin_feasible"]))
    m_ub = data.draw(st.integers(0, 8))
    m_eq = 0 if kind == "origin_feasible" else data.draw(st.integers(0, 2))
    entry = st.integers(-4, 4)
    a = np.array([[data.draw(entry) for _ in range(n)] for _ in range(m_ub + m_eq)], dtype=float)
    a = a.reshape(m_ub + m_eq, n)
    if kind == "mixed":
        b = np.array([data.draw(st.integers(-8, 3)) for _ in range(m_ub + m_eq)], dtype=float)
    elif kind == "around_point":
        x0 = np.array([data.draw(st.integers(-3, 3)) for _ in range(n)], dtype=float)
        slack = np.array([data.draw(st.integers(0, 3)) for _ in range(m_ub)] + [0] * m_eq)
        b = a @ x0 + slack
    else:
        b = np.array([data.draw(st.integers(0, 6)) for _ in range(m_ub)], dtype=float)
    c = np.array([data.draw(entry) for _ in range(n)], dtype=float)
    a_ub, b_ub, a_eq, b_eq = a[:m_ub], b[:m_ub], a[m_ub:], b[m_ub:]

    res = simplex_max(c, a_ub, b_ub, a_eq, b_eq)

    highs = dict(
        A_ub=a_ub if m_ub else None,
        b_ub=b_ub if m_ub else None,
        A_eq=a_eq if m_eq else None,
        b_eq=b_eq if m_eq else None,
        bounds=[(None, None)] * n,
        method="highs",
    )
    # A zero objective settles feasibility alone, so "infeasible or
    # unbounded" never needs telling apart.
    feasible = linprog(np.zeros(n), **highs)
    assert feasible.status in (0, 2)
    if feasible.status == 2:
        assert res.status is LpStatus.INFEASIBLE
        return
    ref = linprog(-c, **highs)
    assert ref.status in (0, 2, 3)
    # The system is feasible, so HiGHS's "infeasible" here is its presolve
    # reporting a dual-infeasible (unbounded) model: it does so for
    # max x3 s.t. -x0 + x2 - x3 <= 0, x0 - x2 + x3 <= 1.
    if ref.status in (2, 3):
        assert res.status is LpStatus.UNBOUNDED
        return
    assert res.status is LpStatus.OPTIMAL
    assert res.value == pytest.approx(-ref.fun, rel=1e-7, abs=1e-7)
    if m_ub:
        assert np.all(a_ub @ res.point <= b_ub + 1e-7)
    if m_eq:
        assert np.allclose(a_eq @ res.point, b_eq, atol=1e-7)


class TestPolytopeHelpers:
    def test_optimize_over_cube(self):
        p = cube(3)
        res = lp_optimize(p, np.array([1.0, 2.0, -1.0]), "max")
        assert res.value == pytest.approx(4.0, abs=1e-9)
        res2 = lp_optimize(p, np.array([1.0, 2.0, -1.0]), "min")
        assert res2.value == pytest.approx(-4.0, abs=1e-9)

    def test_feasibility(self):
        assert lp_feasible(*cube(2).split_arrays()).status is LpStatus.OPTIMAL
        empty = poly([ineq([1, 0], 0), ineq([-1, 0], -1)], 2)
        assert lp_feasible(*empty.split_arrays()).status is LpStatus.INFEASIBLE

    def test_chebyshev_cube(self):
        center, rho = chebyshev_center(cube(2))
        assert rho == pytest.approx(1.0, abs=1e-7)
        assert np.allclose(center, [0.0, 0.0], atol=1e-6)

    def test_chebyshev_far_from_the_origin(self):
        # a box [2^30, 2^30 + 2] x [0, 2]: the radius cap must not bind
        far = poly(
            [ineq([1, 0], 2**30 + 2), ineq([-1, 0], -(2**30)), ineq([0, 1], 2), ineq([0, -1], 0)], 2
        )
        center, rho = chebyshev_center(far)
        assert rho == pytest.approx(1.0, abs=1e-7)
        assert center[1] == pytest.approx(1.0, abs=1e-6)

    def test_chebyshev_flat(self):
        flat = poly([ineq([1, 0], 0), ineq([-1, 0], 0), ineq([0, 1], 1), ineq([0, -1], 1)], 2)
        _, rho = chebyshev_center(flat)
        assert abs(rho) <= 1e-7

    def test_equality_row_forces_flatness(self):
        c = ineq([1, 1], 2, Cmp.EQ)
        p = make_polytope([c, ineq([1, 0], 5)], 2)
        _, rho = chebyshev_center(p)
        assert abs(rho) <= 1e-7

    def test_chebyshev_cap_binds_on_a_half_plane(self):
        # {x <= 5} holds balls of every radius; the guard row caps rho at
        # max(1, 5 / 1) = 5, and the caller's probe reports the ray.
        _, rho = chebyshev_center(poly([ineq([1], 5)], 1))
        assert rho == pytest.approx(5.0, abs=1e-9)

    def test_a_bad_optimum_raises_after_one_solve(self, monkeypatch):
        # The final point is checked inside the solve: a point read-out that
        # misses the rows is an error at once, with no second solve.
        real_solve, real_point = volcount.lp.simplex_max, volcount.lp._basic_point
        solves = []

        def counted(*args):
            solves.append(args)
            return real_solve(*args)

        monkeypatch.setattr(volcount.lp, "simplex_max", counted)
        monkeypatch.setattr(
            volcount.lp, "_basic_point", lambda tab, basis, n: real_point(tab, basis, n) + 1e3
        )
        with pytest.raises(NumericalError, match="violates constraints"):
            chebyshev_center(cube(2))
        assert len(solves) == 1

    def test_the_optimum_is_checked_against_the_callers_rows(self, monkeypatch):
        # Maximize x with 10^6 x <= 1.  An optimum read 5e-8 too far misses
        # the scaled row x <= 1e-6 by less than FEAS_TOL, but the row as
        # given by 0.05.
        real_point = volcount.lp._basic_point
        monkeypatch.setattr(
            volcount.lp, "_basic_point", lambda tab, basis, n: real_point(tab, basis, n) + 5e-8
        )
        with pytest.raises(NumericalError, match="violates constraints"):
            simplex_max(np.array([1.0]), np.array([[1e6]]), np.array([1.0]))

    def test_integer_bounds_simple(self):
        p = poly([ineq([2], 5), ineq([-2], 5)], 1)  # -2.5 <= x <= 2.5
        assert integer_bounds(p, 0) == (-2, 2)

    def test_integer_bounds_empty(self):
        empty = poly([ineq([1], 0), ineq([-1], -1)], 1)
        assert integer_bounds(empty, 0) is None

    def test_integer_bounds_contradictory(self):
        q = make_polytope([ineq([1, 1], 0, Cmp.EQ), ineq([1, 1], 1, Cmp.EQ)], 2)
        assert q.contradictory
        assert integer_bounds(q, 0) is None

    @pytest.mark.parametrize(
        "rows, j, want",
        [
            # The upper LP value comes out as 3818040453.999997, which an
            # absolute 1e-7 slack floors to one below the true end.
            (
                [([1, -1], 429933218), ([-5, 4], 1766413942), ([3, -2], 1025813256)],
                0,
                (-3486146814, 3818040454),
            ),
            # A polygon 2^33 wide whose lowest x is 0: the LP reads 1.2e-7,
            # which a slack relative to |value| alone rounds up to 1.
            (
                [
                    (coeffs, rhs * 2**31)
                    for coeffs, rhs in [
                        ([1, 0], 5), ([-1, 0], 5), ([0, 1], 2), ([0, -1], 1),
                        ([1, 3], 1), ([-2, -1], 4), ([-3, -3], -1),
                    ]
                ],
                0,
                (0, 8589934592),
            ),
        ],
        ids=["value-off-by-3e-6", "end-at-0"],
    )
    def test_integer_bounds_near_2_31_do_not_narrow(self, rows, j, want):
        lo, hi = integer_bounds(poly([ineq(a, b) for a, b in rows], 2), j)
        assert lo <= want[0] and hi >= want[1]

    def test_integer_bounds_unbounded(self):
        p = poly([ineq([-1, 0], 0)], 2)
        with pytest.raises(UnboundedError):
            integer_bounds(p, 0)


def _enumerate_vs(tmp_path, text, word_length):
    path = tmp_path / "system.vs"
    path.write_text(text)
    return list(enumerate_bunches(load_formula(str(path)), SolverConfig(word_length=word_length)))


@pytest.mark.parametrize("word_length", [16, 24, 32])
def test_thin_inconsistency_stays_unsat_in_a_wide_box(tmp_path, word_length):
    """x + y <= 0, x - y <= 0 and 10^6 x >= 1 are inconsistent by 1e-6.
    Phase 1 must judge that margin against each row's own scale: a single
    tolerance taken from the largest |b|, the word-length box's, reads the
    literals as consistent at -w=32, and the final check then raises out of
    the enumeration."""
    text = "p cnf v lc 3 3 2 3\nm1 1 1 <= 0\nm2 1 -1 <= 0\nm3 -1000000 0 <= -1\n1 0\n2 0\n3 0\n"
    assert _enumerate_vs(tmp_path, text, word_length) == []


@pytest.mark.parametrize("word_length", [0, 32])
def test_thin_inconsistency_far_from_the_origin_stays_unsat(tmp_path, word_length):
    """x <= 2^30, y <= 2^30 and 1000 x + 1000 y >= 1000 * 2^31 + 1 are
    inconsistent by 1e-3 in the scaled rows, at points 2^30 from the origin.
    The relative tolerance must stay near the rounding noise: at 1e-12 of
    the rows' magnitude (4e-3 here) the literals read as consistent and
    become a bunch."""
    text = (
        "p cnf v lc 3 3 2 3\nm1 1 0 <= 1073741824\nm2 0 1 <= 1073741824\n"
        "m3 -1000 -1000 <= -2147483648001\n1 0\n2 0\n3 0\n"
    )
    assert _enumerate_vs(tmp_path, text, word_length) == []


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_optimum_dominates_random_grid(data):
    """LP maximum over a random bounded polytope must dominate every feasible
    grid point (soundness of optimality)."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = data.draw(st.integers(1, 3))
    rows = []
    for j in range(n):
        unit = [0] * n
        unit[j] = 1
        rows.append(ineq(unit, 4))
        rows.append(ineq([-u for u in unit], 4))
    for _ in range(data.draw(st.integers(0, 4))):
        coeffs = [int(v) for v in rng.integers(-3, 4, size=n)]
        if all(c == 0 for c in coeffs):
            continue
        rows.append(ineq(coeffs, int(rng.integers(0, 9))))
    p = poly(rows, n)
    c = rng.standard_normal(n)
    res = lp_optimize(p, c, "max")
    if res.status is not LpStatus.OPTIMAL:
        return
    import itertools

    from oracles import row_holds

    best = max(
        (
            float(np.dot(c, point))
            for point in itertools.product(range(-4, 5), repeat=n)
            if all(row_holds(r, point) for r in p.rows)
        ),
        default=None,
    )
    if best is not None:
        assert res.value >= best - 1e-6
