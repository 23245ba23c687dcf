"""Exact polytope volume: closed forms, planar oracle, hull oracle, edge cases."""
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import volcount
from volcount.bunches import enumerate_bunches
from volcount.driver import load_formula
from volcount.errors import NumericalError, UnboundedError
from volcount.exact import _clean_rows, _polygon_area, exact_volume
from volcount.lp import LpResult, LpStatus, lp_optimize
from volcount.model import Cmp, SolverConfig, bunch_polytope, make_polytope

from oracles import (
    clean_rows_loop,
    cross_polytope,
    cube,
    hull_volume,
    ineq,
    poly,
    polygon_area_2d,
    sheared_cube,
    simplex,
)


def _box_rows(n, lo, hi):
    """The rows of [lo, hi]^n."""
    rows = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        rows += [ineq(e, hi), ineq([-c for c in e], -lo)]
    return rows


class TestClosedForms:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_cube(self, n):
        assert exact_volume(cube(n)) == pytest.approx(2.0**n, rel=1e-9)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_simplex(self, n):
        assert exact_volume(simplex(n)) == pytest.approx(
            1.0 / math.factorial(n), rel=1e-9
        )

    @pytest.mark.parametrize("n", range(1, 7))
    def test_cross_polytope(self, n):
        assert exact_volume(cross_polytope(n)) == pytest.approx(
            2.0**n / math.factorial(n), rel=1e-9
        )

    def test_triangle(self):
        p = poly([ineq([-1, 0], 0), ineq([0, -1], 0), ineq([1, 1], 1)], 2)
        assert exact_volume(p) == pytest.approx(0.5, rel=1e-12)

    def test_translation_invariance(self):
        base = [ineq([1, 1, 0], 2), ineq([-1, 2, 1], 3)]
        box = []
        for i in range(3):
            e = [Fraction(0)] * 3
            e[i] = Fraction(1)
            box.append(ineq(e, 2))
            box.append(ineq([-c for c in e], 2))
        v0 = exact_volume(poly(base + box, 3))
        # shift everything by t = (3, -20, 5): rhs += a . t
        t = (3, -20, 5)
        shifted = []
        for c in base + box:
            delta = sum(ci * ti for ci, ti in zip(c.coeffs, t))
            shifted.append(ineq(list(c.coeffs), c.rhs + delta))
        assert exact_volume(poly(shifted, 3)) == pytest.approx(v0, rel=1e-9)

    def test_word_box_cut_by_coupling_row(self):
        # [-8, 7]^8 with sum(x) <= 3; shifting by 8 gives [0, 15]^8 with
        # sum(y) <= 67, whose volume is the inclusion-exclusion sum over the
        # k coordinates forced past 15.
        n, width, cap = 8, 15, 67
        want = sum(
            (-1) ** k * math.comb(n, k) * Fraction(max(cap - width * k, 0)) ** n
            for k in range(n + 1)
        ) / math.factorial(n)
        assert want == Fraction(2104760818081, 1152)
        rows = [ineq([1] * n, 3)] + _box_rows(n, -8, 7)
        assert exact_volume(poly(rows, n)) == pytest.approx(float(want), rel=1e-9)


def _polygon(box, cuts):
    """[-box[1], box[0]] x [-box[3], box[2]] cut by rows cx x + cy y <= c."""
    rows = [ineq([1, 0], box[0]), ineq([-1, 0], box[1]), ineq([0, 1], box[2]), ineq([0, -1], box[3])]
    return poly(rows + [ineq([cx, cy], c) for cx, cy, c in cuts], 2)


@st.composite
def _polygons(draw):
    """A box reaching 1 to 6 from the origin on each side, cut by up to five
    rows with coefficients in -3..3."""
    box = [draw(st.integers(1, 6)) for _ in range(4)]
    cuts = []
    for _ in range(draw(st.integers(0, 5))):
        cx = draw(st.integers(-3, 3))
        cy = draw(st.integers(-3, 3))
        if cx == 0 and cy == 0:
            cx = 1
        cuts.append((cx, cy, draw(st.integers(-2, 9))))
    return _polygon(box, cuts)


class TestPlanarOracle:
    @given(_polygons())
    @settings(max_examples=60, deadline=None)
    def test_random_polygons_match_shoelace(self, p):
        want = float(polygon_area_2d(p))
        got = exact_volume(p)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    @given(_polygons(), st.integers(-30, 31))
    @settings(max_examples=60, deadline=None)
    # Bodies whose vertices an absolute 1e-7 vertex test and a 1e-9 dedup
    # get wrong: a shoelace over the vertices they keep reads 46.8 for 4.0
    # and 8.0 for 10.2.
    @example(_polygon([5, 1, 4, 2], [(3, 0, 4), (2, -2, 3), (1, 2, 8), (2, -1, -1), (0, 2, 6)]), -30)
    @example(_polygon([5, 1, 2, 3], [(-1, 3, 3), (1, -3, 5), (-1, 0, 5), (-1, 2, 4), (3, -3, 7)]), 31)
    def test_scaled_polygons_match_shoelace(self, p, k):
        """Every right-hand side times 2^k scales the area by exactly 4^k.
        The base case runs on its own, so no LP error can hide or fail
        it."""
        a, b, _, _ = p.split_arrays()
        rows = _clean_rows(a, b * 2.0**k, tuple(range(len(b))))
        got = _polygon_area(rows[0], rows[1]) * 4.0**-k
        assert got == pytest.approx(float(polygon_area_2d(p)), rel=1e-9, abs=1e-9)

    def test_polygon_far_from_unit_scale(self):
        # tests/fixtures/big_polygon.vs: an 8-row body in the 2^30 box.
        formula = load_formula(str(Path(__file__).parent / "fixtures" / "big_polygon.vs"))
        p = poly(list(formula.atom_map.values()), 2)
        want = Fraction(17358446379567383883, 64)
        assert polygon_area_2d(p) == want
        assert exact_volume(p) == pytest.approx(float(want), rel=1e-9)

    def test_unbounded_planar_system_raises(self):
        # x <= 1, -x <= 1, y <= 1: the two vertical edges run down without end.
        a = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(NumericalError, match="unbounded face"):
            _polygon_area(a, np.ones(3))


@st.composite
def _row_systems(draw):
    """(a, b, ids): rows drawn from a few directions at mixed scales, so
    parallel and coincident rows are common, right-hand sides nudged by
    less than 1e-15, coefficients nudged by 1e-14, and constant rows (zero
    or below the 1e-12 scale cut-off) that hold or fail."""
    n = draw(st.integers(2, 4))
    directions = draw(
        st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=1, max_size=4)
    )
    rows, rhs = [], []
    for _ in range(draw(st.integers(0, 9))):
        if draw(st.integers(0, 4)) == 0:
            tiny = draw(st.sampled_from([0.0, 1e-13, -5e-13]))
            rows.append([tiny * draw(st.integers(-1, 1)) for _ in range(n)])
            rhs.append(draw(st.sampled_from([0.0, 1.0, -1e-9, -2e-9, -3.0])))
            continue
        scale = draw(st.sampled_from([1.0, 2.0, 0.5, 3.0, 1e-3, 2.0**20]))
        row = [c * scale for c in draw(st.sampled_from(directions))]
        # A residue far below the 1e-12 key rounding, which can round to -0.0.
        row[0] += draw(st.sampled_from([0.0, 0.0, 1e-14, -1e-14]))
        rows.append(row)
        c = draw(st.integers(-6, 6)) / draw(st.sampled_from([1, 2, 3, 7]))
        nudge = draw(st.sampled_from([0.0, 2e-16, -2e-16, 9e-16, -9e-16, 3e-15]))
        rhs.append((c + nudge) * scale)
    ids = tuple(draw(st.permutations(range(len(rows)))))
    return np.array(rows, dtype=float).reshape(len(rows), n), np.array(rhs, dtype=float), ids


def _same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    return np.array_equal(x, y) and x.tobytes() == y.tobytes()


_BOX = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]


@given(_row_systems())
@settings(max_examples=300, deadline=None)
# 2x + 2y <= 4 next to x + y <= 3: the later, larger-scale row is tighter.
@example((np.array([[1.0, 1.0], [2.0, 2.0]] + _BOX), np.array([3.0, 4, 1, 1, 1, 1]), (5, 0, 1, 2, 3, 4)))
# Right-hand sides within 1e-15 after scaling: the earlier row wins.
@example((np.array([[1.0, 1.0], [2.0, 2.0]] + _BOX), np.array([1, 2 - 1e-15, 1, 1, 1, 1]), (3, 1, 2, 0, 4, 5)))
# Constant rows, one satisfied and one violated.
@example((np.array([[0.0, 0.0]] + _BOX), np.array([0.5, 1, 1, 1, 1]), (0, 1, 2, 3, 4)))
@example((np.array(_BOX + [[0.0, 1e-13]]), np.array([1, 1, 1, 1, -1.0]), (0, 1, 2, 3, 4)))
# All rows constant, and no rows at all.
@example((np.zeros((2, 3)), np.array([1.0, 0.0]), (0, 1)))
@example((np.zeros((0, 2)), np.zeros(0), ()))
# Coincident and parallel lines, and an empty polygon.
@example((np.array(_BOX + [[1.0, 0], [2, 0], [1, 1]]), np.array([1, 1, 1, 1, 1, 1, 0.5]), tuple(range(7))))
@example((np.array(_BOX + [[1.0, 1.0]]), np.array([1, 1, 1, 1, -3.0]), (0, 1, 2, 3, 4)))
def test_array_kernels_match_loop_references(system):
    """_clean_rows gives the loop reference's floats bit for bit."""
    a, b, ids = system
    got, want = _clean_rows(a, b, ids), clean_rows_loop(a, b, ids)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
        assert got[2] == want[2]


class TestHullOracle:
    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_bodies_match_hull(self, data):
        n = data.draw(st.integers(3, 4))
        ineqs = []
        for i in range(n):
            e = [Fraction(0)] * n
            e[i] = Fraction(1)
            ineqs.append(ineq(e, data.draw(st.integers(1, 4))))
            ineqs.append(ineq([-c for c in e], data.draw(st.integers(1, 4))))
        for _ in range(data.draw(st.integers(0, 6))):
            coeffs = [Fraction(data.draw(st.integers(-3, 3))) for _ in range(n)]
            if all(c == 0 for c in coeffs):
                coeffs[0] = Fraction(1)
            ineqs.append(ineq(coeffs, data.draw(st.integers(-2, 8))))
        p = poly(ineqs, n)
        want = hull_volume(p)
        got = exact_volume(p)
        assert got == pytest.approx(want, rel=1e-7, abs=1e-9)


class TestDegenerate:
    def test_empty_is_zero(self):
        p = poly([ineq([1], 0), ineq([-1], -1)], 1)  # x <= 0 and x >= 1
        assert exact_volume(p) == 0.0

    def test_flat_is_zero(self):
        p = poly([ineq([1, 0], 0), ineq([-1, 0], 0), ineq([0, 1], 1), ineq([0, -1], 0)], 2)
        assert exact_volume(p) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_diagonal_flat_is_zero(self, n):
        # sum(x) <= 1 and sum(x) >= 1 inside [0, 1]^n.  The Chebyshev radius
        # comes out as rounding noise (about 5e-17), not zero, so the flat
        # body reaches the recursion and its emptiness LPs.
        rows = [ineq([1] * n, 1), ineq([-1] * n, -1)] + _box_rows(n, 0, 1)
        assert exact_volume(poly(rows, n)) == 0.0

    def test_equality_row_is_zero(self):
        rows = [ineq([1, 1], 1, Cmp.EQ), ineq([1, 0], 5), ineq([-1, 0], 5), ineq([0, 1], 5), ineq([0, -1], 5)]
        assert exact_volume(poly(rows, 2)) == 0.0

    def test_contradictory_is_zero(self):
        q = make_polytope([ineq([1, 1], 0, Cmp.EQ), ineq([1, 1], 1, Cmp.EQ)], 2)
        assert q.contradictory
        assert exact_volume(q) == 0.0

    def test_unbounded_raises(self):
        p = poly([ineq([1, 0], 1), ineq([-1, 0], 1), ineq([0, 1], 1)], 2)
        with pytest.raises(UnboundedError):
            exact_volume(p)

    def test_boundedness_lp_that_does_not_solve_is_an_error(self, monkeypatch):
        # Past the Chebyshev check the body has interior, so a boundedness LP
        # that reports neither an optimum nor a ray is a solver failure.
        def infeasible_min(p, c, sense="max"):
            if sense == "min":
                return LpResult(LpStatus.INFEASIBLE)
            return lp_optimize(p, c, sense)

        monkeypatch.setattr(volcount.exact, "lp_optimize", infeasible_min)
        with pytest.raises(NumericalError, match="bounding-box LP in x1"):
            exact_volume(cube(2))

    def test_zero_dim_is_one(self):
        assert exact_volume(make_polytope([], 0)) == 1.0

    def test_strict_rows_measure_equivalent(self):
        closed = poly([ineq([1], 1), ineq([-1], 0)], 1)
        opened = poly([ineq([1], 1, Cmp.LT), ineq([-1], 0, Cmp.LT)], 1)
        assert exact_volume(opened) == exact_volume(closed) == pytest.approx(1.0)

    def test_redundant_rows_ignored(self):
        base = [ineq([1, 0], 1), ineq([-1, 0], 1), ineq([0, 1], 1), ineq([0, -1], 1)]
        extra = base + [ineq([1, 1], 10), ineq([1, 0], 3)]
        assert exact_volume(poly(extra, 2)) == pytest.approx(4.0, rel=1e-12)


def _single_bunch_body(fixture, word_length):
    """The polytope of a fixture's only bunch."""
    config = SolverConfig(word_length=word_length)
    formula = load_formula(str(Path(__file__).parent / "fixtures" / fixture))
    (bunch,) = enumerate_bunches(formula, config)
    return bunch_polytope(bunch, formula, config)[0]


class TestMemoHits:
    """Bodies entered and emptiness LPs run by one call.  A pair-key miss
    enters one more body, and a canonical-key miss in dimension 3 or more
    also runs one more LP, so a lookup that stops hitting raises a count.
    A canonical-key hit also covers a body an earlier emptiness LP found
    empty (find_path1 enters empty bodies under many pairs)."""

    @pytest.mark.parametrize(
        "body,bodies,lps",
        [
            (cube(8), 67, 6),
            (cross_polytope(5), 288, 29),
            (simplex(8), 7, 6),
            (sheared_cube(5, 2), 81, 16),
            (_single_bunch_body("find_path1.vs", 3), 1801, 291),
        ],
        ids=["cube8", "cross5", "simplex8", "S(5,2)", "find_path1-w3"],
    )
    def test_call_counts(self, body, bodies, lps):
        exact = volcount.exact
        with mock.patch.object(exact, "_volume_rec", wraps=exact._volume_rec) as entered:
            with mock.patch.object(exact, "linprog", wraps=exact.linprog) as emptiness:
                exact_volume(body)
        assert (entered.call_count, emptiness.call_count) == (bodies, lps)


def test_import_leaves_scipy_unloaded():
    src = str(Path(volcount.__file__).resolve().parents[1])
    code = "import sys, volcount; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"
