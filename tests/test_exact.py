"""Exact polytope volume: closed forms, planar oracle, hull oracle, edge cases."""
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import volcount
from volcount.errors import UnboundedError
from volcount.exact import exact_volume
from volcount.model import Cmp, RowKind, make_polytope

from oracles import (
    cross_polytope,
    cube,
    hull_volume,
    ineq,
    poly,
    polygon_area_2d,
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


class TestPlanarOracle:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_polygons_match_shoelace(self, data):
        ineqs = [
            ineq([1, 0], data.draw(st.integers(1, 6))),
            ineq([-1, 0], data.draw(st.integers(1, 6))),
            ineq([0, 1], data.draw(st.integers(1, 6))),
            ineq([0, -1], data.draw(st.integers(1, 6))),
        ]
        for _ in range(data.draw(st.integers(0, 5))):
            cx = data.draw(st.integers(-3, 3))
            cy = data.draw(st.integers(-3, 3))
            if cx == 0 and cy == 0:
                cx = 1
            ineqs.append(ineq([cx, cy], data.draw(st.integers(-2, 9))))
        p = poly(ineqs, 2)
        want = float(polygon_area_2d(p))
        got = exact_volume(p)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


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
        q = make_polytope(
            [(ineq([1, 1], 0, Cmp.EQ), RowKind.EQ), (ineq([1, 1], 1, Cmp.EQ), RowKind.EQ)],
            2,
        )
        assert q.contradictory
        assert exact_volume(q) == 0.0

    def test_unbounded_raises(self):
        p = poly([ineq([1, 0], 1), ineq([-1, 0], 1), ineq([0, 1], 1)], 2)
        with pytest.raises(UnboundedError):
            exact_volume(p)

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
