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
from volcount.driver import load_formula, run
from volcount.errors import NumericalError, UnboundedError
from volcount.estimate import estimate_volume, phase_count, round_polytope
from volcount.exact import _clean_rows, _polygon_area, _volume_rec, exact_volume
from volcount.lp import LpResult, LpStatus, chebyshev_center, lp_optimize
from volcount.model import Backend, Cmp, SolverConfig, bunch_polytope, make_polytope

from oracles import (
    clean_rows_loop,
    cross_polytope,
    cube,
    exact_vertex_volume,
    exact_vertices,
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
        rows = _clean_one(a, b * 2.0**k, tuple(range(len(b))))
        got = _polygon_area(rows[0], rows[1]) * 4.0**-k
        assert got == pytest.approx(float(polygon_area_2d(p)), rel=1e-9, abs=1e-9)

    def test_polygon_far_from_unit_scale(self):
        # tests/fixtures/big_polygon.vs: an 8-row body in the 2^30 box.
        formula = load_formula(str(Path(__file__).parent / "fixtures" / "big_polygon.vs"))
        p = poly(list(formula.atom_map.values()), 2)
        want = Fraction(17358446379567383883, 64)
        assert polygon_area_2d(p) == want
        assert exact_volume(p) == pytest.approx(float(want), rel=1e-9)

    @given(_polygons(), st.sampled_from([30, 31]))
    @settings(max_examples=60, deadline=None)
    # Bodies whose LP answers an absolute residual test rejects: "Chebyshev
    # LP did not solve", and "LP solution violates constraints by 3.81e-06".
    @example(_polygon([4, 6, 5, 4], [(1, 0, -1), (0, 1, 2), (-3, -2, -1)]), 31)
    @example(_polygon([4, 4, 4, 4], [(-3, -2, -1), (2, -1, 9)]), 31)
    # Zero-area bodies whose Chebyshev radius an absolute flatness test
    # misses: a segment that rounded to log_scale = -inf, and the point
    # (-2^31, 2^31), whose image "missed the unit ball".
    @example(_polygon([3, 1, 5, 5], [(0, -1, -1), (-1, 3, 0)]), 30)
    @example(_polygon([3, 3, 2, 5], [(-3, -1, 4), (2, 1, 3), (1, 0, -2)]), 30)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_polygons_near_2_31_through_the_lps(self, p, k):
        """Every right-hand side times 2^30 or 2^31, through the Chebyshev
        and bounding-box LPs of both ``exact_volume`` and ``round_polytope``.
        The area comes out right, to the tolerance of the unscaled test
        above, and the two backends call the same bodies flat: their one
        rule judges the Chebyshev radius against the rounding noise of the
        rows at this scale, up to about 5e-7."""
        big = poly([ineq(r.coeffs, r.rhs * 2**k) for r in p.rows], 2)
        want = polygon_area_2d(p)
        assert exact_volume(big) * 4.0**-k == pytest.approx(float(want), rel=1e-9, abs=1e-9)
        assert (round_polytope(big) is None) == (want == 0)

    def test_wide_polygon_fixture(self):
        # tests/fixtures/wide_polygon.vs: a pentagon reaching 2^33 from the
        # origin, whose bounding-box LPs an absolute residual test rejects.
        formula = load_formula(str(Path(__file__).parent / "fixtures" / "wide_polygon.vs"))
        p = poly(list(formula.atom_map.values()), 2)
        want = polygon_area_2d(p)
        assert want == 84163269836299829248
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
    less than 1e-15 (the tighter float wins), coefficients nudged by 1e-14
    (below the direction key's 12 decimals), zero rows that hold or fail,
    and rows whose largest coefficient is 1e-13, which are not constant."""
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
        # A residue far below the 12-decimal direction key, which can round
        # to -0.0.
        row[0] += draw(st.sampled_from([0.0, 0.0, 1e-14, -1e-14]))
        rows.append(row)
        c = draw(st.integers(-6, 6)) / draw(st.sampled_from([1, 2, 3, 7]))
        nudge = draw(st.sampled_from([0.0, 2e-16, -2e-16, 9e-16, -9e-16, 3e-15]))
        rhs.append((c + nudge) * scale)
    ids = tuple(draw(st.permutations(range(len(rows)))))
    return np.array(rows, dtype=float).reshape(len(rows), n), np.array(rhs, dtype=float), ids


def _same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    return np.array_equal(x, y) and x.tobytes() == y.tobytes()


def _clean_one(a, b, ids):
    """_clean_rows on one system: its (a, b, ids), or None when no row is
    left."""
    ca, cb, src, counts = _clean_rows(a[None], b[None])
    if counts[0] == 0:
        return None
    return ca[0], cb[0], tuple(ids[r] for r in src[0].tolist())


_BOX = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]


@given(_row_systems())
@settings(max_examples=300, deadline=None)
# 2x + 2y <= 4 next to x + y <= 3: the later, larger-scale row is tighter.
@example((np.array([[1.0, 1.0], [2.0, 2.0]] + _BOX), np.array([3.0, 4, 1, 1, 1, 1]), (5, 0, 1, 2, 3, 4)))
# Right-hand sides 1e-15 apart after scaling: the tighter row wins.
@example((np.array([[1.0, 1.0], [2.0, 2.0]] + _BOX), np.array([1, 2 - 1e-15, 1, 1, 1, 1]), (3, 1, 2, 0, 4, 5)))
# A chain of near ties 0.8e-15 apart: the tightest row wins.
@example((np.array([[1.0, 0.0]] * 3 + _BOX), np.array([0.0, -0.8e-15, -1.6e-15, 1, 1, 1, 1]), tuple(range(7))))
# A constant row that holds, and a row of scale 1e-13 that is not constant
# and leaves the body empty.
@example((np.array([[0.0, 0.0]] + _BOX), np.array([0.5, 1, 1, 1, 1]), (0, 1, 2, 3, 4)))
@example((np.array(_BOX + [[0.0, 1e-13]]), np.array([1, 1, 1, 1, -1.0]), (0, 1, 2, 3, 4)))
# All rows constant, and no rows at all.
@example((np.zeros((2, 3)), np.array([1.0, 0.0]), (0, 1)))
@example((np.zeros((0, 2)), np.zeros(0), ()))
# Coincident and parallel lines, and an empty polygon.
@example((np.array(_BOX + [[1.0, 0], [2, 0], [1, 1]]), np.array([1, 1, 1, 1, 1, 1, 0.5]), tuple(range(7))))
@example((np.array(_BOX + [[1.0, 1.0]]), np.array([1, 1, 1, 1, -3.0]), (0, 1, 2, 3, 4)))
def test_array_kernels_match_loop_references(system):
    """_clean_rows gives the loop reference's floats bit for bit, and each
    system of a stack the same rows as on its own."""
    a, b, ids = system
    got, want = _clean_one(a, b, ids), clean_rows_loop(a, b, ids)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
        assert got[2] == want[2]
    stack = [(a[::-1], b[::-1]), (a, b), (a, -b)]
    ca, cb, src, counts = _clean_rows(np.stack([x for x, _ in stack]), np.stack([y for _, y in stack]))
    for f, (x, y) in enumerate(stack):
        alone = _clean_one(x, y, tuple(range(len(y))))
        c = counts[f]
        if alone is None:
            assert c == 0
        else:
            assert _same_bits(ca[f, :c], alone[0]) and _same_bits(cb[f, :c], alone[1])
            assert tuple(src[f, :c].tolist()) == alone[2]


@st.composite
def _hull_bodies(draw, box_min=1, box_max=4, cut_scale=1):
    """A 3-D or 4-D box [-lo_j, hi_j] with ends drawn from box_min..box_max,
    cut by up to six rows with coefficients in -3..3 and right-hand sides in
    -2..8 times cut_scale."""
    n = draw(st.integers(3, 4))
    ineqs = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        ineqs.append(ineq(e, draw(st.integers(box_min, box_max))))
        ineqs.append(ineq([-c for c in e], draw(st.integers(box_min, box_max))))
    for _ in range(draw(st.integers(0, 6))):
        coeffs = [draw(st.integers(-3, 3)) for _ in range(n)]
        if all(c == 0 for c in coeffs):
            coeffs[0] = 1
        ineqs.append(ineq(coeffs, draw(st.integers(-2, 8)) * cut_scale))
    return poly(ineqs, n)


def _box_and_cuts(box, cuts):
    """[-box[1], box[0]] x [-box[3], box[2]] x ... cut by rows (coeffs, rhs)."""
    n = len(box) // 2
    rows = []
    for j in range(n):
        e = [0] * n
        e[j] = 1
        rows += [ineq(e, box[2 * j]), ineq([-c for c in e], box[2 * j + 1])]
    return poly(rows + [ineq(coeffs, rhs) for coeffs, rhs in cuts], n)


def _moved(p, t):
    """p with row i's right-hand side moved out by t (in, for t < 0) times
    the row's magnitude |a_i|_1 max_j |b_j| + |b_i|, which bounds
    |a_i| |x| + |b_i| on the body."""
    big = max(abs(r.rhs) for r in p.rows)
    t = Fraction(t)
    return poly(
        [ineq(r.coeffs, r.rhs + t * (sum(map(abs, r.coeffs)) * big + abs(r.rhs))) for r in p.rows],
        p.n,
    )


class TestHullOracle:
    @given(_hull_bodies())
    @settings(max_examples=25, deadline=None)
    # A face pinched flat by a row and its exact negation: when the planar
    # base case reads the pair's room with noise of either sign, it counts
    # one of the two edges and not the other, and gets 6.7698 for 845/126.
    @example(
        _box_and_cuts(
            [2, 1, 1, 1, 1, 2, 1, 1],
            [([3, 1, 2, 0], -1), ([-2, -3, -2, 1], 4), ([2, 3, -2, -1], 4)],
        )
    )
    # Planar faces of this 5-D body hold one line twice, reached along two
    # substitution paths, as rows whose floats differ in the last bits.
    # Told apart by exact comparison, each pair's edges are split where that
    # noise puts the crossing, and the total reads 714.0514 for 713.9356;
    # the 12-decimal direction key merges each pair.
    @example(
        _box_and_cuts(
            [3, 4, 3, 1, 3, 3, 4, 1, 3, 1],
            [
                ([0, -3, 1, -2, 3], 7),
                ([2, 2, 2, -1, 0], 3),
                ([3, -2, -3, -3, 1], 6),
                ([1, 1, -2, -2, -1], -2),
                ([-3, -2, -3, 2, -3], 4),
            ],
        )
    )
    def test_random_bodies_match_hull(self, p):
        want = hull_volume(p)
        got = exact_volume(p)
        assert got == pytest.approx(want, rel=1e-7, abs=1e-9)

    # Box ends stay within a factor 8 of each other, as at unit scale: a box
    # 10^6 times longer than wide puts faces far from the origin relative to
    # their size, and the recursion's float sums then lose accuracy whatever
    # the LPs answer (ROADMAP item 2).
    @given(_hull_bodies(box_min=2**28, box_max=2**31, cut_scale=2**28))
    @settings(max_examples=25, deadline=None)
    # An emptiness LP that reads a nonempty face as empty at this scale
    # makes the total 10.9% low, with no error.
    @example(
        _box_and_cuts(
            [441402618, 598077321, 1863197322, 836682997, 906419965, 120232147, 1081622283, 913882254],
            [([1, -2, 3, 1], 805306368), ([-1, 1, 0, 3], 0)],
        )
    )
    # A slab 2/3 thick at z = -89478485: the float64 rhs of 3z <= -2^28 is
    # off by 5e-9, so no float computation gets within rel 1e-9.
    @example(_box_and_cuts([1, 1, 1, 1, 1, 89478486], [([0, 0, 3], -(2**28))]))
    def test_bodies_near_2_31_match_exact_vertices(self, p):
        """Right to rel 1e-9 or, where rounding the rows to float64 moves
        the volume by more than that, between the exact volumes of the body
        with every row moved in and out by 1e-14 of its magnitude."""
        got = exact_volume(p)
        if got != pytest.approx(exact_vertex_volume(p), rel=1e-9):
            inner = exact_vertex_volume(_moved(p, -1e-14))
            outer = exact_vertex_volume(_moved(p, 1e-14))
            assert inner * (1 - 1e-9) <= got <= outer * (1 + 1e-9)

    # At k = -31..-29 some face's substitution leaves a constant row that is
    # violated by less than 1e-9; an absolute cut-off kept that face, and the
    # total came out rel 5.4e-4 high.  k = -40 is absent: there the body's
    # whole scale lies below the simplex's absolute tolerances, and the
    # Chebyshev LP raises "LP solution violates constraints" (ROADMAP item 1).
    @pytest.mark.parametrize("k", [-31, -30, -29, 0, 30])
    def test_scaled_5d_box_matches_exact_vertices(self, k):
        box = [4, 4, 3, 2, 1, 2, 1, 2, 4, 3]
        cuts = [([0, -2, -3, 2, 0], 4), ([0, 2, -1, 3, -2], 2), ([2, 0, 1, 0, 3], 2)]
        p = _box_and_cuts(box, cuts)
        scale = Fraction(2) ** k
        scaled = _box_and_cuts([end * scale for end in box], [(c, rhs * scale) for c, rhs in cuts])
        # Unscaled by the exact power of two, so the default absolute
        # tolerance of approx cannot swallow a value near 1e-44.
        assert exact_volume(scaled) * 2.0 ** (-5 * k) == pytest.approx(exact_vertex_volume(p), rel=1e-9)


@st.composite
def _touching_bodies(draw):
    """A 3-D box [-lo_j, hi_j] with ends in 1..4, cut by up to five rows
    with coefficients in -3..3 through one of its corners moved by at most
    2 (a cut with a zero coefficient through a corner holds a whole edge),
    some next to their exact negation (a flat pair), and sometimes one row
    that misses the box (an empty body)."""
    ends = [draw(st.integers(1, 4)) for _ in range(6)]
    cuts = []
    for _ in range(draw(st.integers(0, 5))):
        coeffs = [draw(st.integers(-3, 3)) for _ in range(3)]
        if all(c == 0 for c in coeffs):
            coeffs[draw(st.integers(0, 2))] = 1
        corner = [draw(st.sampled_from([-ends[2 * j + 1], ends[2 * j]])) for j in range(3)]
        rhs = sum(c * v for c, v in zip(coeffs, corner)) + draw(st.sampled_from([0, 0, 0, 1, -1, 2]))
        cuts.append((coeffs, rhs))
        if draw(st.integers(0, 3)) == 0:
            cuts.append(([-c for c in coeffs], -rhs))
    if draw(st.integers(0, 5)) == 0:
        coeffs = [draw(st.integers(-3, 3)) for _ in range(2)] + [1]
        lowest = -sum(abs(c) * max(ends[2 * j], ends[2 * j + 1]) for j, c in enumerate(coeffs))
        cuts.append((coeffs, lowest - 1))
    return _box_and_cuts(ends, cuts)


def _solid_volume_scaled(p, k):
    """The volume recursion alone on p with every right-hand side times
    2^k, with any emptiness LP an error."""
    a, b, _, _ = p.split_arrays()
    rows = _clean_one(a, b * 2.0**k, tuple(range(len(b))))
    if rows is None:
        return 0.0
    with mock.patch.object(volcount.exact, "linprog", side_effect=AssertionError("emptiness LP ran")):
        return _volume_rec(*rows, frozenset(), tuple(range(p.n)), {}, None)


class TestSolidKernel:
    """The 3-D level measures every face of a body at once, with no
    emptiness LP."""

    @given(_touching_bodies(), st.integers(-20, 30))
    @settings(max_examples=150, deadline=None)
    # Two cuts through the corner (2, 2, 2), one holding the edge x = y = 2.
    @example(_box_and_cuts([2, 1, 2, 1, 2, 1], [([1, -1, 0], 0), ([1, 1, 1], 6)]), 0)
    # A flat pair inside the box, far from unit scale.
    @example(_box_and_cuts([2, 1, 2, 1, 2, 1], [([1, 2, 0], 1), ([-1, -2, 0], -1)]), 30)
    # A body the cut x + y + z <= -7 misses.
    @example(_box_and_cuts([2, 1, 2, 1, 2, 1], [([1, 1, 1], -7)]), -20)
    def test_random_bodies_match_exact_vertices(self, p, k):
        """Right to rel 1e-9 after unscaling by 8^-k, and exactly 0.0 on an
        empty body."""
        got = _solid_volume_scaled(p, k)
        if not exact_vertices(p):
            assert got == 0.0
        else:
            assert got * 8.0**-k == pytest.approx(exact_vertex_volume(p), rel=1e-9, abs=1e-9)

    def test_prism_over_a_368_row_polygon(self):
        # Rows p x + q y <= 60 for the 368 primitive (p, q) with |p|, |q| <= 12,
        # longest first so the exact oracle rejects most row pairs early,
        # times 0 <= z <= 3.
        dirs = [(p, q) for p in range(-12, 13) for q in range(-12, 13) if math.gcd(p, q) == 1]
        dirs.sort(key=lambda d: -(d[0] ** 2 + d[1] ** 2))
        base = [ineq([p, q], 60) for p, q in dirs]
        area = polygon_area_2d(poly(base, 2))
        assert area == Fraction(1200, 23)
        rows = [ineq([*r.coeffs, 0], r.rhs) for r in base] + [ineq([0, 0, 1], 3), ineq([0, 0, -1], 0)]
        assert exact_volume(poly(rows, 3)) == pytest.approx(float(3 * area), rel=1e-12)

    def test_cut_cube_fixture(self):
        # tests/fixtures/cut_cube.vs: [0, 2]^3 cut through four of its edges
        # and touched at one corner.
        formula = load_formula(str(Path(__file__).parent / "fixtures" / "cut_cube.vs"))
        p = poly(list(formula.atom_map.values()), 3)
        assert exact_vertex_volume(p) == pytest.approx(8 / 3, rel=1e-12)
        assert exact_volume(p) == pytest.approx(8 / 3, rel=1e-9)


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
        # comes out as rounding noise (about 5e-17), not zero.
        rows = [ineq([1] * n, 1), ineq([-1] * n, -1)] + _box_rows(n, 0, 1)
        assert exact_volume(poly(rows, n)) == 0.0

    @pytest.mark.parametrize("k", [0, 20, 30])
    def test_point_with_a_noisy_radius_is_zero(self, k):
        # The single point (-1, -1) times 2^k.  Its Chebyshev radius reads
        # 7.7e-17, 8.1e-11 and 8.3e-8: rounding noise against the body's
        # scale, which an exact test against 0 took for interior.  -P calls
        # it flat too.
        p = _point_body(k)
        assert chebyshev_center(p)[1] > 0.0
        assert exact_volume(p) == 0.0
        assert round_polytope(p) is None

    def test_thin_slab_keeps_its_volume(self):
        # 0 <= x, y <= 1 and 0 <= x + y + z <= 2^-20: a slab of volume 2^-20
        # whose radius, 2.8e-7, is far above its rounding noise.  -P agrees
        # to within its usual 15%.
        t = Fraction(1, 2**20)
        rows = _box_rows(2, 0, 1)
        p = poly([ineq([*r.coeffs, 0], r.rhs) for r in rows] + [ineq([1, 1, 1], t), ineq([-1, -1, -1], 0)], 3)
        assert exact_volume(p) == pytest.approx(float(t), rel=1e-9)
        q = round_polytope(p)
        assert estimate_volume(q, 400 * phase_count(q), seed=1).volume == pytest.approx(float(t), rel=0.15)

    @pytest.mark.parametrize("n", [2, 3])
    def test_thin_body_far_from_the_origin_keeps_its_volume(self, n):
        # 2^30 <= x and 65536 x <= 2^46 + 1, in [0, 1]^(n-1): 2^-16 thick at
        # x = 2^30.  Its radius, 7.6e-6, is 8 times its rounding noise but
        # below 1e-14 of its rows' magnitude, a bound that called it flat.
        rows = [ineq([-1] + [0] * (n - 1), -(2**30)), ineq([65536] + [0] * (n - 1), 2**46 + 1)]
        rows += [ineq([0, *r.coeffs], r.rhs) for r in _box_rows(n - 1, 0, 1)]
        p = poly(rows, n)
        assert exact_volume(p) == pytest.approx(2.0**-16, rel=1e-9)
        q = round_polytope(p)
        assert estimate_volume(q, 400 * phase_count(q), seed=1).volume == pytest.approx(2.0**-16, rel=0.15)

    def test_point_fixture_is_zero_under_both_backends(self):
        # tests/fixtures/point_2_30.vs is _point_body(30) as a formula.
        config = SolverConfig(backends=frozenset({Backend.ESTIMATE, Backend.EXACT_VOLUME}), word_length=0)
        formula = load_formula(str(Path(__file__).parent / "fixtures" / "point_2_30.vs"))
        assert poly(list(formula.atom_map.values()), 2).rows == _point_body(30).rows
        report = run(config, formula)
        assert report.totals == {"estimate": 0.0, "exact_volume": 0.0}

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


def _point_body(k):
    """x <= 2, -x <= 1, y <= 5, -y <= 6, 3x - 2y <= -1, y <= -1, every
    right-hand side times 2^k: the single point (-2^k, -2^k)."""
    rows = [([1, 0], 2), ([-1, 0], 1), ([0, 1], 5), ([0, -1], 6), ([3, -2], -1), ([0, 1], -1)]
    return poly([ineq(c, r * 2**k) for c, r in rows], 2)


def _single_bunch_body(fixture, word_length):
    """The polytope of a fixture's only bunch."""
    config = SolverConfig(word_length=word_length)
    formula = load_formula(str(Path(__file__).parent / "fixtures" / fixture))
    (bunch,) = enumerate_bunches(formula, config)
    return bunch_polytope(bunch, formula, config)[0]


class TestMemoHits:
    """Bodies entered and emptiness LPs run by one call.  A pair-key miss
    enters one more body, and a canonical-key miss in dimension 4 or more
    also runs one more LP, so a lookup that stops hitting raises a count.
    A canonical-key hit also covers a body an earlier emptiness LP found
    empty (find_path1 enters empty bodies under many pairs).  A 3-D body is
    one body: all its faces are measured at once, with no LP."""

    @pytest.mark.parametrize(
        "body,bodies,lps",
        [
            (cube(3), 1, 0),
            (cube(8), 61, 5),
            (cross_polytope(5), 153, 9),
            (simplex(8), 6, 5),
            (sheared_cube(5, 2), 41, 6),
            (_single_bunch_body("find_path1.vs", 3), 1533, 225),
        ],
        ids=["cube3", "cube8", "cross5", "simplex8", "S(5,2)", "find_path1-w3"],
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
