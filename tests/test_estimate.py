"""Volume estimation: rounding contract, walk statistics, phase ratios."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import volcount.estimate
from volcount.errors import NumericalError, UnboundedError
from volcount.estimate import (
    CHAINS,
    Chains,
    RoundedPolytope,
    estimate_volume,
    phase_count,
    phase_index,
    round_polytope,
    shallow_cut_update,
    unit_ball_log_volume,
)
from volcount.exact import exact_volume
from volcount.lp import LpResult, LpStatus, chebyshev_center, lp_optimize
from volcount.model import Cmp, make_polytope

from oracles import ball_volume, explicit_shallow_cut, ineq, poly, sheared_cube


def box_poly(bounds):
    """Axis-aligned box from (lo, hi) pairs."""
    n = len(bounds)
    rows = []
    for i, (lo, hi) in enumerate(bounds):
        e = [Fraction(0)] * n
        e[i] = Fraction(1)
        rows.append(ineq(e, Fraction(hi)))
        rows.append(ineq([-c for c in e], -Fraction(lo)))
    return poly(rows, n)


def scaled_simplex(n, s):
    """The simplex x >= 0, sum(x) <= s, of volume s^n / n!."""
    rows = []
    for i in range(n):
        e = [0] * n
        e[i] = -1
        rows.append(ineq(e, 0))
    return poly(rows + [ineq([1] * n, s)], n)


def ball_shaped(n, log_radius_numer):
    """A rounded body that IS the ball B(0, 2^(k/n)): no rows at all."""
    return RoundedPolytope(
        a=np.zeros((0, n)),
        b=np.zeros(0),
        n=n,
        r=2.0 ** (log_radius_numer / n),
        log_scale=0.0,
    )


def random_full_dim(rng, n, extra_rows):
    rows = []
    for i in range(n):
        e = [Fraction(0)] * n
        e[i] = Fraction(1)
        rows.append(ineq(e, rng.integers(1, 9)))
        rows.append(ineq([-c for c in e], rng.integers(1, 9)))
    for _ in range(extra_rows):
        coeffs = [Fraction(int(c)) for c in rng.integers(-4, 5, size=n)]
        if all(c == 0 for c in coeffs):
            coeffs[0] = Fraction(1)
        rows.append(ineq(coeffs, int(rng.integers(3, 12))))
    return poly(rows, n)


class TestUnitBall:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_gamma_form(self, n):
        assert math.exp(unit_ball_log_volume(n)) == pytest.approx(ball_volume(n), rel=1e-12)

    def test_log_form_handles_high_dimension(self):
        assert math.isfinite(unit_ball_log_volume(400))
        assert unit_ball_log_volume(400) < 0


class TestPhaseIndex:
    def test_inside_unit_ball(self):
        assert phase_index(np.array([0.3, -0.4]), 2, 6) == 0

    def test_between_shells(self):
        x = np.array([1.3, 0.0])
        assert phase_index(x, 2, 6) == 1  # 1 < 1.3 <= 2**(1/2)

    def test_boundary_maps_to_own_shell(self):
        x = np.array([2.0, 0.0])
        assert phase_index(x, 2, 6) == 2  # ||x|| = 2 = 2**(2/2)

    def test_clamped_to_phase_count(self):
        x = np.array([100.0, 0.0])
        assert phase_index(x, 2, 4) == 4


class TestShallowCut:
    def test_central_cut_matches_textbook(self):
        center, factor = shallow_cut_update(np.zeros(2), np.eye(2), np.array([1.0, 0.0]), 0.0)
        assert center == pytest.approx([-1.0 / 3.0, 0.0])
        assert factor @ factor.T == pytest.approx(np.diag([4.0 / 9.0, 4.0 / 3.0]))

    def test_cut_region_stays_inside(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            basis = rng.normal(size=(n, n))
            shape = basis @ basis.T + 0.5 * np.eye(n)
            center = rng.normal(size=n)
            a = rng.normal(size=n)
            beta = 1.0 / (2 * n)
            chol = np.linalg.cholesky(shape)
            out_center, out_factor = shallow_cut_update(center, chol, a, beta)
            # rejection-sample the cut ellipsoid; every kept point must
            # belong to the updated ellipsoid
            level = float(a @ center + beta * math.sqrt(a @ shape @ a))
            inv_out = np.linalg.inv(out_factor @ out_factor.T)
            pts = rng.normal(size=(4000, n))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            pts *= rng.random(size=(4000, 1)) ** (1.0 / n)
            pts = center + pts @ chol.T
            kept = pts[pts @ a <= level]
            assert len(kept) > 0
            d = kept - out_center
            quad = np.einsum("ij,jk,ik->i", d, inv_out, d)
            assert float(quad.max()) <= 1.0 + 1e-9

    @pytest.mark.parametrize("n", range(2, 9))
    def test_factor_form_tracks_explicit_form(self, n):
        # Drive the factor form and the explicit form through the rounding
        # loop of round_polytope: both must pick the same worst row at every
        # cut and describe the same ellipsoid throughout.
        rng = np.random.default_rng(700 + n)
        a, b = random_full_dim(rng, n, extra_rows=n).split_arrays()[:2]
        beta = 1.0 / (2.0 * n)
        # The ball of radius 10n holds the box [-8, 8]^n around the body.
        center = np.zeros(n)
        shape = np.eye(n) * (10.0 * n) ** 2
        f_center, factor = center, np.eye(n) * (10.0 * n)
        cuts = 0
        while True:
            worst = int(np.argmax(a @ center + beta * np.sqrt(np.einsum("ij,jk,ik->i", a, shape, a)) - b))
            f_viol = a @ f_center + beta * np.linalg.norm(a @ factor, axis=1) - b
            assert int(np.argmax(f_viol)) == worst
            if f_viol[worst] <= 0.0:
                break
            center, shape = explicit_shallow_cut(center, shape, a[worst], beta)
            f_center, factor = shallow_cut_update(f_center, factor, a[worst], beta)
            cuts += 1
            scale = float(np.linalg.norm(shape))
            assert np.linalg.norm(factor @ factor.T - shape) <= 1e-9 * scale
            assert np.linalg.norm(f_center - center) <= 1e-9 * math.sqrt(scale)
        assert cuts > 2 * n


class TestRounding:
    def test_square_sandwich_and_identity(self):
        p = box_poly([(-1, 1), (-1, 1)])
        q = round_polytope(p)
        assert q is not None
        assert q.r == pytest.approx(4.0)
        assert np.all(q.b / np.linalg.norm(q.a, axis=1) >= 1.0 - 1e-9)
        # volume identity: vol(P) = vol(Q) * exp(log_scale)
        rows = [ineq([Fraction(x).limit_denominator(10**9) for x in row], Fraction(float(bi)).limit_denominator(10**9)) for row, bi in zip(q.a, q.b)]
        vol_q = exact_volume(poly(rows, 2))
        assert vol_q * math.exp(q.log_scale) == pytest.approx(4.0, rel=1e-6)

    @pytest.mark.parametrize(
        "p, want",
        [
            (box_poly([(0, 1)] * (n - 1) + [(0, t)]), float(t))
            for n in (2, 5)
            for t in (Fraction(1, 10**9), Fraction(1, 10**14))
        ]
        + [(scaled_simplex(6, Fraction(1, 2**30)), 2.0**-180 / math.factorial(6))],
        ids=["box2-1e-9", "box2-1e-14", "box5-1e-9", "box5-1e-14", "simplex6-2^-30"],
    )
    def test_thin_and_tiny_bodies_are_rounded(self, p, want):
        # No absolute scale decides flatness or ends the cuts: a slab
        # 1e-14 thick and a simplex 2^-30 wide are rounded and estimated
        # like their unit-scale copies.
        q = round_polytope(p)
        assert q is not None
        result = estimate_volume(q, 400 * phase_count(q), seed=1)
        # A ratio, since pytest.approx would also pass 0.0 against a want
        # below its default abs=1e-12.
        assert result.volume / want == pytest.approx(1.0, rel=0.15)

    def test_empty_returns_none(self):
        p = poly([ineq([1, 0], 0), ineq([-1, 0], -1), ineq([0, 1], 1), ineq([0, -1], 1)], 2)
        assert round_polytope(p) is None

    def test_unbounded_raises(self):
        p = poly([ineq([1, 0], 1), ineq([-1, 0], 1), ineq([0, 1], 1)], 2)
        with pytest.raises(UnboundedError):
            round_polytope(p)

    def test_zero_dim_returns_none(self):
        assert round_polytope(make_polytope([], 0)) is None

    def test_bounding_box_lp_that_does_not_solve_is_an_error(self, monkeypatch):
        # Past the Chebyshev check the body has interior, so a bounding-box
        # LP that reports neither an optimum nor a ray is a solver failure,
        # not an empty body and not a NaN box edge for the cut loop.
        def infeasible_min(p, c, sense="max"):
            if sense == "min":
                return LpResult(LpStatus.INFEASIBLE)
            return lp_optimize(p, c, sense)

        monkeypatch.setattr(volcount.estimate, "lp_optimize", infeasible_min)
        with pytest.raises(NumericalError, match="bounding-box LP in x1"):
            round_polytope(box_poly([(-1, 1), (-1, 1)]))

    @pytest.mark.parametrize("n, k", [(6, 30), (12, 6), (16, 3)])
    def test_sheared_cube_rounds_and_estimates(self, n, k):
        # The explicit-form update loses positive definiteness on these
        # bodies of volume 2^n; the factor form rounds them, and the
        # estimate must land near 2^n, never at volume 0.
        q = round_polytope(sheared_cube(n, k))
        assert q is not None
        assert np.all(q.b / np.linalg.norm(q.a, axis=1) >= 1.0 - 1e-9)
        result = estimate_volume(q, 200 * phase_count(q), seed=1)
        assert result.volume == pytest.approx(2.0**n, rel=0.15)

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_random_bodies_meet_contract(self, n):
        rng = np.random.default_rng(100 + n)
        p = random_full_dim(rng, n, extra_rows=n)
        q = round_polytope(p)
        assert q is not None
        assert np.all(q.b / np.linalg.norm(q.a, axis=1) >= 1.0 - 1e-9)
        for _ in range(40):
            c = rng.normal(size=n)
            c /= np.linalg.norm(c)
            res = linprog(-c, A_ub=q.a, b_ub=q.b, bounds=(None, None), method="highs")
            assert res.status == 0
            assert -res.fun <= 2 * n * (1 + 1e-6)


_THIN = Fraction(1, 10**7)


def _outcome(backend, p):
    """The backend's value on ``p``, or the message of its UnboundedError."""
    try:
        return backend(p)
    except UnboundedError as exc:
        return str(exc)


class TestAgreementWithExact:
    """``round_polytope`` and ``exact_volume`` open a body with the same
    checks in the same order: no interior is zero, bounded or not."""

    def test_empty_unbounded_body(self):
        p = poly([ineq([1, 0], 0), ineq([-1, 0], -1)], 2)  # x <= 0, x >= 1; y free
        assert round_polytope(p) is None
        assert exact_volume(p) == 0.0

    @given(
        rows=st.lists(
            st.tuples(
                st.tuples(*[st.integers(-2, 2)] * 3),
                st.integers(-3, 3),
                st.sampled_from([Cmp.LE, Cmp.LE, Cmp.LE, Cmp.EQ]),
            ),
            max_size=7,
        ),
        n=st.integers(1, 3),
    )
    @example(rows=[((1, -1, 0), 0, Cmp.EQ)], n=2)  # x = y: flat and unbounded
    @example(rows=[((1, -1, 0), 0, Cmp.LE), ((-1, 1, 0), 0, Cmp.LE)], n=2)
    @example(rows=[((1, -1, 0), _THIN, Cmp.LE), ((-1, 1, 0), 0, Cmp.LE)], n=2)
    # The thin slab bounded by |x| <= 1: volume 2e-7 under -V, so -P must
    # round it.
    @example(
        rows=[
            ((1, -1, 0), _THIN, Cmp.LE),
            ((-1, 1, 0), 0, Cmp.LE),
            ((1, 0, 0), 1, Cmp.LE),
            ((-1, 0, 0), 1, Cmp.LE),
        ],
        n=2,
    )
    @settings(max_examples=150, deadline=None)
    def test_same_outcome_on_small_bodies(self, rows, n):
        p = make_polytope([ineq(coeffs[:n], rhs, op) for coeffs, rhs, op in rows], n)
        rounded = _outcome(round_polytope, p)
        volume = _outcome(exact_volume, p)
        if isinstance(volume, str):
            assert rounded == volume
            return
        assert not isinstance(rounded, str)
        assert (rounded is None) == (volume == 0.0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("e", range(10, 22))
    def test_same_outcome_on_slabs_far_from_the_origin(self, n, e):
        # 2^30 <= x <= 2^30 + 2^-e in [0, 1]^(n-1): from e = 19 on the
        # width is within the rounding noise of the rows at 2^30, and both
        # backends call the slab flat; below that both measure it.
        p = box_poly([(2**30, 2**30 + Fraction(1, 2**e))] + [(0, 1)] * (n - 1))
        assert (round_polytope(p) is None) == (exact_volume(p) == 0.0)

    def test_thin_unbounded_slab_is_unbounded_under_both(self):
        # 0 <= x - y <= 1e-7 has Chebyshev radius about 3.5e-8, well above
        # the rounding noise of its rows: it has interior, so neither
        # backend calls it flat.
        p = poly([ineq([1, -1], _THIN), ineq([-1, 1], 0)], 2)
        assert 0.0 < chebyshev_center(p)[1] < float(_THIN)
        for backend in (round_polytope, exact_volume):
            with pytest.raises(UnboundedError, match="unbounded in x1"):
                backend(p)


class TestWalk:
    def test_square_chain_moments(self):
        q = RoundedPolytope(
            a=np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
            b=np.ones(4),
            n=2,
            r=4.0,
            log_scale=0.0,
        )
        rng = np.random.default_rng(42)
        chains = Chains(q, CHAINS)
        pts = np.empty((100_000 // CHAINS, CHAINS, 2))
        for i in range(len(pts)):
            chains.step(10.0, rng)
            pts[i] = chains.x
        pts = pts.reshape(-1, 2)
        assert np.abs(pts.mean(axis=0)).max() < 0.02
        assert pts.var(axis=0) == pytest.approx([1 / 3, 1 / 3], rel=0.1)
        assert np.abs(pts).max() <= 1.0 + 1e-12

    def test_ball_radius_binds(self):
        q = ball_shaped(2, 0)  # unit ball, no rows
        rng = np.random.default_rng(7)
        chains = Chains(q, CHAINS)
        for _ in range(2000):
            chains.step(1.0, rng)
            assert np.all(np.einsum("ij,ij->i", chains.x, chains.x) <= 1.0 + 1e-12)

    def test_degenerate_chord_returns_same_point(self):
        q = RoundedPolytope(
            a=np.array([[1.0, 0.0], [-1.0, 0.0]]),
            b=np.array([0.0, 0.0]),  # x pinned to 0
            n=2,
            r=4.0,
            log_scale=0.0,
        )
        rng = np.random.default_rng(0)
        chains = Chains(q, CHAINS)
        moved = []
        for _ in range(20):
            chains.step(10.0, rng)
            moved.extend(chains.x[:, 0].tolist())
        assert all(v == 0.0 for v in moved)


class TestEstimate:
    @pytest.mark.parametrize("n,k", [(1, 1), (2, 2), (2, 4), (4, 4)])
    def test_ball_bodies_close_to_closed_form(self, n, k):
        q = ball_shaped(n, k)
        phases = phase_count(q)
        assert phases == k
        result = estimate_volume(q, 800 * phases, seed=13)
        want = ball_volume(n) * 2.0**k
        assert result.volume == pytest.approx(want, rel=0.1)

    def test_one_dim_segment_is_exact(self):
        q = RoundedPolytope(
            a=np.array([[1.0], [-1.0]]),
            b=np.ones(2),
            n=1,
            r=2.0,
            log_scale=0.0,
        )
        result = estimate_volume(q, 500, seed=3)
        assert result.volume == pytest.approx(2.0, rel=1e-9)

    def test_one_dim_interval_clipped_by_ball(self):
        # [-1, 3] clipped to B(0, 2) is [-1, 2]: length 3, times exp(log_scale) = 2
        q = RoundedPolytope(
            a=np.array([[1.0], [-1.0]]),
            b=np.array([3.0, 1.0]),
            n=1,
            r=2.0,
            log_scale=math.log(2.0),
        )
        result = estimate_volume(q, 500, seed=3)
        assert result.volume == pytest.approx(6.0, rel=1e-12)
        assert result.ledger.ratios == pytest.approx([1.5], rel=1e-12)
        assert result.ledger.fresh_total == 0

    def test_ratios_at_least_one(self):
        rng = np.random.default_rng(9)
        for n in [2, 3, 4]:
            p = random_full_dim(rng, n, extra_rows=2)
            q = round_polytope(p)
            result = estimate_volume(q, 200, seed=int(rng.integers(1 << 16)))
            assert np.all(np.asarray(result.ledger.ratios) >= 1.0)

    def test_ball_ratios_at_most_two_and_a_half(self):
        q = ball_shaped(3, 3)
        phases = phase_count(q)
        for seed in range(3):
            result = estimate_volume(q, 1600 * phases, seed=seed)
            ratios = np.asarray(result.ledger.ratios)
            assert np.all(ratios <= 2.5)
            assert np.all(ratios >= 1.0)

    def test_fresh_points_economy(self):
        rng = np.random.default_rng(21)
        for n in [4, 5, 6]:
            p = random_full_dim(rng, n, extra_rows=n // 2)
            q = round_polytope(p)
            phases = phase_count(q)
            s = 40 * phases
            result = estimate_volume(q, s, seed=n)
            assert np.all(np.asarray(result.ledger.fresh_per_phase) <= s)
            assert result.ledger.fresh_total <= 0.6 * phases * s

    def test_deterministic_for_fixed_seed(self):
        q = ball_shaped(3, 3)
        a = estimate_volume(q, 600, seed=77)
        b = estimate_volume(q, 600, seed=77)
        assert a.volume == b.volume
        assert np.array_equal(a.ledger.ratios, b.ledger.ratios)
        assert np.array_equal(a.ledger.bucket_counts, b.ledger.bucket_counts)
        assert np.array_equal(a.ledger.fresh_per_phase, b.ledger.fresh_per_phase)

    def test_stream_changes_the_draw(self):
        q = ball_shaped(3, 3)
        a = estimate_volume(q, 600, seed=77, stream=0)
        b = estimate_volume(q, 600, seed=77, stream=1)
        assert a.volume != b.volume

    def test_volume_identity_with_ledger(self):
        q = ball_shaped(4, 4)
        result = estimate_volume(q, 400, seed=11)
        recomputed = math.exp(unit_ball_log_volume(4)) * float(np.prod(result.ledger.ratios)) * math.exp(q.log_scale)
        assert result.volume == pytest.approx(recomputed, rel=1e-12)
