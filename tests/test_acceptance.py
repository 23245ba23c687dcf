"""End-to-end acceptance checks.

Known-answer fixtures, estimator accuracy against the exact backend on a
generated instance suite, two-round sampling economy, oracle equivalences,
the rounding contract, and byte-level reproducibility.  Each check is its
own test so a verbose run shows one pass/fail line per guarantee.
"""
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from volcount.bunches import enumerate_bunches
from volcount.cli import main
from volcount.count import count_integer_points
from volcount.driver import load_formula, run
from volcount.estimate import RoundedPolytope, estimate_volume, round_polytope
from volcount.exact import exact_volume
from volcount.lp import chebyshev_center
from volcount.model import (
    Backend,
    Cmp,
    Formula,
    NumericKind,
    SolverConfig,
    bunch_multiplier,
    bunch_polytope,
)

from oracles import (
    ball_volume,
    cross_polytope,
    cube,
    grid_count,
    ineq,
    lagrange_value,
    order_count,
    poly,
    simplex,
    skeleton_models,
    threshold_slab,
)

FIXTURES = Path(__file__).parent / "fixtures"
ESTIMATE = frozenset({Backend.ESTIMATE})
EXACT = frozenset({Backend.EXACT_VOLUME})
COUNT = frozenset({Backend.INTEGER_COUNT})
ALL = ESTIMATE | EXACT | COUNT


# ---------------------------------------------------------------------------
# 1. reference formula: two triangles in the unit box, one Boolean left free


class TestReferenceFormula:
    def test_exact_volume_count_bunches_and_time(self):
        formula = load_formula(str(FIXTURES / "f1.vs"))
        config = SolverConfig(word_length=0, backends=ALL, seed=0)
        report = run(config, formula)
        assert report.totals["exact_volume"] == pytest.approx(0.75, abs=1e-6)
        assert report.totals["integer_count"] == 2
        assert len(report.bunches) == 2
        assert sorted(b.multiplier for b in report.bunches) == [1, 2]
        assert report.wall_time < 1.0

    def test_estimator_within_ten_percent_for_nine_of_ten_seeds(self):
        formula = load_formula(str(FIXTURES / "f1.vs"))
        hits = 0
        for seed in range(10):
            config = SolverConfig(word_length=0, backends=ESTIMATE, seed=seed)
            report = run(config, formula)
            if abs(report.totals["estimate"] - 0.75) <= 0.10 * 0.75:
                hits += 1
        assert hits >= 9


# ---------------------------------------------------------------------------
# 2. branch-condition path counts with the default 8-bit box


class TestPathCounts:
    def test_first_path_count_and_frequency(self):
        formula = load_formula(str(FIXTURES / "getop_path1.smt2"))
        config = SolverConfig(word_length=8, backends=COUNT)
        report = run(config, formula)
        assert report.totals["integer_count"] == 242
        assert report.frequency == pytest.approx(242 / 256, abs=1e-12)
        assert report.wall_time < 5.0

    def test_second_path_count(self):
        formula = load_formula(str(FIXTURES / "getop_path2.smt2"))
        config = SolverConfig(word_length=8, backends=COUNT)
        report = run(config, formula)
        assert report.totals["integer_count"] == 8085
        assert report.wall_time < 5.0


# ---------------------------------------------------------------------------
# 3. coloring puzzle: 4-value domains, all-different side conditions


def test_coloring_puzzle_count():
    formula = load_formula(str(FIXTURES / "coloring.smt2"))
    # the 2-bit box [-2, 1] gives every region variable a 4-value domain
    config = SolverConfig(word_length=2, backends=COUNT)
    report = run(config, formula)
    assert report.totals["integer_count"] == 768
    assert report.wall_time < 60.0


# ---------------------------------------------------------------------------
# 4. array-search paths with a 4-bit box


def test_array_search_path_counts():
    config = SolverConfig(word_length=4, backends=COUNT)
    started = time.perf_counter()
    first = run(config, load_formula(str(FIXTURES / "find_path1.vs")))
    second = run(config, load_formula(str(FIXTURES / "find_path2.vs")))
    elapsed = time.perf_counter() - started
    assert first.totals["integer_count"] == 4075920
    assert second.totals["integer_count"] == 87516
    assert elapsed < 600.0


def order_relations(formula):
    """The (i, j, strict) relations, x_i < x_j or x_i <= x_j, of a formula
    whose clauses are unit literals over atoms x_i - x_j < 0 or <= 0."""
    relations = []
    for (lit,) in formula.clauses:
        atom = formula.atom_map[abs(lit)]
        assert atom.op is Cmp.LE and atom.rhs == 0
        assert sorted(c for c in atom.coeffs if c) == [-1, 1]
        i = atom.coeffs.index(1)
        j = atom.coeffs.index(-1)
        relations.append((i, j, atom.strict) if lit > 0 else (j, i, not atom.strict))
    return relations


@pytest.mark.parametrize(
    "name,count_at_w4", [("find_path1.vs", 4075920), ("find_path2.vs", 87516)]
)
def test_array_search_path_counts_at_wide_words(name, count_at_w4):
    # Difference systems are translation invariant, so over the w-bit box
    # the count is the order polynomial of the relations at N = 2^w values.
    # It has degree at most n, so N = 1..10 fix it and N = 11 checks it.
    formula = load_formula(str(FIXTURES / name))
    relations = order_relations(formula)
    n = formula.num_numeric_vars
    points = [(size, order_count(n, relations, size)) for size in range(1, 11)]
    assert lagrange_value(points, 11) == order_count(n, relations, 11)
    assert lagrange_value(points, 2**4) == count_at_w4
    for w in (16, 32):
        # A fall-back to branching cannot finish; the timeout turns it into
        # a failure instead of a hang.
        config = SolverConfig(word_length=w, backends=COUNT, timeout=60.0)
        report = run(config, formula)
        assert len(report.bunches) == 1
        assert report.totals["integer_count"] == lagrange_value(points, 2**w)


# ---------------------------------------------------------------------------
# 5. generated instance suite: estimator accuracy, sampling economy, reuse


def random_instance(seed, n, num_atoms, free_atoms, extra_bools=1):
    """A Boolean combination of random halfspaces over an n-cube domain.

    Most atoms are asserted by unit clauses; the rest mix with plain Boolean
    variables in a few short clauses, giving a handful of bunches each."""
    rng = np.random.default_rng(seed)
    atoms = {}
    for i in range(1, num_atoms + 1):
        coeffs = np.zeros(n, dtype=int)
        width = int(rng.integers(2, min(4, n) + 1))
        support = rng.choice(n, size=width, replace=False)
        for j in support:
            coeffs[j] = int(rng.integers(1, 3)) * (1 if rng.random() < 0.5 else -1)
        atoms[i] = ineq([int(c) for c in coeffs], int(rng.integers(-6, 7)))
    num_bools = num_atoms + extra_bools
    clauses = []
    pinned = num_atoms - free_atoms
    for i in range(1, pinned + 1):
        clauses.append(((1 if rng.random() < 0.7 else -1) * i,))
    pool = list(range(pinned + 1, num_bools + 1))
    for _ in range(3):
        width = min(len(pool), int(rng.integers(2, 4)))
        chosen = rng.choice(pool, size=width, replace=False)
        clauses.append(tuple(int(v) * (1 if rng.random() < 0.5 else -1) for v in chosen))
    return Formula(num_bools, tuple(clauses), atoms, n, NumericKind.INT)


def usable_instance(formula, config, max_bunches):
    """Accept instances whose bunches are few and have genuine interior."""
    bunches = list(enumerate_bunches(formula, config))
    if not 1 <= len(bunches) <= max_bunches:
        return False
    best = 0.0
    for bunch in bunches:
        polytope, _ = bunch_polytope(bunch, formula, config)
        if polytope.contradictory:
            continue
        _, rho = chebyshev_center(polytope)
        best = max(best, rho)
    return best >= 0.3


# dimension, atom count, free atoms, bunch cap; heavier dimensions get fewer
# constraints so the exact backend stays affordable
INSTANCE_SHAPES = (
    [(4, 8, 2, 8)] * 6
    + [(5, 8, 2, 8)] * 5
    + [(6, 7, 2, 6)] * 7
    + [(7, 4, 1, 3), (8, 3, 1, 3)]
)


@pytest.fixture(scope="module")
def random_suite_reports():
    reports = []
    for index, (n, num_atoms, free_atoms, max_bunches) in enumerate(INSTANCE_SHAPES):
        config = SolverConfig(
            word_length=4,
            backends=ESTIMATE | EXACT,
            min_coeff=40,
            max_coeff=600,
            seed=index,
        )
        for attempt in range(25):
            formula = random_instance(
                1000 * index + 7 * attempt + n, n, num_atoms, free_atoms
            )
            if usable_instance(formula, config, max_bunches):
                break
        else:
            pytest.fail(f"no usable random instance for shape {index}")
        reports.append(run(config, formula))
    return reports


def test_estimator_tracks_exact_backend_on_random_instances(random_suite_reports):
    assert len(random_suite_reports) == 20
    good = 0
    for report in random_suite_reports:
        exact = report.totals["exact_volume"]
        estimate = report.totals["estimate"]
        assert exact is not None and exact > 0.0
        if abs(estimate - exact) <= 0.15 * exact:
            good += 1
    assert good >= 18


def geometric_slab_suite():
    """Twenty bunches whose volumes double from one to the next."""
    return threshold_slab(20)


def test_two_round_average_coefficient_stays_low():
    config = SolverConfig(word_length=0, backends=ESTIMATE, seed=7)
    report = run(config, geometric_slab_suite())
    assert len(report.bunches) == 20
    assert report.sampling["avg_coefficient"] <= config.max_coeff / 4
    expected = float(2**19) * 1024.0
    assert report.totals["estimate"] == pytest.approx(expected, rel=0.25)


def test_thirty_two_slabs_keep_every_bunch():
    """Thresholds up to 2^31 next to unit coefficients: scaling a row by its
    right-hand side would push the coefficient below the pivot tolerance."""
    report = run(SolverConfig(word_length=0, backends=EXACT), threshold_slab(32))
    assert len(report.bunches) == 32
    assert report.totals["exact_volume"] == pytest.approx(2.0**31 * 1024, rel=1e-9)


def test_point_reuse_keeps_fresh_samples_under_sixty_percent(random_suite_reports):
    checked = 0
    for report in random_suite_reports:
        for outcome in report.bunches:
            sampling = outcome.sampling
            if sampling is None or sampling["round1"] == 0:
                continue
            budget = sampling["phases"] * (sampling["round1"] + sampling["round2"])
            assert sampling["fresh"] <= 0.6 * budget
            checked += 1
    assert checked >= 20


# ---------------------------------------------------------------------------
# 6. oracle equivalences


class TestOracleEquivalences:
    def test_bunches_cover_and_partition_all_models(self):
        rng = np.random.default_rng(5)
        config = SolverConfig(word_length=3)
        for _ in range(8):
            num_vars = int(rng.integers(8, 13))
            clauses = []
            for _ in range(int(rng.integers(3, 9))):
                width = int(rng.integers(1, 4))
                chosen = rng.choice(num_vars, size=width, replace=False) + 1
                clauses.append(
                    tuple(int(v) * (1 if rng.random() < 0.5 else -1) for v in chosen)
                )
            formula = Formula(num_vars, tuple(clauses), {}, 0, NumericKind.INT)
            bunches = list(enumerate_bunches(formula, config))
            models = 0
            for model in skeleton_models(formula):
                hits = [
                    b
                    for b in bunches
                    if all(model[v] == val for v, val in b.assignment.items())
                ]
                assert len(hits) == 1
                models += 1
            assert sum(bunch_multiplier(b) for b in bunches) == models

    def test_integer_counts_match_grid_enumeration(self):
        rng = np.random.default_rng(17)
        for trial in range(15):
            n = int(rng.integers(1, 4))
            lo, hi = (-16, 15) if n == 1 else (-8, 7)
            rows = []
            for i in range(n):
                unit = [Fraction(0)] * n
                unit[i] = Fraction(1)
                rows.append(ineq(unit, hi))
                rows.append(ineq([-c for c in unit], -lo))
            for _ in range(int(rng.integers(0, 4))):
                coeffs = [Fraction(int(c)) for c in rng.integers(-3, 4, size=n)]
                if all(c == 0 for c in coeffs):
                    coeffs[0] = Fraction(1)
                rows.append(ineq(coeffs, Fraction(int(rng.integers(-8, 17)), 2)))
            neqs = tuple(
                ineq(
                    [Fraction(int(c)) for c in rng.integers(-2, 3, size=n)],
                    int(rng.integers(-4, 5)),
                    Cmp.EQ,
                )
                for _ in range(int(rng.integers(0, 3)))
            )
            p = poly(rows, n)
            assert count_integer_points(p, neqs) == grid_count(p, lo, hi, neqs)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_exact_volume_closed_forms(self, n):
        assert exact_volume(cube(n)) == pytest.approx(2.0**n, rel=1e-9)
        assert exact_volume(simplex(n)) == pytest.approx(
            1.0 / math.factorial(n), rel=1e-9
        )
        assert exact_volume(cross_polytope(n)) == pytest.approx(
            2.0**n / math.factorial(n), rel=1e-9
        )

    @pytest.mark.parametrize("n,samples", [(2, 12800), (4, 12800), (8, 25600)])
    def test_estimator_matches_ball_volume(self, n, samples):
        phases = max(1, math.ceil(n * math.log2(2 * n)))
        body = RoundedPolytope(
            a=np.zeros((0, n)),
            b=np.zeros(0),
            n=n,
            r=2.0 ** (phases / n),
            log_scale=0.0,
        )
        result = estimate_volume(body, samples, seed=0, stream=0)
        expected = ball_volume(n) * 2.0**phases
        assert result.volume == pytest.approx(expected, rel=0.10)


# ---------------------------------------------------------------------------
# 7. rounding contract


def random_full_dim(rng, n, extra_rows):
    rows = []
    for i in range(n):
        unit = [Fraction(0)] * n
        unit[i] = Fraction(1)
        rows.append(ineq(unit, int(rng.integers(1, 9))))
        rows.append(ineq([-c for c in unit], int(rng.integers(1, 9))))
    for _ in range(extra_rows):
        coeffs = [Fraction(int(c)) for c in rng.integers(-4, 5, size=n)]
        if all(c == 0 for c in coeffs):
            coeffs[0] = Fraction(1)
        rows.append(ineq(coeffs, int(rng.integers(3, 12))))
    return poly(rows, n)


class TestRoundingContract:
    def test_fifty_random_polytopes_are_sandwiched(self):
        from scipy.optimize import linprog

        rng = np.random.default_rng(23)
        for trial in range(50):
            n = trial % 10 + 1
            p = random_full_dim(rng, n, int(rng.integers(0, 2 * n + 1)))
            q = round_polytope(p)
            assert q is not None
            bound = 2.0 * n * (1.0 + 1e-6)
            assert q.r <= bound
            if q.a.shape[0]:
                assert np.all(q.b / np.linalg.norm(q.a, axis=1) >= 1.0 - 1e-9)
            for _ in range(10):
                direction = rng.normal(size=n)
                direction /= np.linalg.norm(direction)
                res = linprog(
                    -direction,
                    A_ub=q.a,
                    b_ub=q.b,
                    bounds=[(-bound, bound)] * n,
                    method="highs",
                )
                assert res.status == 0
                assert -res.fun <= bound

    def test_box_volume_identity_is_analytic(self):
        rng = np.random.default_rng(29)
        for n in range(2, 6):
            sides = rng.integers(1, 9, size=2 * n)
            rows = []
            for i in range(n):
                unit = [Fraction(0)] * n
                unit[i] = Fraction(1)
                rows.append(ineq(unit, int(sides[2 * i])))
                rows.append(ineq([-c for c in unit], int(sides[2 * i + 1])))
            p = poly(rows, n)
            q = round_polytope(p)
            assert q is not None
            rounded_rows = [
                ineq(
                    [Fraction(float(c)).limit_denominator(10**9) for c in q.a[i]],
                    Fraction(float(q.b[i])).limit_denominator(10**9),
                )
                for i in range(q.a.shape[0])
            ]
            rounded_volume = exact_volume(poly(rounded_rows, n))
            recovered = rounded_volume * math.exp(q.log_scale)
            analytic = float(np.prod(sides[0::2] + sides[1::2]))
            assert recovered == pytest.approx(analytic, rel=1e-6)


# ---------------------------------------------------------------------------
# 8. reproducibility


def test_json_reports_are_byte_identical(capsys):
    args = ["-P", "-V", "-L", "-w=0", "--seed=11", "--json",
            str(FIXTURES / "f1.vs")]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    json.loads(first)
