"""Brute-force reference implementations the test suite checks against.

Everything here is deliberately naive: exhaustive enumeration with exact
rational arithmetic wherever possible, so the results are trustworthy
independent of the code under test.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from volcount.bunches import SUPPORT_TOL, TheoryRows, minimize_assignment, theory_check
from volcount.errors import NumericalError
from volcount.lp import LpStatus, lp_feasible
from volcount.model import (
    Bunch,
    Cmp,
    LinearConstraint,
    Formula,
    NumericKind,
    Polytope,
    make_polytope,
    normalize_constraint,
)


# ---------------------------------------------------------------------------
# polytope builders


def ineq(coeffs, rhs, op=Cmp.LE) -> LinearConstraint:
    frac = tuple(Fraction(c) for c in coeffs)
    return normalize_constraint(LinearConstraint(frac, op, Fraction(rhs)))


poly = make_polytope


def row_holds(row: LinearConstraint, point) -> bool:
    """Exact truth value of a constraint, canonical or raw, at a rational
    point: LE is strict when ``row.strict`` is set, LT and GT always are."""
    lhs = sum((c * x for c, x in zip(row.coeffs, point)), start=Fraction(0))
    if row.op is Cmp.EQ:
        return lhs == row.rhs
    if row.op is Cmp.LT or (row.op is Cmp.LE and row.strict):
        return lhs < row.rhs
    if row.op is Cmp.LE:
        return lhs <= row.rhs
    if row.op is Cmp.GT:
        return lhs > row.rhs
    return lhs >= row.rhs


def cube(n: int, lo=-1, hi=1) -> Polytope:
    rows = []
    for j in range(n):
        unit = [0] * n
        unit[j] = 1
        rows.append(ineq(unit, hi))
        rows.append(ineq([-u for u in unit], -Fraction(lo)))
    return poly(rows, n)


def simplex(n: int, scale=1) -> Polytope:
    rows = [ineq([1] * n, scale)]
    for j in range(n):
        unit = [0] * n
        unit[j] = -1
        rows.append(ineq(unit, 0))
    return poly(rows, n)


def cross_polytope(n: int) -> Polytope:
    rows = [ineq(signs, 1) for signs in itertools.product((-1, 1), repeat=n)]
    return poly(rows, n)


def sheared_cube(n: int, k: int) -> Polytope:
    """S(n, k) = {|x_j + k x_(j+1)| <= 1 for j < n, |x_n| <= 1}: the image of
    [-1, 1]^n under a unimodular integer map, so its volume is 2^n and it
    holds 3^n integer points, however ill-conditioned a large k makes it."""
    rows = []
    for j in range(n):
        row = [0] * n
        row[j] = 1
        if j + 1 < n:
            row[j + 1] = k
        rows.append(ineq(row, 1))
        rows.append(ineq([-c for c in row], 1))
    return poly(rows, n)


def threshold_slab(k: int, width: int = 1024) -> Formula:
    """k bunches whose areas double from one to the next: the rectangle
    [0, 2^(k-1)] x [0, width] split by thresholds x1 < 2^j, every threshold
    forced to take both truth values.  Area 2^(k-1) * width."""
    atoms = {j: ineq([1, 0], 2**j, Cmp.LT) for j in range(1, k)}
    bounds = k
    atoms[bounds] = ineq([-1, 0], 0)
    atoms[bounds + 1] = ineq([1, 0], 2 ** (k - 1))
    atoms[bounds + 2] = ineq([0, -1], 0)
    atoms[bounds + 3] = ineq([0, 1], width)
    clauses = []
    for j in range(1, k):
        selector = bounds + 3 + j
        clauses.append((j, selector))
        clauses.append((-j, -selector))
    for j in range(bounds, bounds + 4):
        clauses.append((j,))
    return Formula(bounds + 3 + k - 1, tuple(clauses), atoms, 2, NumericKind.REAL)


# ---------------------------------------------------------------------------
# exact 2D area by vertex enumeration (independent of the package's code)


def polygon_area_2d(p: Polytope) -> Fraction:
    """Exact area of a bounded 2D polytope via pairwise row intersection,
    exact feasibility filtering, and the shoelace formula."""
    rows = [(tuple(r.coeffs), r.rhs) for r in p.rows if r.op is not Cmp.EQ]
    verts: list[tuple[Fraction, Fraction]] = []
    for (a1, b1), (a2, b2) in itertools.combinations(rows, 2):
        det = a1[0] * a2[1] - a1[1] * a2[0]
        if det == 0:
            continue
        x = (b1 * a2[1] - b2 * a1[1]) / det
        y = (a1[0] * b2 - a2[0] * b1) / det
        if all(c[0] * x + c[1] * y <= rhs for c, rhs in rows):
            if (x, y) not in verts:
                verts.append((x, y))
    if len(verts) < 3:
        return Fraction(0)
    cx = sum(v[0] for v in verts) / len(verts)
    cy = sum(v[1] for v in verts) / len(verts)
    verts.sort(key=lambda v: math.atan2(float(v[1] - cy), float(v[0] - cx)))
    area = Fraction(0)
    for i in range(len(verts)):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % len(verts)]
        area += x1 * y2 - x2 * y1
    return abs(area) / 2


# ---------------------------------------------------------------------------
# loop form of volcount.exact's row cleaning (same float operations, one row
# at a time; the array code must match it bit for bit)


def clean_rows_loop(a: np.ndarray, b: np.ndarray, ids: tuple[int, ...]):
    """Row-by-row reference for ``exact._clean_rows`` on one system:
    normalize by the largest coefficient, drop constant rows (None if one is
    violated or no row is left), and keep one row per direction (to 12
    decimals), in the place of the first: the tightest, or the earliest of
    the rows exactly tied for tightest."""
    groups: dict[tuple, list[tuple[float, int, np.ndarray]]] = {}
    for i in range(a.shape[0]):
        row = a[i]
        scale = float(np.max(np.abs(row)))
        if scale == 0.0:
            if b[i] < 0.0:
                return None
            continue
        nrow = row / scale
        key = tuple(np.round(nrow, 12))
        groups.setdefault(key, []).append((float(b[i]) / scale, ids[i], nrow))
    if not groups:
        return None
    kept = []
    for group in groups.values():
        tightest = min(nb for nb, _, _ in group)
        kept.append(next(g for g in group if g[0] == tightest))
    a_out = np.array([nrow for _, _, nrow in kept])
    b_out = np.array([nb for nb, _, _ in kept])
    ids_out = tuple(i for _, i, _ in kept)
    return a_out, b_out, ids_out


# ---------------------------------------------------------------------------
# explicit-form ellipsoid update (the factor form in volcount.estimate must
# track it on well-conditioned bodies)


def explicit_shallow_cut(center: np.ndarray, shape: np.ndarray, a: np.ndarray, cut_level: float):
    """One shallow-cut step on the ellipsoid
    { x : (x-center)^T shape^{-1} (x-center) <= 1 }: the smallest ellipsoid
    containing its part on the side
    ``a . x <= a . center + cut_level * sqrt(a^T shape a)``, as
    (center, shape).  Loses positive definiteness on ill-conditioned shapes.
    """
    n = center.shape[0]
    if n < 2:
        raise ValueError("shallow-cut update needs dimension >= 2")
    ea = shape @ a
    denom = float(a @ ea)
    if denom <= 0:
        raise NumericalError("ellipsoid lost positive definiteness")
    g = ea / math.sqrt(denom)
    beta = cut_level
    gamma = (1.0 - n * beta) / (n + 1.0)
    new_center = center - gamma * g
    factor = (n * n * (1.0 - beta * beta)) / (n * n - 1.0)
    new_shape = factor * (shape - (2.0 * gamma / (1.0 - beta)) * np.outer(g, g))
    new_shape = 0.5 * (new_shape + new_shape.T)
    return new_center, new_shape


# ---------------------------------------------------------------------------
# integer-point counting by grid walk (exact integer row evaluation)


def _integer_form(coeffs, rhs) -> tuple[tuple[tuple[int, int], ...], int]:
    """A rational row scaled to integers by the lcm of its denominators, as
    (nonzero (index, coefficient) pairs, rhs)."""
    scale = math.lcm(Fraction(rhs).denominator, *(Fraction(c).denominator for c in coeffs))
    terms = tuple((j, int(c * scale)) for j, c in enumerate(coeffs) if c != 0)
    return terms, int(rhs * scale)


def grid_count(p: Polytope, lo: int, hi: int, neqs=()) -> int:
    """Integer points of [lo, hi]^n in the polytope and off every
    disequality, checked one by one in exact integer arithmetic."""
    if p.contradictory:
        return 0
    rows = []  # (terms, least lhs, greatest lhs)
    for row in p.rows:
        terms, rhs = _integer_form(row.coeffs, row.rhs)
        if row.op is Cmp.EQ:
            rows.append((terms, rhs, rhs))
        else:
            rows.append((terms, None, rhs - 1 if row.strict else rhs))
    holes = [_integer_form(q.coeffs, q.rhs) for q in neqs]
    count = 0
    for point in itertools.product(range(lo, hi + 1), repeat=p.n):
        ok = True
        for terms, least, greatest in rows:
            lhs = sum(c * point[j] for j, c in terms)
            if lhs > greatest or (least is not None and lhs < least):
                ok = False
                break
        if ok and all(sum(c * point[j] for j, c in terms) != rhs for terms, rhs in holes):
            count += 1
    return count


# ---------------------------------------------------------------------------
# propositional / whole-formula brute force


def clause_true(clause, assignment) -> bool:
    return any(assignment[abs(lit)] == (lit > 0) for lit in clause)


def skeleton_models(formula: Formula):
    """All total Boolean assignments satisfying every clause (2^B walk)."""
    nb = formula.num_bool_vars
    for bits in itertools.product((False, True), repeat=nb):
        assignment = {v: bits[v - 1] for v in range(1, nb + 1)}
        if all(clause_true(c, assignment) for c in formula.clauses):
            yield assignment


def bunch_models(bunch, formula: Formula):
    """All total assignments a bunch stands for."""
    fixed = dict(bunch.assignment)
    free = [v for v in range(1, formula.num_bool_vars + 1) if v not in fixed]
    for bits in itertools.product((False, True), repeat=len(free)):
        out = dict(fixed)
        out.update(zip(free, bits))
        yield out


def lex_bunches(formula: Formula, config) -> list:
    """The bunch sequence by brute force.  Every total assignment is visited
    in lexicographic order (variable 1 most significant, False before True);
    one that satisfies the clauses and every block so far is theory-checked
    with the production `theory_check`.  A consistent one is minimized with
    the production `minimize_assignment` over the clauses and blocks,
    emitted, and blocked; an inconsistent one has its core blocked."""
    rows = TheoryRows(formula, config)
    clauses = [list(c) for c in formula.clauses]
    out = []
    nb = formula.num_bool_vars
    for bits in itertools.product((False, True), repeat=nb):
        assignment = {v: bits[v - 1] for v in range(1, nb + 1)}
        if not all(clause_true(c, assignment) for c in clauses):
            continue
        blocked = theory_check([(v, assignment[v]) for v in sorted(formula.atom_map)], rows)
        if blocked is None:
            partial = minimize_assignment(assignment, clauses)
            free = sum(1 for v in formula.user_bool_ids if v not in partial)
            out.append(Bunch(dict(sorted(partial.items())), free))
            blocked = sorted(partial.items())
        clauses.append([-v if value else v for v, value in blocked])
    return out


def lp_theory_check(literals, rows):
    """The theory check with every decision made by the LP: the tightest
    row per coefficient vector, `lp_feasible` on those rows, then deletion
    inside the support of the Farkas certificate (over every literal when
    there is no certificate or its support is consistent).  ``rows`` is a
    `volcount.bunches.TheoryRows`; the closed-form bound check is never
    consulted."""

    def check(lits):
        tightest = {}
        for r in [rows.ub_of[lit] for lit in lits if lit in rows.ub_of] + rows.box:
            best = tightest.get(rows.direction[r])
            if best is None or rows.rhs[r] < rows.rhs[best]:
                tightest[rows.direction[r]] = r
        ub = list(tightest.values())
        eq = [rows.eq_of[lit] for lit in lits if lit in rows.eq_of]
        res = lp_feasible(rows.a[ub], rows.b[ub], rows.a[eq], rows.b[eq])
        if res.status is LpStatus.OPTIMAL:
            return True, None
        if res.certificate is None:
            return False, None
        w = np.abs(res.certificate) * rows.weight[ub + eq]
        cut = SUPPORT_TOL * float(w.max(initial=0.0))
        owners = (rows.owner[r] for r in ub + eq)
        return False, sorted(lit for lit, wi in zip(owners, w) if lit is not None and wi > cut)

    ordered = sorted(literals)
    consistent, support = check(ordered)
    if consistent:
        return None
    candidates = ordered
    if support is not None and (len(support) == len(ordered) or not check(support)[0]):
        candidates = support
    core = list(candidates)
    for lit in candidates:
        trial = [x for x in core if x != lit]
        if not check(trial)[0]:
            core = trial
    return core


def formula_solution_count(formula: Formula, lo: int, hi: int) -> int:
    """Count (Boolean assignment, integer point) solutions exhaustively."""
    total = 0
    points = list(itertools.product(range(lo, hi + 1), repeat=formula.num_numeric_vars))
    for assignment in skeleton_models(formula):
        for point in points:
            pt = tuple(Fraction(v) for v in point)
            ok = True
            for var, constraint in formula.atom_map.items():
                if assignment[var] != row_holds(constraint, pt):
                    ok = False
                    break
            if ok:
                total += 1
    return total


def ball_volume(n: int, radius: float = 1.0) -> float:
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1) * radius**n


def hull_volume(p) -> float:
    """Volume by brute-force vertex enumeration plus Qhull.

    Solves every n-by-n subsystem of the inequality rows, keeps the feasible
    intersection points, and takes the convex hull volume.  Exponential in
    the row count; intended as an independent check on moderate instances.
    """
    import numpy as np
    from scipy.spatial import ConvexHull, QhullError

    a, b, a_eq, _ = p.split_arrays()
    if a_eq.shape[0]:
        return 0.0
    m, n = a.shape
    pts = []
    for rows in itertools.combinations(range(m), n):
        sub = a[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        x = np.linalg.solve(sub, b[list(rows)])
        if np.all(a @ x <= b + 1e-8):
            pts.append(x)
    if len(pts) <= n:
        return 0.0
    try:
        return float(ConvexHull(np.array(pts)).volume)
    except QhullError:
        return 0.0


def _solve_exact(rows, rhs):
    """The unique solution of a square Fraction system, or None when it is
    singular (Gauss-Jordan elimination, exact)."""
    n = len(rows)
    m = [list(r) + [c] for r, c in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col] / m[col][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return tuple(m[i][n] / m[i][i] for i in range(n))


def exact_vertices(p) -> set:
    """The vertices of the closure of an inequality-only polytope, exactly:
    every n-by-n subsystem of the rows solved in Fraction arithmetic, kept
    when the solution meets every row exactly.  A body bounded by its rows
    is empty exactly when it has no vertex.  Exponential in the row count.
    """
    rows = [(tuple(r.coeffs), r.rhs) for r in p.rows]
    verts = set()
    for sub in itertools.combinations(rows, p.n):
        x = _solve_exact([a for a, _ in sub], [b for _, b in sub])
        if x is not None and all(
            sum((c * v for c, v in zip(a, x)), start=Fraction(0)) <= b for a, b in rows
        ):
            verts.add(x)
    return verts


def exact_vertex_volume(p) -> float:
    """Volume by exact vertex enumeration plus Qhull.

    Takes the vertices from ``exact_vertices``, with no tolerance at any
    scale.  Qhull then takes the volume of their hull, shifted to the exact
    centroid.  Strict rows count as their closures; an equality row gives
    0.0.  Exponential in the row count.
    """
    from scipy.spatial import ConvexHull, QhullError

    if p.contradictory or any(r.op is Cmp.EQ for r in p.rows):
        return 0.0
    verts = exact_vertices(p)
    if len(verts) <= p.n:
        return 0.0
    centroid = [sum(col, start=Fraction(0)) / len(verts) for col in zip(*verts)]
    pts = np.array([[float(v - c) for v, c in zip(x, centroid)] for x in verts])
    if p.n == 1:
        return float(pts.max() - pts.min())
    try:
        return float(ConvexHull(pts).volume)
    except QhullError:
        return 0.0


# ---------------------------------------------------------------------------
# order polynomials: counts of difference-order systems over N values


def order_count(n: int, relations, N: int) -> int:
    """Assignments of values 0..N-1 to x_0..x_(n-1) meeting every relation
    ``(i, j, strict)``, read as x_i < x_j when strict and x_i <= x_j
    otherwise.

    A transfer walk over the levels 0..N-1: the state is the down-set of
    variables assigned so far, and a variable may join at a level once its
    strict predecessors lie below the level and its weak ones at or below
    it.  Independent of the counter's code, and polynomial in N."""
    strict = [0] * n
    weak = [0] * n
    for i, j, is_strict in relations:
        if is_strict:
            strict[j] |= 1 << i
        else:
            weak[j] |= 1 << i
    full = (1 << n) - 1
    ways = {0: 1}
    for _ in range(N):
        step: dict[int, int] = {}
        for done, count in ways.items():
            free = full & ~done
            joined = free
            while True:
                reach = done | joined
                if all(
                    not (strict[v] & ~done) and not (weak[v] & ~reach)
                    for v in range(n)
                    if joined >> v & 1
                ):
                    step[reach] = step.get(reach, 0) + count
                if joined == 0:
                    break
                joined = (joined - 1) & free
        ways = step
    return ways.get(full, 0)


def lagrange_value(points, x) -> Fraction:
    """Value at ``x`` of the polynomial through the (x_i, y_i) ``points``,
    in exact rational arithmetic."""
    total = Fraction(0)
    for i, (xi, yi) in enumerate(points):
        term = Fraction(yi)
        for j, (xj, _) in enumerate(points):
            if j != i:
                term *= Fraction(x - xj, xi - xj)
        total += term
    return total


# ---------------------------------------------------------------------------
# enhanced DIMACS serialization (round-trip partner of volcount.volce)


def print_volce(formula: Formula) -> str:
    """Serialize a formula back to the enhanced DIMACS format.

    Parsing the output reproduces the formula (constraints are already
    canonical, so the text round-trips exactly).
    """
    lines = [
        "p cnf v lc {} {} {} {}".format(
            formula.num_bool_vars,
            len(formula.clauses),
            formula.num_numeric_vars,
            len(formula.atom_map),
        )
    ]
    for idx in sorted(formula.atom_map):
        c = formula.atom_map[idx]
        if c.op is Cmp.EQ:
            op = "="
        else:
            op = "<" if c.strict else "<="
        coeffs = " ".join(str(x) for x in c.coeffs)
        sep = " " if coeffs else ""
        lines.append(f"m{idx} {coeffs}{sep}{op} {c.rhs}")
    for clause in formula.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"
