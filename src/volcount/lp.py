"""Dense two-phase simplex over free variables, plus polytope-level helpers.

Variables are unrestricted in sign (split into positive/negative parts
internally).  Determinism matters more than speed here: pivoting is Dantzig
with a Bland fallback after an iteration threshold, ratio-test ties break
toward the smallest basis column, and everything is plain numpy float64.

Each row is scaled by its largest coefficient max|a| before pivoting (a
zero row keeps scale 1).  The right-hand side does not enter the scale, so
a row such as ``x < 2^31`` keeps its coefficient at 1 instead of shrinking
below the pivot tolerance.

Every verdict on a point uses one rule: row i is met at x when
a_i x - b_i <= max(FEAS_TOL, REL_TOL (|a_i|_1 |x|_inf + |b_i|)), that is,
absolutely near unit scale and relative to the row's magnitude far from it
(an equality row bounds |a_i x - b_i|).  REL_TOL = 1e-14 sits above the
rounding noise of the residuals, at most about 2e-15 of that magnitude on
bodies with bounds up to 2^31, and below the margin of an inconsistent
integer row: one with largest coefficient c misses by 1/c or more in the
scaled rows, which the rule sees at 2^31 for c up to about 10^4.

Phase 1 calls a system infeasible when its artificial mass is above
FEAS_TOL and the phase-1 point misses one of the scaled rows it solved by
this rule.  ``simplex_max`` checks its optimum against the caller's rows,
unscaled, by the same rule inside the solve and raises NumericalError when
a row is missed, so each LP is solved once.

Rows with b < 0 are negated first.  Phase 1 then starts each inequality row
that kept b >= 0 on its slack, and each negated row and each equality row
on an artificial, so a system whose rows all hold at the origin starts
feasible.  Every row still has an artificial column, basic or not.

When phase 1 ends with artificials left over, :class:`LpResult` carries a
Farkas certificate: multipliers y, one per input row (inequalities first,
then equalities), read from the final phase-1 reduced costs of the
artificial columns with the row flips and scales undone.  The read-out does
not depend on the starting basis: an artificial column is a unit column
with phase-1 cost -1, so its final reduced cost minus one is the row's
simplex multiplier.  y >= 0 on the inequality rows, y^T A = 0 up to
rounding and y^T b < 0, so the rows with nonzero y are by themselves
infeasible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import NumericalError, UnboundedError
from .model import Polytope

FEAS_TOL = 1e-7
REL_TOL = 1e-14
PIVOT_TOL = 1e-9
# The rounding noise of one row a_i x <= b_i evaluated at x, in units of
# (|a_i|_1 |x|_inf + |b_i|): four float64 machine epsilons.
ROW_NOISE = 4 * 2.0**-52


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpResult:
    status: LpStatus
    value: Optional[float] = None
    point: Optional[np.ndarray] = None
    certificate: Optional[np.ndarray] = None  # Farkas multipliers when infeasible


def simplex_max(
    c: np.ndarray,
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    a_eq: Optional[np.ndarray] = None,
    b_eq: Optional[np.ndarray] = None,
) -> LpResult:
    """Maximize ``c . x`` over free x with ``a_ub x <= b_ub``, ``a_eq x = b_eq``.

    Raises NumericalError when the optimum misses an input row beyond the
    row's tolerance (see the module docstring).
    """
    c = np.asarray(c, dtype=float)
    a_ub = np.asarray(a_ub, dtype=float)
    b_ub = np.asarray(b_ub, dtype=float)
    n = c.shape[0]
    if a_eq is None:
        a_eq = np.zeros((0, n))
        b_eq = np.zeros(0)
    a_eq = np.asarray(a_eq, dtype=float)
    b_eq = np.asarray(b_eq, dtype=float)

    m_ub, m_eq = a_ub.shape[0], a_eq.shape[0]
    m = m_ub + m_eq
    a_all = np.vstack([a_ub, a_eq]) if m else np.zeros((0, n))
    b_all = np.concatenate([b_ub, b_eq])

    if n == 0:
        if _violation(a_all, b_all, m_ub, np.zeros(0)) > 0.0:
            return LpResult(LpStatus.INFEASIBLE)
        return LpResult(LpStatus.OPTIMAL, 0.0, np.zeros(0))

    # Row scaling for conditioning (does not change the feasible set).
    scales = np.abs(a_all).max(axis=1)
    scales[scales < 1e-300] = 1.0
    a_scaled = a_all / scales[:, None]
    b_scaled = b_all / scales

    # Columns: n positive parts, n negative parts, m_ub slacks, m artificials.
    n_struct = 2 * n + m_ub
    n_cols = n_struct + m
    tab = np.zeros((m, n_cols + 1))
    tab[:, :n] = a_scaled
    tab[:, n : 2 * n] = -a_scaled
    rows = np.arange(m)
    tab[rows[:m_ub], 2 * n + rows[:m_ub]] = 1.0
    tab[:, n_cols] = b_scaled
    neg = tab[:, n_cols] < 0
    tab[neg, :n_cols] *= -1.0
    tab[neg, n_cols] *= -1.0
    tab[rows, n_struct + rows] = 1.0
    # An inequality row with b >= 0 starts on its slack; flipped rows and
    # equality rows start on their artificial.  Every row keeps its
    # artificial column, so the certificate read-out below holds for any
    # starting basis.
    on_art = neg.copy()
    on_art[m_ub:] = True
    basis = [n_struct + i if on_art[i] else 2 * n + i for i in range(m)]

    obj = np.zeros(n_cols)
    obj[:n] = c
    obj[n : 2 * n] = -c

    limit = max(500, 60 * (m + n_cols))

    def run_phase(zrow: np.ndarray, zval: float, allowed: int) -> tuple[float, np.ndarray]:
        """Pivot to optimality; return the objective and the final reduced
        costs (math.inf for the objective when unbounded)."""
        iters = 0
        mode_bland = False
        while True:
            cand = np.where(zrow[:allowed] < -PIVOT_TOL)[0]
            if cand.size == 0:
                return zval, zrow
            if mode_bland:
                j = int(cand[0])
            else:
                j = int(cand[np.argmin(zrow[cand])])
            col = tab[:, j]
            pos = np.where(col > PIVOT_TOL)[0]
            if pos.size == 0:
                return math.inf, zrow
            ratios = tab[pos, n_cols] / col[pos]
            best = ratios.min()
            ties = pos[ratios <= best + 1e-12]
            r = int(ties[np.argmin([basis[t] for t in ties])])
            _pivot(tab, basis, r, j)
            zval -= zrow[j] * tab[r, n_cols]
            zrow = zrow - zrow[j] * tab[r, : n_cols + 1][:n_cols]
            iters += 1
            if not mode_bland and iters > limit:
                mode_bland = True
            if iters > 4 * limit:
                raise NumericalError("simplex failed to converge")

    # Phase 1: drive artificials to zero.  Only rows that start on their
    # artificial carry phase-1 cost in the starting basis.
    zrow1 = -tab[on_art, :n_cols].sum(axis=0)
    zrow1[n_struct:] += 1.0
    zval1 = -float(tab[on_art, n_cols].sum())
    art_sum, zrow1 = run_phase(zrow1, zval1, n_struct + m)
    if art_sum is math.inf:
        return LpResult(LpStatus.INFEASIBLE)
    # Leftover artificial mass is infeasibility only when the phase-1 point
    # misses a row beyond that row's tolerance; otherwise it is rounding.
    if -art_sum > FEAS_TOL and (
        _violation(a_scaled, b_scaled, m_ub, _basic_point(tab, basis, n)) > 0.0
    ):
        # Phase 1 maximizes -sum(artificials), so the simplex multipliers of
        # the flipped, scaled rows are zrow1[artificials] - 1.  Undo the flip
        # and the scale, and clip rounding residue below zero on inequality
        # rows, to get the Farkas multipliers of the input rows.
        y = zrow1[n_struct:] - 1.0
        y[neg] *= -1.0
        y /= scales
        np.maximum(y[:m_ub], 0.0, out=y[:m_ub])
        return LpResult(LpStatus.INFEASIBLE, certificate=y)

    # Pivot leftover artificials out of the basis (or drop redundant rows).
    keep = np.ones(m, dtype=bool)
    for i in range(m):
        if basis[i] >= n_struct:
            row = tab[i, :n_struct]
            nz = np.where(np.abs(row) > 1e-8)[0]
            if nz.size == 0:
                keep[i] = False
                continue
            _pivot(tab, basis, i, int(nz[0]))
    if not keep.all():
        tab = tab[keep]
        basis = [b for b, k in zip(basis, keep) if k]
    m = len(basis)

    # Phase 2 on structural columns only (artificials zeroed out).
    obj_full = np.zeros(n_cols)
    obj_full[:n_struct] = obj[:n_struct]
    zrow2 = -obj_full.copy()
    zval2 = 0.0
    for i in range(m):
        cb = obj_full[basis[i]]
        if cb != 0.0:
            zrow2 += cb * tab[i, :n_cols]
            zval2 += cb * tab[i, n_cols]
    value, _ = run_phase(zrow2, zval2, n_struct)
    if value is math.inf:
        return LpResult(LpStatus.UNBOUNDED)

    point = _basic_point(tab, basis, n)
    viol = _violation(a_all, b_all, m_ub, point)
    if viol > 0.0:
        raise NumericalError(f"LP solution violates constraints by {viol:.3g}")
    return LpResult(LpStatus.OPTIMAL, float(np.dot(c, point)), point)


def _pivot(tab: np.ndarray, basis: list[int], r: int, j: int) -> None:
    """Pivot column j into the basis at row r, in place."""
    piv = tab[r, j]
    tab[r] /= piv
    col_vals = tab[:, j].copy()
    col_vals[r] = 0.0
    tab -= np.outer(col_vals, tab[r])
    basis[r] = j


def _basic_point(tab: np.ndarray, basis: list[int], n: int) -> np.ndarray:
    """The x the basis reads: each basic column at its row's right-hand
    side, every other column at 0, positive minus negative parts."""
    x = np.zeros(tab.shape[1] - 1)
    x[basis] = tab[:, -1]
    return x[:n] - x[n : 2 * n]


def _violation(a: np.ndarray, b: np.ndarray, m_ub: int, x: np.ndarray) -> float:
    """The largest residual by which x misses a row beyond the row's
    tolerance max(FEAS_TOL, REL_TOL (|a_i|_1 |x|_inf + |b_i|)), or 0.0 when
    x meets every row.  Rows from m_ub on are equalities.  The magnitudes
    are computed only when some row is over FEAS_TOL."""
    r = a @ x - b
    if m_ub < r.size:
        r[m_ub:] = np.abs(r[m_ub:])
    if r.max(initial=0.0) <= FEAS_TOL:
        return 0.0
    mag = np.abs(a).sum(axis=1) * np.abs(x).max(initial=0.0) + np.abs(b)
    return float(r.max(where=r > np.maximum(FEAS_TOL, REL_TOL * mag), initial=0.0))


def lp_optimize(p: Polytope, objective: Sequence[float], sense: str = "max") -> LpResult:
    """Optimize a linear objective over the closure of a polytope.

    Strict rows are treated as their closures, which is what every caller
    (boundedness probes, integer bounds) wants.
    """
    if p.contradictory:
        return LpResult(LpStatus.INFEASIBLE)
    if sense not in ("max", "min"):
        raise ValueError("sense must be 'max' or 'min'")
    c = np.asarray(objective, dtype=float)
    res = simplex_max(c if sense == "max" else -c, *p.split_arrays())
    if res.status is not LpStatus.OPTIMAL:
        return res
    return LpResult(LpStatus.OPTIMAL, float(np.dot(c, res.point)), res.point)


def lp_feasible(
    a_ub: np.ndarray, b_ub: np.ndarray, a_eq: np.ndarray, b_eq: np.ndarray
) -> LpResult:
    """Find a point with ``a_ub x <= b_ub`` and ``a_eq x = b_eq``, or report
    infeasibility together with the Farkas certificate of phase 1.

    Takes float arrays as :meth:`Polytope.split_arrays` returns them; strict
    rows are read as their closures.
    """
    return simplex_max(np.zeros(a_ub.shape[1]), a_ub, b_ub, a_eq, b_eq)


def chebyshev_center(p: Polytope) -> tuple[np.ndarray, float]:
    """Center and radius of a largest inscribed ball.

    Equality rows join as opposite inequality pairs, so any equality (or an
    empty interior) forces the radius to zero or below.  A guard row caps the
    radius at max(1, max_i |b_i| / ||a_i||) to keep the LP bounded on
    unbounded input.  The cap never binds on a bounded body: the ray from the
    center away from the origin leaves through some row i, so
    r ||a_i|| <= b_i - a_i . c <= b_i.  On an unbounded body the cap may
    bind; the caller's boundedness probe then reports the direction.
    """
    a_ub, b_ub, a_eq, b_eq = p.split_arrays()
    a = np.vstack([a_ub, a_eq, -a_eq])
    b = np.concatenate([b_ub, b_eq, -b_eq])
    norms = np.linalg.norm(a, axis=1)
    guard = np.zeros((1, p.n + 1))
    guard[0, p.n] = 1.0
    a_aug = np.vstack([np.hstack([a, norms[:, None]]), guard])
    nonzero = norms > 0.0
    rho_cap = max(1.0, float(np.max(np.abs(b[nonzero]) / norms[nonzero], initial=0.0)))
    b_aug = np.concatenate([b, [rho_cap]])
    c = np.zeros(p.n + 1)
    c[p.n] = 1.0
    res = simplex_max(c, a_aug, b_aug)
    if res.status is not LpStatus.OPTIMAL:
        raise NumericalError("Chebyshev LP did not solve")
    return res.point[: p.n], float(res.point[p.n])


def is_flat(a: np.ndarray, b: np.ndarray, center: np.ndarray, rho: float) -> bool:
    """Whether the Chebyshev ball (center, rho) of {a x <= b} shows no
    interior: the ball's term rho |a_i| in every row is within the rounding
    noise of that row at the center, ROW_NOISE (|a_i|_1 |c|_inf + |b_i|).

    The rule is relative to the body's own scale, so a body keeps its
    verdict when it is scaled.  Every empty body (rho < 0) is flat.  With
    no row the body is the whole space, which is not flat.
    """
    noise = ROW_NOISE * (np.abs(a).sum(axis=1) * np.abs(center).max(initial=0.0) + np.abs(b))
    return len(b) > 0 and bool(np.all(rho * np.linalg.norm(a, axis=1) <= noise))


def integer_bounds(p: Polytope, j: int) -> Optional[tuple[int, int]]:
    """Integer range [ceil(min x_j), floor(max x_j)] over the closure.

    Returns None when the polytope is empty.  Each end moves outward by the
    rounding slack max(FEAS_TOL, REL_TOL |x|_inf) of its optimal point x,
    the module's rule for the row x_j <= value, before it is rounded: an end
    at 0 on a body 2^31 wide can read 1.2e-7.  The slack only widens the
    range; callers prune infeasible integer values exactly.
    Raises UnboundedError when x_j is unbounded in either direction.
    """
    c = np.zeros(p.n)
    c[j] = 1.0
    hi_res = lp_optimize(p, c, "max")
    if hi_res.status is LpStatus.INFEASIBLE:
        return None
    lo_res = lp_optimize(p, c, "min")
    if lo_res.status is LpStatus.INFEASIBLE:
        return None
    if hi_res.status is LpStatus.UNBOUNDED or lo_res.status is LpStatus.UNBOUNDED:
        raise UnboundedError(f"variable x{j + 1} is unbounded")
    lo = math.ceil(lo_res.value - _slack(lo_res.point))
    hi = math.floor(hi_res.value + _slack(hi_res.point))
    return lo, hi


def _slack(x: np.ndarray) -> float:
    """The tolerance of the row x_j <= value at the optimal point x."""
    return max(FEAS_TOL, REL_TOL * float(np.abs(x).max(initial=0.0)))
