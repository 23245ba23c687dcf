"""Dense two-phase simplex over free variables, plus polytope-level helpers.

Variables are unrestricted in sign (split into positive/negative parts
internally).  Determinism matters more than speed here: pivoting is Dantzig
with a Bland fallback after an iteration threshold, ratio-test ties break
toward the smallest basis column, and everything is plain numpy float64.

Each row is scaled by its largest coefficient max|a| before pivoting (a
zero row keeps scale 1).  The right-hand side does not enter the scale, so
a row such as ``x < 2^31`` keeps its coefficient at 1 instead of shrinking
below the pivot tolerance.  Phase-1 feasibility stays absolute (FEAS_TOL in
the units of the scaled rows).

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
RESIDUAL_TOL = 1e-6
PIVOT_TOL = 1e-9
FLATNESS_TOL = 1e-7


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
    bland: bool = False,
) -> LpResult:
    """Maximize ``c . x`` over free x with ``a_ub x <= b_ub``, ``a_eq x = b_eq``."""
    c = np.asarray(c, dtype=float)
    a_ub = np.asarray(a_ub, dtype=float)
    b_ub = np.asarray(b_ub, dtype=float)
    n = c.shape[0]
    if a_eq is None:
        a_eq = np.zeros((0, n))
        b_eq = np.zeros(0)
    a_eq = np.asarray(a_eq, dtype=float)
    b_eq = np.asarray(b_eq, dtype=float)

    if n == 0:
        feasible = bool(np.all(b_ub >= -FEAS_TOL)) and bool(np.all(np.abs(b_eq) <= FEAS_TOL))
        if not feasible:
            return LpResult(LpStatus.INFEASIBLE)
        return LpResult(LpStatus.OPTIMAL, 0.0, np.zeros(0))

    m_ub, m_eq = a_ub.shape[0], a_eq.shape[0]
    m = m_ub + m_eq
    a_all = np.vstack([a_ub, a_eq]) if m else np.zeros((0, n))
    b_all = np.concatenate([b_ub, b_eq])

    # Row scaling for conditioning (does not change the feasible set).
    scales = np.abs(a_all).max(axis=1)
    scales[scales < 1e-300] = 1.0
    a_all = a_all / scales[:, None]
    b_all = b_all / scales

    # Columns: n positive parts, n negative parts, m_ub slacks, m artificials.
    n_struct = 2 * n + m_ub
    n_cols = n_struct + m
    tab = np.zeros((m, n_cols + 1))
    tab[:, :n] = a_all
    tab[:, n : 2 * n] = -a_all
    for i in range(m_ub):
        tab[i, 2 * n + i] = 1.0
    tab[:, n_cols] = b_all
    neg = tab[:, n_cols] < 0
    tab[neg, :n_cols] *= -1.0
    tab[neg, n_cols] *= -1.0
    for i in range(m):
        tab[i, n_struct + i] = 1.0
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

    def run_phase(
        zrow: np.ndarray, zval: float, allowed: int, use_bland: bool
    ) -> tuple[float, np.ndarray]:
        """Pivot to optimality; return the objective and the final reduced
        costs (math.inf for the objective when unbounded)."""
        iters = 0
        mode_bland = use_bland
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
    art_sum, zrow1 = run_phase(zrow1, zval1, n_struct + m, bland)
    if art_sum is math.inf:
        return LpResult(LpStatus.INFEASIBLE)
    if -art_sum > FEAS_TOL:
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
    value, _ = run_phase(zrow2, zval2, n_struct, bland)
    if value is math.inf:
        return LpResult(LpStatus.UNBOUNDED)

    x = np.zeros(n_cols)
    for i in range(m):
        x[basis[i]] = tab[i, n_cols]
    point = x[:n] - x[n : 2 * n]
    return LpResult(LpStatus.OPTIMAL, float(np.dot(c, point)), point)


def _pivot(tab: np.ndarray, basis: list[int], r: int, j: int) -> None:
    """Pivot column j into the basis at row r, in place."""
    piv = tab[r, j]
    tab[r] /= piv
    col_vals = tab[:, j].copy()
    col_vals[r] = 0.0
    tab -= np.outer(col_vals, tab[r])
    basis[r] = j


def _checked_max(c: np.ndarray, a_ub, b_ub, a_eq, b_eq) -> LpResult:
    """``simplex_max`` with the optimum re-checked against the unscaled rows,
    retried under Bland's rule when it violates them by more than FEAS_TOL."""
    res = simplex_max(c, a_ub, b_ub, a_eq, b_eq)
    if res.status is not LpStatus.OPTIMAL:
        return res
    if _violation(a_ub, b_ub, a_eq, b_eq, res.point) > FEAS_TOL:
        res = simplex_max(c, a_ub, b_ub, a_eq, b_eq, bland=True)
        if res.status is not LpStatus.OPTIMAL:
            return res
        viol = _violation(a_ub, b_ub, a_eq, b_eq, res.point)
        if viol > RESIDUAL_TOL:
            raise NumericalError(f"LP solution violates constraints by {viol:.3g}")
    return res


def _violation(a_ub, b_ub, a_eq, b_eq, x) -> float:
    worst = 0.0
    if a_ub.shape[0]:
        worst = max(worst, float(np.max(a_ub @ x - b_ub)))
    if a_eq.shape[0]:
        worst = max(worst, float(np.max(np.abs(a_eq @ x - b_eq))))
    return worst


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
    res = _checked_max(c if sense == "max" else -c, *p.split_arrays())
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
    return _checked_max(np.zeros(a_ub.shape[1]), a_ub, b_ub, a_eq, b_eq)


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
    res = _checked_max(c, a_aug, b_aug, np.zeros((0, p.n + 1)), np.zeros(0))
    if res.status is not LpStatus.OPTIMAL:
        raise NumericalError("Chebyshev LP did not solve")
    return res.point[: p.n], float(res.point[p.n])


def integer_bounds(p: Polytope, j: int) -> Optional[tuple[int, int]]:
    """Integer range [ceil(min x_j), floor(max x_j)] over the closure.

    Returns None when the polytope is empty.  The small rounding slack can
    only widen the range; callers prune infeasible integer values exactly.
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
    lo = math.ceil(lo_res.value - FEAS_TOL)
    hi = math.floor(hi_res.value + FEAS_TOL)
    return lo, hi
