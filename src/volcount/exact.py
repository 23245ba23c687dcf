"""Exact volume of a bounded polytope via the divergence-theorem recursion.

Applying the divergence theorem to the vector field x on a polytope
{ A x <= b } in dimension n gives

    n * vol(P) = sum_i  (b_i / |a_i|) * vol_{n-1}(P  intersect  {a_i x = b_i})

with signed distances, so the identity holds wherever the origin sits.  Each
facet measure is a lower-dimensional polytope volume after substituting out
one variable, which recurses down to planar polygons handled by a shoelace
base case.  Sub-bodies are memoized on (rows used as equations, variables
eliminated): Gaussian elimination steps on distinct pivots commute, so that
pair determines the reduced body regardless of the substitution order.

Each interior node (dimension 3 and up) first checks that its body is
nonempty with one feasibility LP on the built-in simplex of ``lp.py``; the
interval and polygon base cases detect emptiness themselves.  No redundancy
pruning runs: a redundant row's face is empty or lower-dimensional, so it
adds zero to the sum.
"""
from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import NumericalError, UnboundedError, check_deadline
from .lp import LpStatus, chebyshev_center, lp_optimize
# The recursion's emptiness LP; perfbench traces it under this name as
# exact.linprog.
from .lp import lp_feasible as linprog
from .model import Polytope, RowKind

_ZERO_TOL = 1e-12
_CONSTANT_ROW_TOL = 1e-9
_VERTEX_TOL = 1e-7


def exact_volume(p: Polytope, deadline: Optional[float] = None) -> float:
    """Exact volume of a bounded polytope (0.0 for empty or flat bodies).

    Strict and non-strict rows are measure-equivalent here; any equality row
    flattens the body, so it short-circuits to zero.  Unbounded input raises
    UnboundedError.  The memo lives per call, so concurrent calls never share
    state.
    """
    if p.contradictory:
        return 0.0
    if p.n == 0:
        return 1.0
    if any(row.kind is RowKind.EQ for row in p.rows):
        return 0.0

    # Boundedness probe; also catches emptiness before the recursion starts.
    for j in range(p.n):
        c = np.zeros(p.n)
        c[j] = 1.0
        hi = lp_optimize(p, c, "max")
        if hi.status is LpStatus.INFEASIBLE:
            return 0.0
        lo = lp_optimize(p, c, "min")
        if hi.status is LpStatus.UNBOUNDED or lo.status is LpStatus.UNBOUNDED:
            raise UnboundedError(f"solution space unbounded in x{j + 1}")

    _, rho = chebyshev_center(p)
    if rho <= 0.0:
        return 0.0

    a = np.array([[float(c) for c in row.coeffs] for row in p.rows], dtype=float)
    b = np.array([float(row.rhs) for row in p.rows], dtype=float)
    rows = _clean_rows(a, b, tuple(range(len(b))))
    if rows is None:
        return 0.0
    a, b, ids = rows
    memo: dict = {}
    return _volume_rec(a, b, ids, frozenset(), frozenset(), tuple(range(p.n)), memo, deadline)


def _clean_rows(a: np.ndarray, b: np.ndarray, ids: tuple[int, ...]):
    """Normalize rows by their largest coefficient, drop constant rows, and
    merge parallel duplicates keeping the tightest (smallest id wins ties).
    Returns None when a constant row is violated (empty body)."""
    kept: dict[tuple, tuple[float, int, np.ndarray]] = {}
    order: list[tuple] = []
    for i in range(a.shape[0]):
        row = a[i]
        scale = float(np.max(np.abs(row)))
        if scale < _ZERO_TOL:
            if b[i] < -_CONSTANT_ROW_TOL:
                return None
            continue
        nrow = row / scale
        nb = float(b[i]) / scale
        key = tuple(np.round(nrow, 12))
        prev = kept.get(key)
        if prev is None:
            kept[key] = (nb, ids[i], nrow)
            order.append(key)
        elif nb < prev[0] - 1e-15:
            # The tighter row wins and keeps its own id: ids name original
            # hyperplanes in the memo, so a merged row must not masquerade
            # as the looser plane it displaced.
            kept[key] = (nb, ids[i], nrow)
    if not order:
        return None
    a_out = np.array([kept[k][2] for k in order])
    b_out = np.array([kept[k][0] for k in order])
    ids_out = tuple(kept[k][1] for k in order)
    return a_out, b_out, ids_out


def _canonical_key(a: np.ndarray, b: np.ndarray):
    """Hashable form of the system, invariant under row order and
    translation (shifting to the least-squares point of A x = b maps
    translates of a body to the same system).  The column sort also catches
    many, not all, variable permutations.  Equal keys always mean the
    systems are variable permutations of translates of each other, so their
    volumes agree: any collision is sound, and a missed match only costs
    time."""
    shift = np.linalg.lstsq(a, b, rcond=None)[0]
    rows = np.column_stack([a, b - a @ shift])
    rows = np.round(rows, 9) + 0.0  # drop negative zeros
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    col_order = np.lexsort(rows[:, :-1][::-1])
    rows = rows[:, np.append(col_order, rows.shape[1] - 1)]
    order = np.lexsort(rows.T[::-1])
    return rows[order].tobytes()


def _volume_rec(
    a: np.ndarray,
    b: np.ndarray,
    ids: tuple[int, ...],
    elim_rows: frozenset,
    elim_vars: frozenset,
    var_ids: tuple[int, ...],
    memo: dict,
    deadline: Optional[float],
) -> float:
    check_deadline(deadline)
    key = (elim_rows, elim_vars)
    hit = memo.get(key)
    if hit is not None:
        return hit
    ckey = _canonical_key(a, b)
    hit = memo.get(ckey)
    if hit is not None:
        memo[key] = hit
        return hit

    n = a.shape[1]
    m = a.shape[0]
    if n == 1:
        vol = _interval_length(a, b)
    elif n == 2:
        vol = _polygon_area(a, b)
    else:
        # Empty bodies short-circuit; the planar/interval base cases above
        # detect emptiness on their own, so only interior nodes pay for it.
        if linprog(a, b, np.zeros((0, n)), np.zeros(0)).status is not LpStatus.OPTIMAL:
            memo[key] = 0.0
            return 0.0
        total = 0.0
        for i in range(m):
            if b[i] == 0.0:
                continue
            piv = int(np.argmax(np.abs(a[i])))
            if abs(a[i, piv]) < _ZERO_TOL:
                continue
            child = _substitute(a, b, ids, i, piv)
            if child is None:
                face_vol = 0.0
            else:
                ca, cb, cids = child
                face_vol = _volume_rec(
                    ca,
                    cb,
                    cids,
                    elim_rows | {ids[i]},
                    elim_vars | {var_ids[piv]},
                    var_ids[:piv] + var_ids[piv + 1 :],
                    memo,
                    deadline,
                )
            total += (b[i] / abs(a[i, piv])) * face_vol
        vol = max(total / n, 0.0)

    memo[key] = vol
    memo[ckey] = vol
    return vol


def _substitute(a: np.ndarray, b: np.ndarray, ids: tuple[int, ...], i: int, piv: int):
    """Eliminate the pivot variable using row i as an equation; rows are
    renormalized and deduplicated afterwards."""
    factor = a[:, piv] / a[i, piv]
    a_new = a - np.outer(factor, a[i])
    b_new = b - factor * b[i]
    a_new = np.delete(a_new, piv, axis=1)
    mask = np.ones(len(b), dtype=bool)
    mask[i] = False
    return _clean_rows(a_new[mask], b_new[mask], tuple(x for j, x in enumerate(ids) if mask[j]))


def _interval_length(a: np.ndarray, b: np.ndarray) -> float:
    lo = -math.inf
    hi = math.inf
    for i in range(a.shape[0]):
        coef = a[i, 0]
        if coef > _ZERO_TOL:
            hi = min(hi, b[i] / coef)
        elif coef < -_ZERO_TOL:
            lo = max(lo, b[i] / coef)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NumericalError("unbounded face in volume recursion")
    return max(hi - lo, 0.0)


def _polygon_area(a: np.ndarray, b: np.ndarray) -> float:
    """Area of { A x <= b } in the plane: enumerate pairwise line
    intersections, keep the feasible ones, walk them in angular order."""
    m = a.shape[0]
    pts: list[tuple[float, float]] = []
    for i in range(m):
        for j in range(i + 1, m):
            det = a[i, 0] * a[j, 1] - a[i, 1] * a[j, 0]
            if abs(det) < _ZERO_TOL:
                continue
            x = (b[i] * a[j, 1] - b[j] * a[i, 1]) / det
            y = (a[i, 0] * b[j] - a[j, 0] * b[i]) / det
            if np.all(a[:, 0] * x + a[:, 1] * y <= b + _VERTEX_TOL):
                pts.append((x, y))
    if len(pts) < 3:
        return 0.0
    uniq: list[tuple[float, float]] = []
    for x, y in pts:
        if all(abs(x - u) > 1e-9 or abs(y - v) > 1e-9 for u, v in uniq):
            uniq.append((x, y))
    if len(uniq) < 3:
        return 0.0
    cx = sum(x for x, _ in uniq) / len(uniq)
    cy = sum(y for _, y in uniq) / len(uniq)
    uniq.sort(key=lambda pt: math.atan2(pt[1] - cy, pt[0] - cx))
    area = 0.0
    for k in range(len(uniq)):
        x1, y1 = uniq[k]
        x2, y2 = uniq[(k + 1) % len(uniq)]
        area += x1 * y2 - x2 * y1
    return abs(area) / 2.0
