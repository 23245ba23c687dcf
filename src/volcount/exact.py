"""Exact volume of a bounded polytope via the divergence-theorem recursion.

Applying the divergence theorem to the vector field x on a polytope
{ A x <= b } in dimension n gives

    n * vol(P) = sum_i  (b_i / |a_i|) * vol_{n-1}(P  intersect  {a_i x = b_i})

with signed distances, so the identity holds wherever the origin sits.  Each
facet measure is a lower-dimensional polytope volume after substituting out
one variable.  The recursion runs down to edges: a planar body takes the
identity once more, with each edge measured as an interval along its line,
and a 1-D body is one such interval.  Both base cases share one interval
kernel, and no vertex is ever enumerated.

Sub-bodies are memoized on (rows used as equations, variables left):
Gaussian elimination steps on distinct pivots commute, so that pair
determines the reduced body regardless of the substitution order.  Each key
is read in one place: the pair in the facet loop, before a facet's body is
built, so a repeated facet costs one lookup; the canonical key of the rows
when a body is entered, which catches a body reached under a new pair.  Both
are stored once the body is done, or once its emptiness LP finds it empty.

Every row is scaled so that its largest |a_ij| is exactly 1.0 (x / |x| is
exact in IEEE arithmetic).  A facet pivots on that entry, so the factor
b_i / |a_i,piv| by which the facet's projected volume enters the sum is b_i
itself.

Each interior node (dimension 3 and up) first checks that its body is
nonempty with one feasibility LP on the built-in simplex of ``lp.py``.  The
base cases need no LP: every edge lies in its body, so the edges of an empty
body are empty intervals.  No redundancy pruning runs: a redundant row's
face is empty or lower-dimensional, so it adds zero to the sum.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import NumericalError, UnboundedError, check_deadline
from .lp import LpStatus, chebyshev_center, lp_optimize
# The recursion's emptiness LP; perfbench traces it under this name as
# exact.linprog.
from .lp import lp_feasible as linprog
from .model import Cmp, Polytope

_ZERO_TOL = 1e-12
_CONSTANT_ROW_TOL = 1e-9


def exact_volume(p: Polytope, deadline: Optional[float] = None) -> float:
    """Exact volume of a bounded polytope (0.0 for bodies without interior).

    Strict and non-strict rows are measure-equivalent here.  The body is
    opened by three checks, in the order ``round_polytope`` uses:

    1. a contradictory body or any equality row: 0.0, no LP runs;
    2. the Chebyshev radius rho: 0.0 when rho <= 0, which also covers every
       empty body (rho < 0);
    3. the 2n boundedness LPs: UnboundedError on an unbounded direction,
       NumericalError when one neither solves nor finds a ray.

    A body without interior is therefore 0.0 even when it is unbounded.  The
    memo lives per call, so concurrent calls never share state.
    """
    if p.contradictory:
        return 0.0
    if p.n == 0:
        return 1.0
    if any(row.op is Cmp.EQ for row in p.rows):
        return 0.0
    _, rho = chebyshev_center(p)
    if rho <= 0.0:
        return 0.0

    for j in range(p.n):
        c = np.zeros(p.n)
        c[j] = 1.0
        hi = lp_optimize(p, c, "max")
        lo = lp_optimize(p, c, "min")
        if hi.status is LpStatus.UNBOUNDED or lo.status is LpStatus.UNBOUNDED:
            raise UnboundedError(f"solution space unbounded in x{j + 1}")
        if hi.status is not LpStatus.OPTIMAL or lo.status is not LpStatus.OPTIMAL:
            raise NumericalError(f"bounding-box LP in x{j + 1} did not solve")

    a, b, _, _ = p.split_arrays()
    rows = _clean_rows(a, b, tuple(range(len(b))))
    if rows is None:
        return 0.0
    a, b, ids = rows
    memo: dict = {}
    return _volume_rec(a, b, ids, frozenset(), tuple(range(p.n)), memo, deadline)


def _clean_rows(a: np.ndarray, b: np.ndarray, ids: tuple[int, ...]):
    """Normalize rows by their largest coefficient, drop constant rows, and
    merge parallel duplicates keeping the tightest (the earlier row wins
    ties).  Rows come out in first-occurrence order.  Returns None when a
    constant row is violated (empty body) or no row is left."""
    scales = np.abs(a).max(axis=1)
    constant = scales < _ZERO_TOL
    if np.any(b[constant] < -_CONSTANT_ROW_TOL):
        return None
    live = np.flatnonzero(~constant)
    if live.size == 0:
        return None
    a_norm = a[live] / scales[live, None]
    b_norm = b[live] / scales[live]
    keys = np.round(a_norm, 12) + 0.0  # drop negative zeros
    rhs = b_norm.tolist()
    kept: dict[bytes, int] = {}
    for r in range(len(rhs)):
        k = keys[r].tobytes()
        prev = kept.get(k)
        if prev is None or rhs[r] < rhs[prev] - 1e-15:
            # The tighter row wins and keeps its own id: ids name original
            # hyperplanes in the memo, so a merged row must not masquerade
            # as the looser plane it displaced.
            kept[k] = r
    sel = list(kept.values())
    return a_norm[sel], b_norm[sel], tuple(ids[live[r]] for r in sel)


def _canonical_key(a: np.ndarray, b: np.ndarray):
    """Hashable form of the system, invariant under row order and
    translation (shifting to the least-squares point of A x = b maps
    translates of a body to the same system).  The column sort also catches
    many, not all, variable permutations.  Entries are rounded to 9
    decimals, so equal keys guarantee only that the shifted systems agree
    to within 1e-9 per entry, up to row order and a column permutation.
    Exact permuted translates match (unless float noise puts an entry on
    the other side of a rounding boundary, which only costs time), but so
    do systems that differ by less than 1e-9, and the memo then hands one
    the other's volume.  No bound on the volume error this causes is
    proved here."""
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
    var_ids: tuple[int, ...],
    memo: dict,
    deadline: Optional[float],
) -> float:
    check_deadline(deadline)
    key = (elim_rows, var_ids)
    ckey = _canonical_key(a, b)
    hit = memo.get(ckey)
    if hit is not None:
        memo[key] = hit
        return hit

    m, n = a.shape
    if n == 1:
        vol = float(_interval_widths(a.T, b[None, :])[0])
    elif n == 2:
        vol = _polygon_area(a, b)
    else:
        # Empty bodies short-circuit; the planar/interval base cases above
        # detect emptiness on their own, so only interior nodes pay for it.
        if linprog(a, b, np.zeros((0, n)), np.zeros(0)).status is not LpStatus.OPTIMAL:
            memo[key] = memo[ckey] = 0.0
            return 0.0
        total = 0.0
        for i in range(m):
            if b[i] == 0.0:
                continue
            piv = int(np.argmax(np.abs(a[i])))
            child_rows = elim_rows | {ids[i]}
            child_vars = var_ids[:piv] + var_ids[piv + 1 :]
            face_vol = memo.get((child_rows, child_vars))
            if face_vol is None:
                child = _substitute(a, b, ids, i, piv)
                if child is None:
                    face_vol = 0.0
                else:
                    ca, cb, cids = child
                    face_vol = _volume_rec(ca, cb, cids, child_rows, child_vars, memo, deadline)
            # |a[i, piv]| == 1.0 (unit-scaled rows): b[i] is the factor.
            total += b[i] * face_vol
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


def _polygon_area(a: np.ndarray, b: np.ndarray) -> float:
    """Area of { A x <= b } in the plane by the facet identity taken one
    level down.  Row i's edge is p_i + t d_i over the interval of t the other
    rows allow, with p_i = b_i a_i / |a_i|^2 the foot of its line and
    d_i = (-a_i2, a_i1) along it.  The edge is |a_i| (t_hi - t_lo) long, so
    2 * area = sum_i b_i (t_hi - t_lo)."""
    a0, a1 = a[:, 0], a[:, 1]
    c = b / (a0 * a0 + a1 * a1)  # p_i = c_i a_i
    # Elementwise products, not a matrix product: a fused multiply-add would
    # leave rounding noise where the exact slope is 0.0 (row i on itself and
    # on its negation).
    slope = np.outer(a0, a1) - np.outer(a1, a0)
    room = b - (np.outer(c * a0, a0) + np.outer(c * a1, a1))
    # Row i's line lies on row i: its own room is 0 up to rounding.
    np.fill_diagonal(room, 0.0)
    return max(0.5 * float(b @ _interval_widths(slope, room)), 0.0)


def _interval_widths(slope: np.ndarray, room: np.ndarray) -> np.ndarray:
    """Width of the interval of t with t * slope[k, j] <= room[k, j] for
    every j, one per row k, 0.0 when the interval is empty.  A j with
    |slope| < _ZERO_TOL bounds nothing, but empties the interval when its
    room is negative."""
    up = slope > _ZERO_TOL
    down = slope < -_ZERO_TOL
    ratio = np.divide(room, slope, out=np.zeros_like(room), where=up | down)
    hi = ratio.min(axis=1, where=up, initial=np.inf)
    lo = ratio.max(axis=1, where=down, initial=-np.inf)
    if not (np.isfinite(hi).all() and np.isfinite(lo).all()):
        raise NumericalError("unbounded face in volume recursion")
    blocked = np.any((room < 0.0) & ~(up | down), axis=1)
    return np.where(blocked, 0.0, np.maximum(hi - lo, 0.0))
