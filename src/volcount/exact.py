"""Exact volume of a bounded polytope via the divergence-theorem recursion.

Applying the divergence theorem to the vector field x on a polytope
{ A x <= b } in dimension n gives

    n * vol(P) = sum_i  (b_i / |a_i|) * vol_{n-1}(P  intersect  {a_i x = b_i})

with signed distances, so the identity holds wherever the origin sits.  Each
facet measure is a lower-dimensional polytope volume after substituting out
one variable.  The recursion runs down to edges: a planar body takes the
identity once more, with each edge measured as an interval along its line,
and a 1-D body is one such interval.  Faces are built by substitution and
cleaned on a leading face axis, by one routine at every level.  A 3-D body
builds and measures all its faces in one pass: the planar identity takes
that axis too, so planar bodies and the faces of 3-D bodies share one
formula.  The faces go in blocks that hold at most _FACE_BLOCK entries.  No
vertex is ever enumerated.

Bodies of dimension 4 and up are memoized on (rows used as equations,
variables left): Gaussian elimination steps on distinct pivots commute, so
that pair determines the reduced body regardless of the substitution order.
Each key is read in one place: the pair of every face, before the faces
the memo lacks are built together, so a repeated facet costs one lookup;
the canonical key of the rows when a body of dimension 4 or more is
entered, which catches a body reached under a new pair.  Both are stored once the body is done, or
once its emptiness LP finds it empty.  A 3-D body is stored under its pair
alone, and its faces are not memoized.

Every row is scaled so that its largest |a_ij| is exactly 1.0 (x / |x| is
exact in IEEE arithmetic).  A facet pivots on that entry, so the factor
b_i / |a_i,piv| by which the facet's projected volume enters the sum is b_i
itself.

Cleaning a face decides by exact comparisons: a row is constant only when
its coefficients are all exactly 0.0, and violated only when its
right-hand side is then below 0.0; of parallel rows the tightest stays,
the earliest on an exact tie.  Only the direction is read to 12 decimals:
one line can reach a planar face along two substitution paths, as two
rows whose floats differ in the last bits, and the planar identity would
split their edges where that noise puts the crossing.

Each body of dimension 4 and up first checks that it is nonempty with one
feasibility LP on the built-in simplex of ``lp.py``.  The 3-D level and the
planar and 1-D bodies need no LP: every edge lies in its body, so every
edge of an empty body is an empty interval and the body's sum is 0.0.  No
redundancy pruning runs: a redundant row's face is empty or
lower-dimensional, so it adds zero to the sum.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import NumericalError, UnboundedError, check_deadline
from .lp import LpStatus, chebyshev_center, is_flat, lp_optimize
# The recursion's emptiness LP; perfbench traces it under this name as
# exact.linprog.
from .lp import lp_feasible as linprog
from .model import Cmp, Polytope

# Entries one block of the 3-D level may hold: faces x rows while its faces
# are built, faces x rows x rows while they are measured.  A block holds at
# least one face.
_FACE_BLOCK = 2**15


def exact_volume(p: Polytope, deadline: Optional[float] = None) -> float:
    """Exact volume of a bounded polytope (0.0 for bodies without interior).

    Strict and non-strict rows are measure-equivalent here.  The body is
    opened by three checks, in the order ``round_polytope`` uses:

    1. a contradictory body or any equality row: 0.0, no LP runs;
    2. the Chebyshev ball: 0.0 when ``lp.is_flat`` finds its radius rho
       rounding noise against the body's own scale, the rule
       ``round_polytope`` uses; this covers every empty body (rho < 0);
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
    a, b, _, _ = p.split_arrays()
    if is_flat(a, b, *chebyshev_center(p)):
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

    a, b, src, counts = _clean_rows(a[None], b[None])
    if counts[0] == 0:
        return 0.0
    memo: dict = {}
    return _volume_rec(a[0], b[0], tuple(src[0].tolist()), frozenset(), tuple(range(p.n)), memo, deadline)


def _clean_rows(a: np.ndarray, b: np.ndarray):
    """Clean k systems on a leading axis, a (k, m, n) and b (k, m): normalize
    each row by its largest |a_ij|, drop constant rows, and keep one row per
    direction.  Returns (a, b, src, counts): system f keeps counts[f] rows,
    a[f, :counts[f]] and b[f, :counts[f]], taken from its input rows
    src[f, :counts[f]]; copies of its first row pad it to the longest.  A
    violated constant row leaves its system no row.

    A row is constant when its largest |a_ij| is exactly 0.0, and violated
    when its right-hand side is then below 0.0.  Rows share a direction
    when their normalized coefficients agree to 12 decimals, and of those
    exactly one stays, in the place of the first of them: the tightest, or
    the earliest of the rows exactly tied for tightest.  The winner keeps
    its own id: ids name original hyperplanes in the memo, so a merged row
    must not masquerade as the looser plane it displaced."""
    k, m, n = a.shape
    scales = np.abs(a).max(axis=2)
    constant = scales == 0.0
    violated = np.any(constant & (b < 0.0), axis=1)
    # Flat indices of the rows left, in system and then row order.
    idx = np.flatnonzero(~(constant | violated[:, None]))
    rows = a.reshape(-1, n)[idx] / scales.ravel()[idx, None]
    rhs = b.ravel()[idx] / scales.ravel()[idx]
    system = idx // m
    keys = np.round(rows, 12)
    # Sorted by system, direction and right-hand side (stably, so rows tied
    # exactly stay in row order), each run of one system and one direction
    # is a group, and its first row is the winner.
    order = np.lexsort((rhs, *keys.T, system))
    system_s, keys_s = system[order], keys[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (system_s[1:] != system_s[:-1]) | np.any(keys_s[1:] != keys_s[:-1], axis=1)
    starts = np.flatnonzero(new)
    winner = order[starts]
    first = np.minimum.reduceat(order, starts)
    by_first = np.argsort(first)
    winner, at = winner[by_first], system_s[starts[by_first]]

    counts = np.bincount(at, minlength=k)
    width = counts.max(initial=0)
    # pick[f, s]: the row in slot s of system f, its first row past counts[f].
    pick = np.zeros((k, width), dtype=np.intp)
    pick[at, np.arange(len(at)) - (np.cumsum(counts) - counts)[at]] = winner
    pick = np.where(np.arange(width) < counts[:, None], pick, pick[:, :1])
    return rows[pick], rhs[pick], idx[pick] % m, counts


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
    m, n = a.shape
    if n == 1:
        vol = float(_interval_widths(a.T, b[None, :])[0])
    elif n == 2:
        vol = float(_polygon_area(a, b))
    elif n == 3:
        vol = _solid_volume(a, b, deadline)
    else:
        ckey = _canonical_key(a, b)
        hit = memo.get(ckey)
        if hit is not None:
            memo[key] = hit
            return hit
        # Empty bodies short-circuit; the base cases above need no such check.
        if linprog(a, b, np.zeros((0, n)), np.zeros(0)).status is not LpStatus.OPTIMAL:
            memo[key] = memo[ckey] = 0.0
            return 0.0
        faces = [i for i in range(m) if b[i] != 0.0]
        child = {}
        for i in faces:
            piv = int(np.argmax(np.abs(a[i])))
            child[i] = (elim_rows | {ids[i]}, var_ids[:piv] + var_ids[piv + 1 :])
        face_vols = {i: memo.get(child[i]) for i in faces}
        # A face's recursion stores only keys that hold its own row, so no
        # sibling's pair key appears meanwhile: the faces the memo lacks are
        # built up front.
        todo = np.array([i for i in faces if face_vols[i] is None], dtype=np.intp)
        for start, ca, cb, src, counts in _face_blocks(a, b, todo):
            for f, i in enumerate(todo[start : start + len(counts)].tolist()):
                c = counts[f]
                if c == 0:
                    face_vols[i] = 0.0
                else:
                    cids = tuple(ids[r] for r in src[f, :c].tolist())
                    face_vols[i] = _volume_rec(ca[f, :c], cb[f, :c], cids, *child[i], memo, deadline)
        total = 0.0
        for i in faces:
            # |a[i, piv]| == 1.0 (unit-scaled rows): b[i] is the factor.
            total += b[i] * face_vols[i]
        vol = max(total / n, 0.0)
        memo[ckey] = vol

    memo[key] = vol
    return vol


def _solid_volume(a: np.ndarray, b: np.ndarray, deadline: Optional[float]) -> float:
    """Volume of a unit-scaled 3-D body by the facet identity, every face
    measured by the planar identity on a leading face axis, in blocks of
    at most _FACE_BLOCK entries.  Faces through the origin add nothing and
    are skipped, as in the recursion."""
    faces = np.flatnonzero(b != 0.0)
    areas = np.zeros(len(faces))
    for start, a2, b2, _, counts in _face_blocks(a, b, faces):
        check_deadline(deadline)
        # A face left without rows is empty.
        measured = np.flatnonzero(counts)
        per_sub = max(1, _FACE_BLOCK // max(1, a2.shape[1]) ** 2)
        for sub in range(0, len(measured), per_sub):
            sel = measured[sub : sub + per_sub]
            width = counts[sel].max()
            weight = np.where(np.arange(width) < counts[sel, None], b2[sel, :width], 0.0)
            areas[start + sel] = _polygon_area(a2[sel, :width], b2[sel, :width], weight)
    # |a[i, piv]| == 1.0 (unit-scaled rows): b[i] is each face's factor.
    return max(float(b[faces] @ areas) / 3, 0.0)


def _face_blocks(a: np.ndarray, b: np.ndarray, faces: np.ndarray):
    """``_face_rows`` over the faces in blocks of at most _FACE_BLOCK
    faces x rows: (start, a, b, src, counts) per block, start its place in
    faces."""
    per_block = max(1, _FACE_BLOCK // len(b))
    for start in range(0, len(faces), per_block):
        yield (start, *_face_rows(a, b, faces[start : start + per_block]))


def _face_rows(a: np.ndarray, b: np.ndarray, faces: np.ndarray):
    """The rows of the given faces of a unit-scaled body, one face per entry
    of a leading axis, as ``_clean_rows`` returns them.  Each face
    substitutes out the pivot column of its row, the column of the row's
    largest |a_ij|; its own row becomes the constant row 0 <= 0 and leaves
    it."""
    m, n = a.shape
    piv = np.argmax(np.abs(a[faces]), axis=1)
    left = np.arange(n - 1)
    kept = left + (left >= piv[:, None])
    factor = a[:, piv].T / a[faces, piv][:, None]
    a2 = a[:, kept].transpose(1, 0, 2) - factor[:, :, None] * a[faces[:, None], kept][:, None, :]
    b2 = b - factor * b[faces, None]
    return _clean_rows(a2, b2)


def _polygon_area(a: np.ndarray, b: np.ndarray, weight: Optional[np.ndarray] = None) -> np.ndarray:
    """Area of { A x <= b } in the plane by the facet identity taken one
    level down.  Row i's edge is p_i + t d_i over the interval of t the other
    rows allow, with p_i = b_i a_i / |a_i|^2 the foot of its line and
    d_i = (-a_i2, a_i1) along it.  The edge is |a_i| (t_hi - t_lo) long, so
    2 * area = sum_i b_i (t_hi - t_lo).

    Leading axes of a (..., m, 2) and b (..., m) index separate polygons,
    one area each.  ``weight``, b by default, takes the place of b_i in the
    sum: a copy of a row with weight 0 changes nothing, so it can pad a
    polygon to the length of others."""
    x, y = a[..., 0], a[..., 1]
    xi, yi, xj, yj = x[..., :, None], y[..., :, None], x[..., None, :], y[..., None, :]
    # Elementwise products, not a matrix product: a fused multiply-add would
    # leave rounding noise where the exact slope is 0.0 (row i on itself and
    # on its negation).
    slope = xi * yj - yi * xj
    gram = xi * xj + yi * yj
    # Row j's room at p_i is b_j - (a_i . a_j / |a_i|^2) b_i.  The ratio is
    # exactly 1 on row i itself and -1 on its negation, so a row's own room
    # is exactly 0 and a row and its negation see the same room b_i + b_j.
    norm2 = np.diagonal(gram, axis1=-2, axis2=-1)
    room = b[..., None, :] - gram / norm2[..., :, None] * b[..., :, None]
    weight = b if weight is None else weight
    twice = (weight[..., None, :] @ _interval_widths(slope, room)[..., :, None])[..., 0, 0]
    return np.maximum(0.5 * twice, 0.0)


def _interval_widths(slope: np.ndarray, room: np.ndarray) -> np.ndarray:
    """Width of the interval of t with t * slope[..., k, j] <= room[..., k, j]
    for every j, one per k, 0.0 when the interval is empty.  Slopes split
    by exact sign: a positive one bounds t above, a negative one below, and
    a j whose slope is exactly 0.0 bounds nothing, but empties the interval
    when its room is negative."""
    up = slope > 0.0
    down = slope < 0.0
    ratio = np.divide(room, slope, out=np.zeros_like(room), where=up | down)
    hi = ratio.min(axis=-1, where=up, initial=np.inf)
    lo = ratio.max(axis=-1, where=down, initial=-np.inf)
    if not (np.isfinite(hi).all() and np.isfinite(lo).all()):
        raise NumericalError("unbounded face in volume recursion")
    blocked = np.any((room < 0.0) & (slope == 0.0), axis=-1)
    return np.where(blocked, 0.0, np.maximum(hi - lo, 0.0))
