"""Exact integer-point counting for conjunctions of linear constraints.

The core works on integer rows ``a . x <= b`` (strict and equality rows are
rewritten exactly up front) and integer disequalities ``a . x != b``, with
a finite integer interval for every variable.  It alternates four exact
reductions:

* interval propagation to a fixpoint — single-variable rows pin or tighten a
  variable exactly; rows satisfied over the whole current box drop out;
* connected-component split — variables not linked by any remaining row or
  disequality contribute independent factors that multiply;
* symbolic summation of a component with no disequalities and only
  difference rows ``g x_i - g x_j <= b`` (read as ``x_i - x_j <= floor(b /
  g)``): variables are eliminated one at a time, splitting into cases on
  which lower and which upper bound binds, and each is summed out of a
  polynomial weight with Faulhaber's formulas (Pugh, "Counting solutions to
  Presburger formulas", PLDI 1994).  The case conditions are difference
  rows again, so the weight stays a polynomial; the work depends on the
  rows, not on the widths of the intervals, and the arithmetic is exact
  integer and rational;
* branching on the narrowest variable, for every other component.  The
  intervals are set once, at the root: exactly where rows bound a variable
  through ends already set, from the LP relaxation of the input for the
  ends left open.

Each component's count is cached on its rows, disequalities and variable
intervals, in one memo per ``count_integer_points`` call, so a subproblem
reached along several branches is counted once.  ``_count_core`` looks each
component up once, before it goes to either counter, and stores the count
there; blocks no row touches are counted directly, without the memo.

Disequalities are resolved lazily.  Pinned and branched values are
substituted into them as into rows; one that can no longer be met (its gcd
does not divide its right-hand side, or its range over the current box
misses it) drops out, and one that is met by every point fails the branch.
A disequality left with one variable is a hole in that variable's
interval: a hole at an endpoint tightens the interval, a hole inside it is
skipped when the variable is branched on, and a block with no rows counts
its width minus its holes.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .errors import SummationError, UnboundedError, check_deadline
from . import lp
from .model import Cmp, LinearConstraint, Polytope


def count_integer_points(
    p: Polytope,
    deferred_neqs: Sequence[LinearConstraint] = (),
    deadline: Optional[float] = None,
) -> int:
    """Number of integer points satisfying every row of ``p`` and every
    disequality in ``deferred_neqs``.

    Rows and disequalities are scaled to integers and handed to the
    propagate / split / branch core together; disequalities are never
    expanded into equality sub-problems.  Component counts are cached for
    the duration of this call only.

    The count is 0 when some variable's integer range is empty; otherwise
    UnboundedError is raised when the LP relaxation is unbounded, even if
    the body holds no integer point (with an unbounded relaxation it holds
    none or infinitely many: Meyer, Math. Programming 1974).  So callers
    must box the variables unless the constraints bound them all.
    """
    if p.contradictory:
        return 0
    if p.n == 0:
        return 1

    rows: list[tuple[dict, int]] = []
    for row in p.rows:
        coeffs, rhs = _integer_row(row.coeffs, row.rhs)
        if row.strict:
            # On integer rows, a . x < b is a . x <= b - 1.
            rhs -= 1
        rows.append((coeffs, rhs))
        if row.op is Cmp.EQ:
            rows.append(({v: -c for v, c in coeffs.items()}, -rhs))

    neqs: list[tuple[dict, int]] = []
    for c in deferred_neqs:
        if c.op is not Cmp.EQ:
            raise ValueError("deferred constraints must be equalities")
        neqs.append(_integer_row(c.coeffs, c.rhs))

    intervals = _root_intervals(p, rows)
    if intervals is None:
        return 0
    return _count_core(rows, intervals, neqs, {}, deadline)


def _root_intervals(p: Polytope, rows) -> Optional[dict]:
    """A finite integer interval for every variable of ``p``, whose integer
    rows are ``rows``; None when some interval is empty.

    Each pass fills the open ends that a row bounds through ends already
    filled, the least value of the rest of ``a . x <= b`` giving a floor or
    ceiling for ``x_v``; the tightest bound of a pass wins, so no order of
    rows or variables matters.  Every pass but the last fills one of the 2n
    ends or more.  Ends still open after the last pass take
    ``lp.integer_bounds`` on ``p``.  Emptiness wins over unboundedness: an
    unbounded variable raises only once every other range is non-empty.
    """
    ends = [[None, None] for _ in range(p.n)]  # [lo, hi] of each variable
    while True:
        fills: dict = {}
        for coeffs, rhs in rows:
            for v, c in coeffs.items():
                if ends[v][c > 0] is not None:
                    continue
                rest = [(d, ends[u][d < 0]) for u, d in coeffs.items() if u != v]
                if any(end is None for _, end in rest):
                    continue
                q = rhs - sum(d * end for d, end in rest)
                value = q // c if c > 0 else -(-q // c)
                best = fills.get((v, c > 0), value)
                fills[v, c > 0] = min(best, value) if c > 0 else max(best, value)
        if not fills:
            break
        for (v, side), value in fills.items():
            ends[v][side] = value

    intervals = {}
    unbounded = False
    for v, (lo, hi) in enumerate(ends):
        if lo is None or hi is None:
            try:
                bounds = lp.integer_bounds(p, v)
            except UnboundedError:
                unbounded = True
                continue
            if bounds is None:
                return None
            lo = bounds[0] if lo is None else lo
            hi = bounds[1] if hi is None else hi
        if lo > hi:
            return None
        intervals[v] = (lo, hi)
    if unbounded:
        raise UnboundedError("cannot count an infinite set")
    return intervals


def _integer_row(coeffs: Sequence[Fraction], rhs: Fraction) -> tuple[dict, int]:
    """Scale a rational row to integers; the coefficients come back as a
    {variable: nonzero coefficient} dict."""
    denom = math.lcm(rhs.denominator, *(c.denominator for c in coeffs))
    return {j: int(c * denom) for j, c in enumerate(coeffs) if c != 0}, int(rhs * denom)


def _count_core(rows, intervals, neqs, memo, deadline) -> int:
    """Count integer points of ``rows`` and ``neqs`` with variables limited
    to the finite ``intervals``."""
    check_deadline(deadline)
    state = _propagate(rows, intervals, neqs)
    if state is None:
        return 0
    rows, intervals, neqs = state

    if not rows and not neqs:
        return _free_block(intervals, intervals, ())

    total = 1
    for var_group, row_group, neq_group in _components(rows, intervals, neqs):
        if not row_group and all(len(coeffs) == 1 for coeffs, _ in neq_group):
            total *= _free_block(var_group, intervals, neq_group)
            continue
        sub_intervals = {v: intervals[v] for v in var_group}
        key = _key(row_group, neq_group, sub_intervals)
        sub = memo.get(key)
        if sub is None:
            if not neq_group and _is_difference_system(row_group):
                sub = _sum_differences(row_group, sub_intervals, deadline)
            else:
                sub = _branch(row_group, sub_intervals, neq_group, memo, deadline)
            memo[key] = sub
        total *= sub
        if total == 0:
            # Other components cannot rescue a zero factor.
            return 0
    return total


def _free_block(var_group, intervals, holes) -> int:
    """Integer points of a block no row touches: the product of its widths,
    less its holes.  Holes link no variables, so a block with holes has a
    single variable; propagation has already dropped duplicate holes and
    holes outside or at the ends of the interval."""
    count = 1
    for v in var_group:
        lo, hi = intervals[v]
        count *= hi - lo + 1
    return count - len(holes)


def _branch(rows, intervals, neqs, memo, deadline) -> int:
    """Pick the narrowest variable, ground it, recurse."""
    check_deadline(deadline)
    _, var = min((hi - lo, v) for v, (lo, hi) in intervals.items())
    lo, hi = intervals[var]

    # What is left of each row and disequality once ``var`` is fixed; only
    # the right-hand side depends on the value.  The order of the rows is
    # kept, so that equal subproblems reached along different branches get
    # equal cache keys.
    row_plan = [(coeffs, rhs, _without(coeffs, var)) for coeffs, rhs in rows]
    neq_plan = [(coeffs, rhs, _without(coeffs, var)) for coeffs, rhs in neqs]
    sub_intervals = {v: iv for v, iv in intervals.items() if v != var}

    total = 0
    for value in range(lo, hi + 1):
        fixed_rows = _fix(row_plan, var, value, True)
        if fixed_rows is None:
            continue
        fixed_neqs = _fix(neq_plan, var, value, False) if neqs else neqs
        if fixed_neqs is None:
            continue
        total += _count_core(fixed_rows, sub_intervals, fixed_neqs, memo, deadline)
    return total


def _without(coeffs, var):
    """``coeffs`` less ``var``, or None when ``var`` does not occur."""
    if var not in coeffs:
        return None
    return {v: c for v, c in coeffs.items() if v != var}


def _fix(plan, var, value, is_row):
    """Substitute ``var = value`` into planned rows (``a.x <= b``) or
    disequalities (``a.x != b``); None when one of them becomes false."""
    out = []
    for coeffs, rhs, rest in plan:
        if rest is None:
            out.append((coeffs, rhs))
            continue
        rhs -= coeffs[var] * value
        if rest:
            out.append((rest, rhs))
        elif (rhs < 0) if is_row else (rhs == 0):
            return None
    return out


def _key(rows, neqs, intervals) -> tuple:
    """Exact cache key of a component as one flat tuple of ints: the
    numbers of rows and disequalities, each row and disequality as its
    length, its (variable, coefficient) pairs and its right-hand side, then
    each variable with its interval."""
    key = [len(rows), len(neqs)]
    for coeffs, rhs in (*rows, *neqs):
        key.append(len(coeffs))
        for item in coeffs.items():
            key.extend(item)
        key.append(rhs)
    for v, (lo, hi) in intervals.items():
        key.extend((v, lo, hi))
    return tuple(key)


def _is_difference_system(rows) -> bool:
    """Whether a component can be summed symbolically: every row bounds
    one variable or the difference of two (coefficients g and -g)."""
    return all(
        len(coeffs) == 1 or (len(coeffs) == 2 and sum(coeffs.values()) == 0)
        for coeffs, _ in rows
    )


def _sum_differences(rows, intervals, deadline) -> int:
    """Count a bounded difference system by eliminating its variables one
    by one and summing the weight over each in closed form.

    The system is a closed difference-bound matrix over a constant node 0
    and one node per variable: ``bound[a][b]`` is the least c implied for
    ``x_b - x_a <= c``.  A sum that comes out as a non-integer is a fault:
    it raises SummationError and is never rounded.
    """
    variables = list(intervals)
    node = {v: k for k, v in enumerate(variables, start=1)}
    size = len(variables) + 1
    below = [0] + [-intervals[v][0] for v in variables]
    above = [0] + [intervals[v][1] for v in variables]
    # The box alone is already closed; each row is added and closed in turn.
    bound = [[below[a] + above[b] if a != b else 0 for b in range(size)] for a in range(size)]
    edges = []
    for coeffs, rhs in rows:
        head = tail = 0
        for v, c in coeffs.items():
            if c > 0:
                head, g = node[v], c
            else:
                tail, g = node[v], -c
        edges.append((tail, head, rhs // g))
    if not all(_tighten(bound, *edge) for edge in edges):
        return 0
    weight = {(0,) * len(variables): 1}
    total = _eliminate(bound, tuple(range(size)), weight, 1, deadline)
    if total.denominator != 1:
        raise SummationError(f"symbolic summation gave the non-integer count {total}")
    return int(total)


def _eliminate(bound, live, weight, scale, deadline) -> Fraction:
    """Sum the polynomial ``weight / scale`` over the integer points of the
    closed, consistent difference system ``bound``, whose rows and columns
    stand for the nodes in ``live`` (``live[0]`` is the constant node).

    ``weight`` is a {exponent tuple: integer coefficient} dict, with the
    exponent of node k at position k - 1, over the common denominator
    ``scale``.  ``_cheapest_variable`` picks the variable to sum out.  One
    case per pair of its binding bounds (largest lower bound ``low``,
    smallest upper bound ``up``, the earlier bound winning a tie, so that
    the cases partition the points) adds those conditions as difference
    rows; a case whose rows form a negative cycle is empty.  In each case
    the weight is summed over ``[low, up]`` in closed form.  No case needs a
    condition ``low <= up``: the remaining system is the projection of
    ``bound``, so it implies that every lower bound lies below every upper
    bound.
    """
    if len(live) == 1:
        return Fraction(sum(weight.values()), scale)
    x, lower, upper = _cheapest_variable(bound)
    keep = [a for a in range(len(live)) if a != x]
    at = {a: k for k, a in enumerate(keep)}
    reduced = [[bound[a][b] for b in keep] for a in keep]
    rest = tuple(live[a] for a in keep)
    total = Fraction(0)
    for i, low in enumerate(lower):
        for j, up in enumerate(upper):
            check_deadline(deadline)
            case = [row[:] for row in reduced]
            # x >= x_y - bound[x][y] for each lower y, x <= x_y + bound[y][x]
            # for each upper y.
            if not all(
                _tighten(case, at[low], at[y], bound[x][y] - bound[x][low] - (k < i))
                for k, y in enumerate(lower)
                if y != low
            ) or not all(
                _tighten(case, at[y], at[up], bound[y][x] - bound[up][x] - (k < j))
                for k, y in enumerate(upper)
                if y != up
            ):
                continue
            summed, summed_scale = _sum_out(
                weight,
                scale,
                live[x],
                (live[low], -bound[x][low]),
                (live[up], bound[up][x]),
            )
            if summed:
                total += _eliminate(case, rest, summed, summed_scale, deadline)
    return total


def _cheapest_variable(bound):
    """The variable to eliminate next, the one with the fewest pairs of
    binding bounds (the first of equals), with its binding lower and upper
    bound nodes."""
    transposed = [list(column) for column in zip(*bound)]
    best = None
    for x in range(1, len(bound)):
        # x <= x_y + bound[y][x] is -x >= -x_y - transposed[x][y]: upper
        # bounds are the lower bounds of the transposed system.
        lower = _binding_lower_bounds(bound, x)
        upper = _binding_lower_bounds(transposed, x)
        if best is None or len(lower) * len(upper) < len(best[1]) * len(best[2]):
            best = (x, lower, upper)
    return best


def _binding_lower_bounds(bound, x):
    """The nodes y whose lower bound ``x >= x_y - bound[x][y]`` can bind.
    Bound y is dropped when the rest of the system implies it lies at or
    below bound z, which for a closed system means ``bound[x][z] +
    bound[z][y] == bound[x][y]``; of bounds that are always equal, the
    first is kept."""
    from_x = bound[x]
    return [
        y
        for y in range(len(bound))
        if y != x
        and not any(
            z != x
            and z != y
            and from_x[z] + bound[z][y] == from_x[y]
            and (z < y or from_x[y] + bound[y][z] != from_x[z])
            for z in range(len(bound))
        )
    ]


def _tighten(bound, a, b, c) -> bool:
    """Add ``x_b - x_a <= c`` to the closed system ``bound`` in place and
    close it again; False when that makes a negative cycle."""
    if bound[b][a] + c < 0:
        return False
    if c < bound[a][b]:
        row_b = bound[b]
        for row in bound:
            via = row[a] + c
            for k, value in enumerate(row_b):
                if via + value < row[k]:
                    row[k] = via + value
    return True


def _sum_out(weight, scale, var, lower, upper):
    """Sum the polynomial ``weight / scale`` over ``x_var`` from ``lower``
    to ``upper``; returns the result as a new (weight, scale) pair.

    Each end is a (node, offset) pair standing for ``x_node + offset``, node
    0 being the constant 0.  Every power of ``x_var`` becomes a difference
    of Faulhaber polynomials, which is exact for all integer ends with
    ``lower <= upper + 1``, negative ones included.  The coefficients stay
    integers over one common denominator, reduced at the end.
    """
    index = var - 1
    sums = {}
    for e in weight:
        if e[index] not in sums:
            sums[e[index]] = _power_sum(e[index], lower, upper)
    common = math.lcm(*(denom for _, denom in sums.values()))
    out: dict = {}
    for e, coef in weight.items():
        terms, denom = sums[e[index]]
        coef *= common // denom
        for (node, power), c in terms:
            monomial = list(e)
            monomial[index] = 0
            if node:
                monomial[node - 1] += power
            monomial = tuple(monomial)
            out[monomial] = out.get(monomial, 0) + coef * c
    out = {e: c for e, c in out.items() if c}
    scale *= common
    g = math.gcd(scale, *out.values())
    if g > 1:
        out = {e: c // g for e, c in out.items()}
        scale //= g
    return out, scale


def _power_sum(k, lower, upper):
    """Sum of ``t**k`` for t from ``lower`` to ``upper`` (each a (node,
    offset) pair): ``F(x_b + u) - F(x_a + l - 1)`` with F the k-th
    Faulhaber polynomial, as integer ((node, power), coefficient) terms and
    their common denominator; the constant term is ((0, 0), value)."""
    (a, l), (b, u) = lower, upper
    poly, denom = _faulhaber(k)
    terms: dict = {}
    for node, shift, sign in ((b, u, 1), (a, l - 1, -1)):
        if node:
            # Coefficients of F(y + shift) in powers of y, by Horner's rule.
            shifted: list = []
            for c in reversed(poly):
                step = [shift * d for d in shifted] + [0]
                for i, d in enumerate(shifted):
                    step[i + 1] += d
                step[0] += c
                shifted = step
            for power, c in enumerate(shifted):
                term = (node, power) if power else (0, 0)
                terms[term] = terms.get(term, 0) + sign * c
        else:
            value = 0
            for c in reversed(poly):
                value = value * shift + c
            terms[0, 0] = terms.get((0, 0), 0) + sign * value
    return [(term, c) for term, c in terms.items() if c], denom


# (integer coefficients in powers of t, common denominator) of
# 1^k + 2^k + ... + t^k, for k = 0, 1, ...; built on first use.
_FAULHABER: list = []


def _faulhaber(k):
    """Coefficients of the polynomial F_k(t) = 1^k + 2^k + ... + t^k over
    their common denominator, from (t+1)^(k+1) - 1 = sum over i <= k of
    C(k+1, i) F_i(t)."""
    while len(_FAULHABER) <= k:
        j = len(_FAULHABER)
        coeffs = [Fraction(math.comb(j + 1, m)) for m in range(j + 2)]
        coeffs[0] -= 1
        for i in range(j):
            scale = math.comb(j + 1, i)
            prev, denom = _FAULHABER[i]
            for m, c in enumerate(prev):
                coeffs[m] -= Fraction(scale * c, denom)
        coeffs = [c / (j + 1) for c in coeffs]
        denom = math.lcm(*(c.denominator for c in coeffs))
        _FAULHABER.append((tuple(int(c * denom) for c in coeffs), denom))
    return _FAULHABER[k]


def _propagate(rows, intervals, neqs):
    """Exact interval propagation to a fixpoint.

    Rows and disequalities are (coeff dict, rhs) pairs; the dicts are
    shared, never changed.  Returns (active rows, intervals of still-free
    variables, active disequalities) or None when some row, disequality
    or interval is impossible.  Fixed variables are substituted into the
    rows and disequalities and removed.
    """
    ivs = dict(intervals)
    pinned: dict = {}
    while True:
        changed = True
        rounds = 0
        max_rounds = 8 * (len(ivs) + 2)
        while changed and rounds < max_rounds:
            changed = False
            rounds += 1
            next_rows = []
            for coeffs, rhs in rows:
                lo_sum, hi_sum = _range(coeffs, ivs)
                if hi_sum <= rhs:
                    changed = True  # row drops out
                    continue
                if lo_sum > rhs:
                    return None
                for v, c in coeffs.items():
                    lo, hi = ivs[v]
                    # What the row leaves for c * x_v once the rest of it is
                    # at its minimum.
                    bound = rhs - lo_sum + c * (lo if c > 0 else hi)
                    if c > 0 and bound // c < hi:
                        hi = bound // c
                    elif c < 0 and -(-bound // c) > lo:
                        lo = -(-bound // c)
                    else:
                        continue
                    changed = True
                    if lo > hi:
                        return None
                    if lo == hi:
                        pinned[v] = lo
                    ivs[v] = (lo, hi)
                next_rows.append((coeffs, rhs))
            rows = next_rows

            # Substitute pinned variables away.
            if pinned:
                changed = True
                for v in pinned:
                    del ivs[v]
                rows = _substitute(rows, pinned, True)
                if rows is None:
                    return None
                if neqs:
                    neqs = _substitute(neqs, pinned, False)
                    if neqs is None:
                        return None
                pinned = {}

        if not neqs:
            return rows, ivs, neqs
        state = _resolve_neqs(neqs, ivs, pinned)
        if state is None:
            return None
        neqs, tightened = state
        if not tightened:
            return rows, ivs, neqs
        # A hole at an interval end moved the end: propagate the rows again.


def _range(coeffs, ivs):
    """Least and greatest value of ``a . x`` over the box ``ivs``."""
    least = greatest = 0
    for v, c in coeffs.items():
        lo, hi = ivs[v]
        if c > 0:
            least += c * lo
            greatest += c * hi
        else:
            least += c * hi
            greatest += c * lo
    return least, greatest


def _substitute(items, pinned, is_row):
    """Substitute pinned values into rows (``a.x <= b``) or disequalities
    (``a.x != b``), dropping those left without variables; None when one
    of those is false."""
    out = []
    for coeffs, rhs in items:
        inside = [v for v in coeffs if v in pinned]
        if inside:
            rhs = rhs - sum(coeffs[v] * pinned[v] for v in inside)
            coeffs = {v: c for v, c in coeffs.items() if v not in pinned}
            if not coeffs:
                if (rhs < 0) if is_row else (rhs == 0):
                    return None
                continue
        out.append((coeffs, rhs))
    return out


def _resolve_neqs(neqs, ivs, pinned):
    """One pass over the disequalities against the current intervals.

    Drops those no point of the box can violate, turns single-variable ones
    into holes ``({v: 1}, value)`` strictly inside their interval and moves
    interval ends off holes, recording newly fixed variables in ``pinned``.
    Returns (disequalities, whether an interval moved), or None when some
    interval empties or a disequality holds at no point.
    """
    kept = []
    holes: dict = {}
    for coeffs, rhs in neqs:
        if not coeffs:
            if rhs == 0:
                return None
            continue
        if rhs % math.gcd(*coeffs.values()):
            continue  # a.x never reaches rhs on the lattice
        if len(coeffs) == 1:
            ((v, c),) = coeffs.items()
            lo, hi = ivs[v]
            value = rhs // c
            if lo <= value <= hi:
                holes.setdefault(v, set()).add(value)
            continue
        lo_sum, hi_sum = _range(coeffs, ivs)
        if lo_sum <= rhs <= hi_sum:
            kept.append((coeffs, rhs))

    tightened = False
    for v, values in holes.items():
        lo, hi = ivs[v]
        start = (lo, hi)
        while lo in values:
            values.discard(lo)
            lo += 1
        while hi in values:
            values.discard(hi)
            hi -= 1
        if (lo, hi) != start:
            if lo > hi:
                return None
            if lo == hi:
                pinned[v] = lo
            ivs[v] = (lo, hi)
            tightened = True
        kept.extend(({v: 1}, value) for value in sorted(values))
    return kept, tightened


def _components(rows, intervals, neqs):
    """Split variables into groups connected through shared rows and
    disequalities; each group comes with the rows and disequalities
    touching it."""
    parent = {v: v for v in intervals}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for coeffs, _ in rows:
        vs = list(coeffs)
        for v in vs[1:]:
            union(vs[0], v)
    for coeffs, _ in neqs:
        vs = list(coeffs)
        for v in vs[1:]:
            union(vs[0], v)

    groups: dict = {}
    for v in intervals:
        groups.setdefault(find(v), []).append(v)
    row_groups: dict = {r: [] for r in groups}
    for coeffs, rhs in rows:
        row_groups[find(next(iter(coeffs)))].append((coeffs, rhs))
    neq_groups: dict = {r: [] for r in groups} if neqs else None
    for coeffs, rhs in neqs:
        neq_groups[find(next(iter(coeffs)))].append((coeffs, rhs))
    for root, vs in sorted(groups.items()):
        yield sorted(vs), row_groups[root], neq_groups[root] if neqs else ()
