"""Enumerate the bunches of a formula: disjoint partial Boolean assignments
that jointly cover every theory-consistent model of the CNF skeleton.

The search is a chronological DPLL over all solutions: decide unassigned
variables in ascending index order (trying False first), propagate with
two-watched-literal lists, and on each total assignment consult the linear
arithmetic theory.  Consistent assignments are greedily minimized, emitted
as a bunch, and blocked so the search moves on.

Bunches come out in lexicographic model order (variable 1 most
significant, False before True).  Decisions take the lowest unassigned
variable, False first, so total assignments are met in that order, and
propagation only prunes branches that hold no model of the clauses, so it
cannot change which model comes next: each bunch is the lexicographically
next model of the clauses plus the earlier blocks.  One routine, `_flip`,
does every backtrack: it pops the latest False decision, unwinds to it and
asserts the variable True.  It runs after a conflict, and after a block,
which arrives false, until the block no longer is.

Theory conflicts block an irreducible inconsistent core.  A check whose
rows are all bounds on linearly independent forms (no equalities) is
decided in closed form, in exact rationals and without an LP: such forms
take any values jointly, so the rows are consistent exactly when no upper
bound lies below a lower bound on the same form, and a single such
crossing pair is the only irreducible core (Dutertre & de Moura, CAV
2006).  Every other check runs the feasibility LP, which also returns a
Farkas certificate (the phase-1 duals, see :mod:`volcount.lp`); the
literals whose rows carry a positive multiplier are already inconsistent,
so the core is shrunk by deletion inside that support only, one check per
support literal instead of one per literal.  When the certificate is
missing or its support checks out feasible, deletion runs over every
literal, which is always correct.  The rows of every atom, in both
polarities, and of the word-length box are built once per enumeration.

Disjointness of emitted bunches comes from the blocking clauses: any later
model disagrees with each earlier bunch on at least one pinned literal.
Coverage comes from exhausting the decision tree.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import check_deadline
from .lp import LpStatus, lp_feasible
from .model import (
    Bunch,
    Cmp,
    Formula,
    LinearConstraint,
    SolverConfig,
    box_constraints,
    literal_row,
)

Literal = tuple[int, bool]

# A certificate multiplier counts as positive above this fraction of the
# largest one (multipliers weighted by the largest coefficient of their row).
SUPPORT_TOL = 1e-9


class TheoryRows:
    """Rows of every theory literal and of the word-length box.

    Each atom contributes one row per polarity: an inequality, an equality,
    or nothing (a negated equality, which carves out a measure-zero set and
    is never part of a conflict, or a constant row that always holds).  A
    constant row that never holds becomes ``0 <= -1``.  Strict rows are
    read as their closures.

    Besides the float rows the LP sees, ``bounds`` keeps every nonzero
    inequality row exactly, as a bound on its form (the primitive integer
    coefficient vector whose first nonzero entry is positive): the index of
    the form in ``forms``, whether the bound is an upper one, and its value.
    ``independent`` says whether all of the formula's forms, box included,
    are linearly independent.
    """

    def __init__(self, formula: Formula, config: SolverConfig):
        n = formula.num_numeric_vars
        rows: list[list[float]] = []
        self.rhs: list[float] = []
        self.owner: list[Optional[Literal]] = []  # row -> its literal; None for the box
        self.ub_of: dict[Literal, int] = {}
        self.eq_of: dict[Literal, int] = {}
        self.bounds: list[Optional[tuple[int, bool, Fraction]]] = []  # None: zero row or equality
        form_ids: dict[tuple[int, ...], int] = {}

        def add(constraint: LinearConstraint, owner: Optional[Literal]) -> None:
            self.owner.append(owner)
            rows.append([float(c) for c in constraint.coeffs])
            if constraint.op is Cmp.EQ:
                self.rhs.append(float(constraint.rhs))
                self.bounds.append(None)
            elif constraint.is_zero_row:  # a contradiction: tautologies are skipped
                self.rhs.append(-1.0)
                self.bounds.append(None)
            else:
                self.rhs.append(float(constraint.rhs))
                form, upper, value = _bound_on_form(constraint)
                self.bounds.append((form_ids.setdefault(form, len(form_ids)), upper, value))

        for var in sorted(formula.atom_map):
            for polarity in (False, True):
                constraint = literal_row(formula.atom_map[var], polarity)
                if constraint is None or constraint.is_tautology:
                    continue
                where = self.eq_of if constraint.op is Cmp.EQ else self.ub_of
                where[(var, polarity)] = len(rows)
                add(constraint, (var, polarity))
        box_start = len(rows)
        for constraint in box_constraints(n, config.word_length):
            add(constraint, None)
        self.box = list(range(box_start, len(rows)))
        self.forms = list(form_ids)
        self.independent = _independent(self.forms)
        directions: dict[tuple[float, ...], int] = {}
        self.direction = [directions.setdefault(tuple(row), len(directions)) for row in rows]
        self.a = np.array(rows, dtype=float).reshape(len(rows), n)
        self.b = np.array(self.rhs, dtype=float)
        self.weight = np.abs(self.a).max(axis=1, initial=0.0)
        self.weight[self.weight == 0.0] = 1.0

    def check(self, literals: Sequence[Literal]) -> tuple[bool, Optional[list[Literal]]]:
        """Whether the literals are consistent inside the box.  When they are
        not, also the sorted literals whose rows carry a positive Farkas
        multiplier, or whose rows are a bounds-only check's crossing pair
        (None when the LP gave no certificate).

        Of several inequality rows with the same coefficients only the
        tightest is kept, so the certificate names the binding one.  When no
        equality is involved and the kept rows bound independent forms, the
        answer comes from comparing their exact bounds (`_bounds_check`);
        every other check runs the feasibility LP."""
        tightest: dict[int, int] = {}  # direction -> row, in order of first use
        for r in [self.ub_of[lit] for lit in literals if lit in self.ub_of] + self.box:
            best = tightest.get(self.direction[r])
            if best is None or self.rhs[r] < self.rhs[best]:
                tightest[self.direction[r]] = r
        ub = list(tightest.values())
        eq = [self.eq_of[lit] for lit in literals if lit in self.eq_of]
        if not eq:
            decided = self._bounds_check(ub)
            if decided is not None:
                return decided
        res = lp_feasible(self.a[ub], self.b[ub], self.a[eq], self.b[eq])
        if res.status is LpStatus.OPTIMAL:
            return True, None
        if res.certificate is None:
            return False, None
        rows = ub + eq
        w = np.abs(res.certificate) * self.weight[rows]
        cut = SUPPORT_TOL * float(w.max(initial=0.0))
        owners = (self.owner[r] for r in rows)
        return False, sorted(lit for lit, wi in zip(owners, w) if lit is not None and wi > cut)

    def _bounds_check(self, ub: list[int]) -> Optional[tuple[bool, Optional[list[Literal]]]]:
        """Decide inequality rows that bound linearly independent forms, or
        return None to leave the check to the LP.

        Independent forms take any values jointly, so the closures are
        consistent exactly when no upper bound lies below a lower bound on
        the same form.  Every inconsistent subset then contains such a
        crossing pair, so a single pair is the only irreducible core, and
        the deletion in `theory_check` ends on it as it would after an LP.
        With two or more pairs the core depends on the certificate, so the
        LP decides."""
        uppers: dict[int, list[tuple[Fraction, int]]] = {}  # form -> (value, row)
        lowers: dict[int, list[tuple[Fraction, int]]] = {}
        for r in ub:
            bound = self.bounds[r]
            if bound is None:
                return None
            form, upper, value = bound
            (uppers if upper else lowers).setdefault(form, []).append((value, r))
        if not self.independent and not _independent(
            [self.forms[f] for f in uppers.keys() | lowers.keys()]
        ):
            return None
        crossing = [
            (u, lo)
            for form, ups in uppers.items()
            for low, lo in lowers.get(form, ())
            for up, u in ups
            if up < low
        ]
        if not crossing:
            return True, None
        if len(crossing) > 1:
            return None
        return False, sorted(self.owner[r] for r in crossing[0] if self.owner[r] is not None)


def _bound_on_form(constraint: LinearConstraint) -> tuple[tuple[int, ...], bool, Fraction]:
    """A nonzero canonical inequality row ``a . x <= b`` (integer a) as a
    bound on its form f, the primitive integer vector with a = s·g·f,
    s = ±1, g > 0 and the first nonzero entry of f positive: ``f . x <= b/g``
    when s = 1 (an upper bound) and ``f . x >= -b/g`` when s = -1.  Returns
    (f, upper, bound)."""
    ints = [c.numerator for c in constraint.coeffs]
    sign = 1 if next(c for c in ints if c) > 0 else -1
    g = math.gcd(*ints)
    rhs = constraint.rhs
    return tuple(sign * c // g for c in ints), sign > 0, Fraction(sign * rhs.numerator, rhs.denominator * g)


def _independent(forms: Sequence[tuple[int, ...]]) -> bool:
    """Whether integer vectors are linearly independent: exact elimination,
    each row clearing its first nonzero column from the rows after it, with
    every reduced row divided by its gcd so that entries stay small."""
    if forms and len(forms) > len(forms[0]):
        return False
    rows = [list(f) for f in forms]
    for i, row in enumerate(rows):
        pivot = next((j for j, c in enumerate(row) if c), None)
        if pivot is None:
            return False
        for other in rows[i + 1 :]:
            if other[pivot]:
                p, q = row[pivot], other[pivot]
                other[:] = [p * o - q * r for o, r in zip(other, row)]
                g = math.gcd(*other)
                if g > 1:
                    other[:] = [o // g for o in other]
    return True


def theory_check(literals: Sequence[Literal], rows: TheoryRows) -> Optional[list[Literal]]:
    """Check whether the theory literals are jointly satisfiable inside the
    word-length box.  Returns None when consistent, otherwise an irreducible
    inconsistent core: a sublist of the input that is inconsistent and
    becomes consistent when any one literal is dropped.

    The core comes from deletion over the support that the failed check
    names (the Farkas certificate's, or a bounds-only check's crossing
    pair), after one more check confirms that the support alone is
    inconsistent.  Without a certificate, or with a support that checks out
    consistent, deletion runs over every literal.  Negated equalities carve
    out measure-zero sets; they are never part of a conflict.
    """
    ordered = sorted(literals)
    consistent, support = rows.check(ordered)
    if consistent:
        return None
    candidates = ordered
    if support is not None and (len(support) == len(ordered) or not rows.check(support)[0]):
        candidates = support
    core = list(candidates)
    for lit in candidates:
        trial = [x for x in core if x != lit]
        if not rows.check(trial)[0]:
            core = trial
    return core


def minimize_assignment(
    assignment: dict[int, bool], clauses: Sequence[Sequence[int]]
) -> dict[int, bool]:
    """Greedily drop variables (highest index first) while every clause keeps
    at least one satisfied literal among the still-assigned variables.

    Variables appearing in no clause always drop.  The result is a partial
    assignment all of whose completions satisfy the clauses, assuming the
    input did.
    """
    occ_true: dict[int, list[int]] = {}
    sat_count = [0] * len(clauses)
    for ci, clause in enumerate(clauses):
        for lit in clause:
            var = abs(lit)
            value = assignment.get(var)
            if value is not None and (lit > 0) == value:
                sat_count[ci] += 1
                occ_true.setdefault(var, []).append(ci)

    kept = dict(assignment)
    for var in sorted(assignment, reverse=True):
        pinned = any(sat_count[ci] == 1 for ci in occ_true.get(var, ()))
        if pinned:
            continue
        del kept[var]
        for ci in occ_true.get(var, ()):
            sat_count[ci] -= 1
    return kept


def enumerate_bunches(
    formula: Formula,
    config: SolverConfig,
    deadline: Optional[float] = None,
) -> Iterator[Bunch]:
    """Yield the bunches of a formula in lexicographic model order."""
    yield from _Enumerator(formula, config, deadline).run()


class _Enumerator:
    def __init__(self, formula: Formula, config: SolverConfig, deadline: Optional[float]):
        self.formula = formula
        self.deadline = deadline
        self.nvars = formula.num_bool_vars
        self.clauses: list[list[int]] = []
        self.watches: list[tuple[int, int]] = []  # two watched positions per clause
        self.watch_map: dict[int, list[int]] = {}  # literal -> clause indices watching it
        self.assign: list[Optional[bool]] = [None] * (self.nvars + 1)
        self.trail: list[int] = []  # literals in assignment order
        self.trail_pos: dict[int, int] = {}  # var -> index into trail
        self.decisions: list[tuple[int, int]] = []  # (trail length, var) per False decision
        self.unsat = False
        self.theory = TheoryRows(formula, config)
        for clause in formula.clauses:
            self._install_clause(list(clause))

    # ---- assignment plumbing -------------------------------------------

    def _lit_value(self, lit: int) -> Optional[bool]:
        v = self.assign[abs(lit)]
        if v is None:
            return None
        return v if lit > 0 else not v

    def _set(self, lit: int) -> None:
        var = abs(lit)
        self.assign[var] = lit > 0
        self.trail_pos[var] = len(self.trail)
        self.trail.append(lit)

    def _unwind_to(self, mark: int) -> None:
        while len(self.trail) > mark:
            lit = self.trail.pop()
            var = abs(lit)
            self.assign[var] = None
            del self.trail_pos[var]

    # ---- clause database -----------------------------------------------

    def _install_clause(self, clause: list[int]) -> None:
        """Add a clause, choosing watches that prefer unassigned/true
        literals and, among false ones, the most recently assigned."""
        if not clause:
            self.unsat = True
            return
        ci = len(self.clauses)
        self.clauses.append(clause)
        if len(clause) == 1:
            self.watches.append((0, 0))
            self.watch_map.setdefault(clause[0], []).append(ci)
            return

        def rank(position: int) -> tuple[int, int]:
            lit = clause[position]
            val = self._lit_value(lit)
            if val is None or val:
                return (0, 0)
            return (1, -self.trail_pos[abs(lit)])

        order = sorted(range(len(clause)), key=rank)
        w1, w2 = order[0], order[1]
        self.watches.append((w1, w2))
        self.watch_map.setdefault(clause[w1], []).append(ci)
        self.watch_map.setdefault(clause[w2], []).append(ci)

    # ---- propagation ----------------------------------------------------

    def _propagate(self, queue: list[int]) -> bool:
        """Two-watched-literal unit propagation from the given newly assigned
        literals.  Returns False on conflict."""
        head = 0
        while head < len(queue):
            lit = queue[head]
            head += 1
            falsified = -lit
            watchers = self.watch_map.get(falsified)
            if not watchers:
                continue
            kept: list[int] = []
            for ci in watchers:
                clause = self.clauses[ci]
                w1, w2 = self.watches[ci]
                # A clause is in watch_map[lit] exactly when one of its two
                # watches is lit (installing, moving a watch, a unit and a
                # conflict all keep this), so after the swap clause[w2] is
                # the falsified literal.
                if clause[w1] == falsified:
                    w1, w2 = w2, w1
                first_val = self._lit_value(clause[w1])
                if first_val:
                    kept.append(ci)
                    continue
                moved = False
                for pos in range(len(clause)):
                    if pos == w1 or pos == w2:
                        continue
                    val = self._lit_value(clause[pos])
                    if val is None or val:
                        self.watches[ci] = (w1, pos)
                        self.watch_map.setdefault(clause[pos], []).append(ci)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(ci)
                if first_val is None:
                    self._set(clause[w1])
                    queue.append(clause[w1])
                    self.watches[ci] = (w1, w2)
                else:
                    self.watch_map[falsified] = kept + watchers[watchers.index(ci) + 1 :]
                    return False
            self.watch_map[falsified] = kept
        return True

    # ---- chronological search -------------------------------------------

    def _flip(self) -> bool:
        """Pop the latest False decision, unwind to its mark and assert its
        variable True, repeating while that conflicts.  Returns False when
        no decision is left: the search is exhausted."""
        while self.decisions:
            mark, var = self.decisions.pop()
            self._unwind_to(mark)
            self._set(var)
            if self._propagate([var]):
                return True
        return False

    def run(self) -> Iterator[Bunch]:
        if self.unsat:
            return
        for (lit,) in (c for c in self.formula.clauses if len(c) == 1):
            val = self._lit_value(lit)
            if val is None:
                self._set(lit)
                if not self._propagate([lit]):
                    return
            elif not val:
                return

        while True:
            check_deadline(self.deadline)
            var = next((v for v in range(1, self.nvars + 1) if self.assign[v] is None), None)
            if var is not None:
                self.decisions.append((len(self.trail), var))
                self._set(-var)
                if not self._propagate([-var]) and not self._flip():
                    return
                continue

            # A total assignment: block its theory conflict core, or emit it
            # minimized as a bunch and block that.
            theory_lits = [(v, bool(self.assign[v])) for v in sorted(self.formula.atom_map)]
            blocked = theory_check(theory_lits, self.theory)
            if blocked is None:
                total = {v: bool(self.assign[v]) for v in range(1, self.nvars + 1)}
                partial = minimize_assignment(total, self.clauses)
                free = sum(1 for v in self.formula.user_bool_ids if v not in partial)
                yield Bunch(dict(sorted(partial.items())), free)
                blocked = sorted(partial.items())
            block = [(-v if val else v) for v, val in blocked]
            if not block:
                return  # nothing outside this bunch remains
            # The block arrives false, watching its two latest literals, so
            # the first flip that frees one of them hands it to propagation.
            self._install_clause(block)
            while all(self._lit_value(lit) is False for lit in block):
                if not self._flip():
                    return
