"""Core domain types: linear constraints, formulas, bunches, polytopes, config.

Coefficients stay exact rationals from parsing through canonicalization.
Numeric backends convert to floats (or machine integers) at their own
boundaries, never earlier.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np


class Cmp(Enum):
    """Comparison operator of a linear constraint."""

    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EQ = "="


class NumericKind(Enum):
    INT = "Int"
    REAL = "Real"


class Backend(Enum):
    ESTIMATE = "estimate"
    EXACT_VOLUME = "exact_volume"
    INTEGER_COUNT = "integer_count"


@dataclass(frozen=True)
class LinearConstraint:
    """A linear constraint ``coeffs . x  op  rhs`` over the numeric variables.

    Canonical form (produced by :func:`normalize_constraint`): ``op`` is LE or
    EQ, ``strict`` distinguishes ``<`` from ``<=``, and all coefficients plus
    the right-hand side are integers with no common factor.
    """

    coeffs: tuple[Fraction, ...]
    op: Cmp
    rhs: Fraction
    strict: bool = False

    @property
    def is_zero_row(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @property
    def is_tautology(self) -> bool:
        """True when the row constrains nothing (all-zero coefficients, holds)."""
        return self.is_zero_row and _zero_row_holds(self.op, self.rhs, self.strict)

    @property
    def is_contradiction(self) -> bool:
        """True when the row can never hold (all-zero coefficients, fails)."""
        return self.is_zero_row and not _zero_row_holds(self.op, self.rhs, self.strict)


def _zero_row_holds(op: Cmp, rhs: Fraction, strict: bool) -> bool:
    if op is Cmp.LT:
        return rhs > 0
    if op is Cmp.LE:
        return rhs > 0 if strict else rhs >= 0
    if op is Cmp.GT:
        return rhs < 0
    if op is Cmp.GE:
        return rhs <= 0
    return rhs == 0


def normalize_constraint(raw: LinearConstraint) -> LinearConstraint:
    """Rewrite a constraint into canonical ``<=`` / ``=`` form.

    GT/GE constraints get both sides negated; the scale factor applied
    afterwards is positive, so no further sign flips happen.  Coefficients and
    the right-hand side are scaled by a common positive rational so that all
    of them are integers whose collective gcd is 1.  Idempotent.
    """
    coeffs = tuple(Fraction(c) for c in raw.coeffs)
    rhs = Fraction(raw.rhs)
    if raw.op in (Cmp.GT, Cmp.GE):
        coeffs = tuple(-c for c in coeffs)
        rhs = -rhs
        op = Cmp.LE
        strict = raw.op is Cmp.GT
    elif raw.op in (Cmp.LT, Cmp.LE):
        op = Cmp.LE
        strict = raw.op is Cmp.LT or raw.strict
    else:
        op = Cmp.EQ
        strict = False

    denom_lcm = math.lcm(rhs.denominator, *(c.denominator for c in coeffs)) if coeffs else rhs.denominator
    ints = [int(c * denom_lcm) for c in coeffs]
    rhs_int = int(rhs * denom_lcm)
    g = math.gcd(rhs_int, *ints) if ints else abs(rhs_int)
    if g > 1:
        ints = [i // g for i in ints]
        rhs_int //= g
    return LinearConstraint(tuple(Fraction(i) for i in ints), op, Fraction(rhs_int), strict)


@dataclass(frozen=True)
class Formula:
    """A CNF skeleton over Boolean variables plus the theory-atom bindings.

    Boolean variables are numbered from 1.  ``atom_map`` sends the subset of
    them that stand for linear constraints to their canonical constraint;
    ``aux_var_ids`` marks CNF-conversion auxiliaries.  The remaining variables
    are plain user Booleans.
    """

    num_bool_vars: int
    clauses: tuple[tuple[int, ...], ...]
    atom_map: Mapping[int, LinearConstraint]
    num_numeric_vars: int
    numeric_kind: NumericKind
    var_names: tuple[str, ...] = ()
    aux_var_ids: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        nb = self.num_bool_vars
        for clause in self.clauses:
            seen = set()
            for lit in clause:
                v = abs(lit)
                if lit == 0 or v > nb:
                    raise ValueError(f"literal {lit} out of range for {nb} variables")
                if v in seen:
                    raise ValueError(f"variable {v} repeats within a clause")
                seen.add(v)
        for v, c in self.atom_map.items():
            if not 1 <= v <= nb:
                raise ValueError(f"atom variable {v} out of range")
            if len(c.coeffs) != self.num_numeric_vars:
                raise ValueError("atom coefficient count != numeric dimension")
        if self.aux_var_ids & set(self.atom_map):
            raise ValueError("a variable cannot be both an atom and an auxiliary")

    @property
    def user_bool_ids(self) -> frozenset[int]:
        return frozenset(range(1, self.num_bool_vars + 1)) - set(self.atom_map) - self.aux_var_ids


@dataclass(frozen=True)
class Bunch:
    """A partial Boolean assignment whose completions all satisfy the CNF.

    ``free_user_bool_count`` is the number of *user* Booleans (not theory
    atoms, not auxiliaries) that the assignment leaves open; it drives the
    bunch multiplier.
    """

    assignment: Mapping[int, bool]
    free_user_bool_count: int


def bunch_multiplier(bunch: Bunch) -> int:
    """Number of Boolean completions a bunch stands for: 2**free user bools."""
    return 1 << bunch.free_user_bool_count


def _float_arrays(rows: Sequence[LinearConstraint], n: int) -> tuple[np.ndarray, np.ndarray]:
    a = np.array([[float(c) for c in row.coeffs] for row in rows], dtype=float)
    return a.reshape(len(rows), n), np.array([float(row.rhs) for row in rows], dtype=float)


@dataclass(frozen=True)
class Polytope:
    """A conjunction of canonical linear constraints over ``n`` numeric
    variables.

    Each row is a :class:`LinearConstraint` whose ``op`` is LE (with
    ``strict`` telling ``<`` from ``<=``) or EQ; the rows that
    :func:`make_polytope` keeps are canonical.  ``contradictory`` marks
    polytopes recognized as empty during construction (a constant row that
    fails, or two equalities with the same coefficients and different
    right-hand sides); backends short-circuit on it.
    """

    rows: tuple[LinearConstraint, ...]
    n: int
    contradictory: bool = False

    def split_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Float (A_ub, b_ub, A_eq, b_eq) keeping equality rows as equalities;
        strict rows are read as their closures."""
        ub = [row for row in self.rows if row.op is not Cmp.EQ]
        eq = [row for row in self.rows if row.op is Cmp.EQ]
        return (*_float_arrays(ub, self.n), *_float_arrays(eq, self.n))


def make_polytope(constraints: Iterable[LinearConstraint], n: int) -> Polytope:
    """Assemble a polytope from canonical constraints, which become its rows.

    Tautologies are dropped.  Of parallel duplicates (same coefficients)
    only the tightest survives: among LE rows the smaller right-hand side,
    and on a tie the strict row; equal equalities collapse into one.  A
    constant row that fails, or two equalities with the same coefficients
    and different right-hand sides, mark the result contradictory.  Rows
    keep the order of first appearance.
    """
    contradictory = False
    best_le: dict[tuple[Fraction, ...], LinearConstraint] = {}
    eq_rows: dict[tuple[Fraction, ...], LinearConstraint] = {}
    order: list[tuple[dict, tuple[Fraction, ...]]] = []
    for c in constraints:
        if c.is_tautology:
            continue
        if c.is_contradiction:
            contradictory = True
            continue
        kept = eq_rows if c.op is Cmp.EQ else best_le
        prev = kept.get(c.coeffs)
        if prev is None:
            kept[c.coeffs] = c
            order.append((kept, c.coeffs))
        elif c.op is Cmp.EQ:
            contradictory |= c.rhs != prev.rhs
        elif c.rhs < prev.rhs or (c.rhs == prev.rhs and c.strict and not prev.strict):
            kept[c.coeffs] = c
    return Polytope(tuple(kept[coeffs] for kept, coeffs in order), n, contradictory)


def literal_row(constraint: LinearConstraint, polarity: bool) -> Optional[LinearConstraint]:
    """The polytope row of one theory literal: the constraint itself when
    the literal is positive, and its complement ``-a . x (<|<=) -b`` (strict
    flipped) when it is a negated inequality.

    Returns None for a negated equality: it removes a measure-zero set, so
    the caller defers the constraint, which only matters to counting.  The
    input must be canonical; the output is canonical too (negating coprime
    integers keeps them coprime integers).
    """
    if polarity:
        return constraint
    if constraint.op is Cmp.EQ:
        return None
    return LinearConstraint(
        tuple(-c for c in constraint.coeffs),
        Cmp.LE,
        -constraint.rhs,
        strict=not constraint.strict,
    )


def box_constraints(n: int, word_length: int) -> list[LinearConstraint]:
    """Two's-complement style bounding box -2**(w-1) <= x_j <= 2**(w-1)-1,
    as canonical rows ``x_j <= hi`` and ``-x_j <= -lo`` for each variable in
    turn; empty when the word length is 0."""
    if word_length <= 0:
        return []
    lo = -(1 << (word_length - 1))
    hi = (1 << (word_length - 1)) - 1
    out: list[LinearConstraint] = []
    for j in range(n):
        unit = tuple(Fraction(int(i == j)) for i in range(n))
        neg = tuple(-u for u in unit)
        out.append(LinearConstraint(unit, Cmp.LE, Fraction(hi)))
        out.append(LinearConstraint(neg, Cmp.LE, Fraction(-lo)))
    return out


def bunch_polytope(
    bunch: Bunch, formula: Formula, config: "SolverConfig"
) -> tuple[Polytope, list[LinearConstraint]]:
    """Geometric region of a bunch: rows from its theory literals plus the
    word-length box, along with the deferred disequalities.

    Adding literals to a bunch can only shrink the region (monotonicity):
    every literal contributes either a row or a deferred disequality and
    nothing is ever dropped besides exact duplicates and tautologies.
    """
    n = formula.num_numeric_vars
    rows: list[LinearConstraint] = []
    deferred: list[LinearConstraint] = []
    for var in sorted(bunch.assignment):
        constraint = formula.atom_map.get(var)
        if constraint is None:
            continue
        row = literal_row(constraint, bunch.assignment[var])
        if row is None:
            deferred.append(constraint)
        else:
            rows.append(row)
    rows.extend(box_constraints(n, config.word_length))
    return make_polytope(rows, n), deferred


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters shared by the driver and the backends."""

    word_length: int = 8
    min_coeff: int = 40
    max_coeff: int = 1600
    backends: frozenset[Backend] = frozenset({Backend.ESTIMATE})
    seed: int = 0
    timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0 <= self.word_length <= 62:
            raise ValueError("word length must be within 0..62")
        if self.min_coeff < 1 or self.max_coeff < self.min_coeff:
            raise ValueError("need 1 <= min_coeff <= max_coeff")
        if self.timeout is not None and not self.timeout > 0:
            raise ValueError("timeout must be positive")
