"""Enhanced DIMACS format: CNF clauses plus linear-constraint bindings.

The header line is ``p cnf v lc B C N L`` with the literal tokens ``v`` and
``lc`` followed by four counts: Boolean variables, clauses, numeric
variables, and constraint lines.  A line ``m<i> a1 .. aN op b`` binds Boolean
variable i to the constraint ``a . x op b`` (the space after ``m<i>`` is
optional, op is one of < <= > >= =, and numbers may be integers, decimals,
or fractions like 2/3).  Every other non-comment line is a single
zero-terminated clause.  Comment lines start with ``c``.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import ParseError
from .model import (
    Cmp,
    Formula,
    LinearConstraint,
    NumericKind,
    normalize_constraint,
)

_OPS = {"<": Cmp.LT, "<=": Cmp.LE, ">": Cmp.GT, ">=": Cmp.GE, "=": Cmp.EQ}


def parse_volce(text: str) -> Formula:
    """Parse the enhanced DIMACS format into a Formula.

    Numeric variables are integer-kind: the format exists to describe boxed
    integer problems, and real-valued backends treat the rows identically.
    """
    header: tuple[int, int, int, int] | None = None
    atom_map: dict[int, LinearConstraint] = {}
    clauses: list[tuple[int, ...]] = []

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("c"):
            continue
        where = f"line {line_no}"
        if line.startswith("p"):
            if header is not None:
                raise ParseError(f"{where}: duplicate header")
            header = _parse_header(line, where)
            continue
        if header is None:
            raise ParseError(f"{where}: content before the 'p cnf v lc' header")
        num_bool, _, num_numeric, _ = header
        if line.startswith("m"):
            idx, constraint = _parse_m_line(line, num_numeric, where)
            if not 1 <= idx <= num_bool:
                raise ParseError(f"{where}: constraint index m{idx} out of range")
            if idx in atom_map:
                raise ParseError(f"{where}: duplicate constraint line m{idx}")
            atom_map[idx] = constraint
            continue
        clauses.append(_parse_clause(line, num_bool, where))

    if header is None:
        raise ParseError("missing 'p cnf v lc' header")
    num_bool, num_clauses, num_numeric, num_lacs = header
    if len(clauses) != num_clauses:
        raise ParseError(f"header promises {num_clauses} clauses, found {len(clauses)}")
    if len(atom_map) != num_lacs:
        raise ParseError(f"header promises {num_lacs} constraint lines, found {len(atom_map)}")
    return Formula(
        num_bool_vars=num_bool,
        clauses=tuple(clauses),
        atom_map=atom_map,
        num_numeric_vars=num_numeric,
        numeric_kind=NumericKind.INT,
        var_names=tuple(f"x{j + 1}" for j in range(num_numeric)),
    )


def _parse_header(line: str, where: str) -> tuple[int, int, int, int]:
    tokens = line.split()
    if len(tokens) != 8 or tokens[:4] != ["p", "cnf", "v", "lc"]:
        raise ParseError(f"{where}: header must be 'p cnf v lc B C N L'")
    try:
        counts = [int(t) for t in tokens[4:]]
    except ValueError as exc:
        raise ParseError(f"{where}: non-integer header count") from exc
    if any(c < 0 for c in counts):
        raise ParseError(f"{where}: negative header count")
    return tuple(counts)  # type: ignore[return-value]


def _parse_m_line(line: str, num_numeric: int, where: str) -> tuple[int, LinearConstraint]:
    tokens = line.split()
    first = tokens[0]
    if first == "m":
        if len(tokens) < 2:
            raise ParseError(f"{where}: missing constraint index after 'm'")
        idx_token, rest = tokens[1], tokens[2:]
    else:
        idx_token, rest = first[1:], tokens[1:]
    try:
        idx = int(idx_token)
    except ValueError as exc:
        raise ParseError(f"{where}: bad constraint index {idx_token!r}") from exc
    if len(rest) != num_numeric + 2:
        raise ParseError(
            f"{where}: m-line needs {num_numeric} coefficients, an operator, and a bound"
        )
    op_token = rest[num_numeric]
    op = _OPS.get(op_token)
    if op is None:
        raise ParseError(f"{where}: unknown operator {op_token!r}")
    try:
        coeffs = tuple(Fraction(t) for t in rest[:num_numeric])
        rhs = Fraction(rest[num_numeric + 1])
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{where}: bad number in constraint") from exc
    return idx, normalize_constraint(LinearConstraint(coeffs, op, rhs))


def _parse_clause(line: str, num_bool: int, where: str) -> tuple[int, ...]:
    try:
        values = [int(t) for t in line.split()]
    except ValueError as exc:
        raise ParseError(f"{where}: clause lines must contain integers") from exc
    if not values or values[-1] != 0:
        raise ParseError(f"{where}: clause missing its terminating 0")
    lits = values[:-1]
    if any(v == 0 for v in lits):
        raise ParseError(f"{where}: literal 0 inside a clause")
    seen: set[int] = set()
    for lit in lits:
        var = abs(lit)
        if var > num_bool:
            raise ParseError(f"{where}: literal {lit} exceeds {num_bool} variables")
        if var in seen:
            raise ParseError(f"{where}: variable {var} repeats within a clause")
        seen.add(var)
    return tuple(lits)
