"""Parser for the quantifier-free linear-arithmetic subset of SMT-LIB 2.

Supported: zero-arity declare-fun over Bool/Int/Real, assert, parallel let,
and/or/not/=>/ite (Boolean ite only), chainable =,<,<=,>,>= over numeric
terms, distinct over numeric terms, +, -, * and / with a constant side, and
the commands set-logic / set-info / check-sat / exit (ignored), ``;``
comments and quoted symbols (``|x|`` names the symbol ``x``).  Everything
else is a parse error, as is mixing Int and Real variables in one file.

Comparisons become theory atoms: each syntactically distinct canonical
constraint is assigned one Boolean atom variable, in first-occurrence order
after all declared Booleans.  Boolean structure goes through the shared CNF
converter, so `let`-shared subterms keep their sharing in the clause set.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

from .errors import ParseError
from .model import Cmp, Formula, LinearConstraint, NumericKind, normalize_constraint
from .tseitin import BoolNode, make_and, make_implies, make_not, make_or, tseitin_cnf


class _LinTerm:
    """Affine numeric term: coefficient per variable column plus a constant."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: dict[int, Fraction], const: Fraction):
        self.coeffs = coeffs
        self.const = const

    def __add__(self, other: "_LinTerm") -> "_LinTerm":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + v
        return _LinTerm(out, self.const + other.const)

    def __neg__(self) -> "_LinTerm":
        return _LinTerm({k: -v for k, v in self.coeffs.items()}, -self.const)

    def __sub__(self, other: "_LinTerm") -> "_LinTerm":
        return self + (-other)

    def scaled(self, f: Fraction) -> "_LinTerm":
        return _LinTerm({k: f * v for k, v in self.coeffs.items()}, f * self.const)

    @property
    def is_const(self) -> bool:
        return not self.coeffs


def tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            tokens.append(ch)
            i += 1
        elif ch.isspace():
            i += 1
        elif ch == "|":
            j = text.find("|", i + 1)
            if j < 0:
                raise ParseError("unterminated quoted symbol")
            tokens.append(text[i : j + 1])
            i = j + 1
        elif ch == '"':
            j = i + 1
            while j < n:
                if text[j] == '"':
                    if j + 1 < n and text[j + 1] == '"':
                        j += 2
                        continue
                    break
                j += 1
            if j >= n:
                raise ParseError("unterminated string literal")
            tokens.append(text[i : j + 1])
            i = j + 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "();":
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens


def read_sexprs(tokens: list[str]):
    """Turn a token stream into nested lists."""
    out = []
    stack: list[list] = []
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if not stack:
                raise ParseError("unbalanced ')'")
            done = stack.pop()
            if stack:
                stack[-1].append(done)
            else:
                out.append(done)
        else:
            if stack:
                stack[-1].append(tok)
            else:
                out.append(tok)
    if stack:
        raise ParseError("unbalanced '('")
    return out


_IGNORED = {"set-logic", "set-info", "check-sat", "exit"}
_CMP_OPS = {"=": Cmp.EQ, "<": Cmp.LT, "<=": Cmp.LE, ">": Cmp.GT, ">=": Cmp.GE}


class _Parser:
    def __init__(self) -> None:
        self.bool_vars: dict[str, int] = {}
        self.numeric_vars: dict[str, int] = {}
        self.numeric_names: list[str] = []
        self.numeric_kind: Optional[NumericKind] = None
        self.next_bool = 1
        self.atoms: dict[LinearConstraint, int] = {}
        self.atom_order: list[LinearConstraint] = []
        self.roots: list[BoolNode] = []
        self.saw_assert = False

    # ---- commands ---------------------------------------------------------

    def command(self, sexpr) -> None:
        if not isinstance(sexpr, list) or not sexpr or not isinstance(sexpr[0], str):
            raise ParseError(f"stray token at top level: {sexpr!r}")
        head = sexpr[0]
        if head in _IGNORED:
            return
        if head == "declare-fun":
            self.declare(sexpr)
        elif head == "assert":
            if len(sexpr) != 2:
                raise ParseError("assert takes exactly one term")
            self.saw_assert = True
            node = self.term(sexpr[1], {})
            if isinstance(node, _LinTerm):
                raise ParseError("assert needs a Boolean term")
            self.roots.append(node)
        else:
            raise ParseError(f"unsupported command: {head}")

    def declare(self, sexpr) -> None:
        if len(sexpr) != 4 or not isinstance(sexpr[1], str) or sexpr[2] != []:
            raise ParseError("declare-fun must have shape (declare-fun name () Sort)")
        if self.saw_assert:
            raise ParseError("declarations must precede assertions")
        name, sort = _unquote(sexpr[1]), sexpr[3]
        if name in self.bool_vars or name in self.numeric_vars:
            raise ParseError(f"duplicate declaration of {name}")
        if sort == "Bool":
            self.bool_vars[name] = self.next_bool
            self.next_bool += 1
        elif sort in ("Int", "Real"):
            kind = NumericKind.INT if sort == "Int" else NumericKind.REAL
            if self.numeric_kind is None:
                self.numeric_kind = kind
            elif self.numeric_kind is not kind:
                raise ParseError("cannot mix Int and Real variables")
            self.numeric_vars[name] = len(self.numeric_names)
            self.numeric_names.append(name)
        else:
            raise ParseError(f"unsupported sort: {sort!r}")

    # ---- terms ------------------------------------------------------------

    def term(self, t, env: dict):
        """Build a Boolean node or a _LinTerm from an s-expression."""
        if isinstance(t, str):
            return self.symbol(t, env)
        if not t:
            raise ParseError("empty term")
        head = t[0]
        if not isinstance(head, str):
            raise ParseError(f"malformed application: {head!r}")
        args = t[1:]
        if head == "let":
            return self.let(t, env)
        if head in ("and", "or", "not", "=>", "ite"):
            return self.boolean_op(head, args, env)
        if head in _CMP_OPS or head == "distinct":
            return self.comparison(head, args, env)
        if head in ("+", "-", "*", "/"):
            return self.arithmetic(head, args, env)
        raise ParseError(f"unsupported operator: {head!r}")

    def symbol(self, s: str, env: dict):
        num = _parse_number(s)  # None for every quoted token: |1| is a symbol
        if num is not None and s[0].isdigit():
            return _LinTerm({}, num)
        name = _unquote(s)
        if name in env:
            return env[name]
        if name == "true":
            return True
        if name == "false":
            return False
        if name in self.bool_vars:
            return self.bool_vars[name]
        if name in self.numeric_vars:
            return _LinTerm({self.numeric_vars[name]: Fraction(1)}, Fraction(0))
        if num is not None:
            return _LinTerm({}, num)
        raise ParseError(f"unknown symbol: {s!r}")

    def let(self, t, env: dict):
        if len(t) != 3 or not isinstance(t[1], list):
            raise ParseError("let must have shape (let ((name term) ...) body)")
        new_env = dict(env)
        for binding in t[1]:
            if not (isinstance(binding, list) and len(binding) == 2 and isinstance(binding[0], str)):
                raise ParseError("malformed let binding")
            # Parallel semantics: bindings see the outer environment only.
            new_env[_unquote(binding[0])] = self.term(binding[1], env)
        return self.term(t[2], new_env)

    def boolean_op(self, head: str, args, env: dict):
        nodes = [self.term(a, env) for a in args]
        for node in nodes:
            if isinstance(node, _LinTerm):
                raise ParseError(f"{head} needs Boolean arguments")
        if head == "not":
            if len(nodes) != 1:
                raise ParseError("not takes exactly one argument")
            return make_not(nodes[0])
        if head == "and":
            return make_and(nodes)
        if head == "or":
            return make_or(nodes)
        if head == "=>":
            if len(nodes) < 2:
                raise ParseError("=> takes at least two arguments")
            return make_implies(nodes)
        # ite
        if len(nodes) != 3:
            raise ParseError("ite takes exactly three arguments")
        cond, then_b, else_b = nodes
        return make_or(
            [make_and([cond, then_b]), make_and([make_not(cond), else_b])]
        )

    def comparison(self, head: str, args, env: dict):
        terms = [self.term(a, env) for a in args]
        numeric = [isinstance(x, _LinTerm) for x in terms]
        if not all(numeric):
            if head == "=" or head == "distinct":
                raise ParseError(f"{head} over Boolean terms is not supported")
            raise ParseError(f"{head} needs numeric arguments")
        if len(terms) < 2:
            raise ParseError(f"{head} takes at least two arguments")
        if head == "distinct":
            parts = [
                make_not(self.atom(terms[i], Cmp.EQ, terms[j]))
                for i in range(len(terms))
                for j in range(i + 1, len(terms))
            ]
            return make_and(parts)
        op = _CMP_OPS[head]
        parts = [self.atom(terms[i], op, terms[i + 1]) for i in range(len(terms) - 1)]
        return make_and(parts)

    def atom(self, lhs: _LinTerm, op: Cmp, rhs: _LinTerm) -> BoolNode:
        diff = lhs - rhs
        n = len(self.numeric_names)
        coeffs = tuple(diff.coeffs.get(j, Fraction(0)) for j in range(n))
        raw = LinearConstraint(coeffs, op, -diff.const)
        canon = normalize_constraint(raw)
        if canon.is_tautology:
            return True
        if canon.is_contradiction:
            return False
        var = self.atoms.get(canon)
        if var is None:
            var = self.next_bool
            self.next_bool += 1
            self.atoms[canon] = var
            self.atom_order.append(canon)
        return var

    def arithmetic(self, head: str, args, env: dict) -> _LinTerm:
        terms = [self.term(a, env) for a in args]
        for x in terms:
            if not isinstance(x, _LinTerm):
                raise ParseError(f"{head} needs numeric arguments")
        if head == "+":
            if not terms:
                raise ParseError("+ takes at least one argument")
            out = terms[0]
            for x in terms[1:]:
                out = out + x
            return out
        if head == "-":
            if len(terms) == 1:
                return -terms[0]
            if not terms:
                raise ParseError("- takes at least one argument")
            out = terms[0]
            for x in terms[1:]:
                out = out - x
            return out
        if head == "*":
            if len(terms) < 2:
                raise ParseError("* takes at least two arguments")
            out = terms[0]
            for x in terms[1:]:
                if x.is_const:
                    out = out.scaled(x.const)
                elif out.is_const:
                    out = x.scaled(out.const)
                else:
                    raise ParseError("nonlinear multiplication is not supported")
            return out
        # division by a constant
        if len(terms) != 2:
            raise ParseError("/ takes exactly two arguments")
        num, den = terms
        if not den.is_const:
            raise ParseError("division by a variable is not supported")
        if den.const == 0:
            raise ParseError("division by zero")
        return num.scaled(Fraction(1) / den.const)

    # ---- assembly ----------------------------------------------------------

    def formula(self) -> Formula:
        root = make_and(self.roots)
        num_user = self.next_bool - 1
        clauses, aux_ids = tseitin_cnf(root, num_user)
        atom_map = {var: canon for canon, var in self.atoms.items()}
        return Formula(
            num_bool_vars=num_user + len(aux_ids),
            clauses=tuple(clauses),
            atom_map=atom_map,
            num_numeric_vars=len(self.numeric_names),
            numeric_kind=self.numeric_kind or NumericKind.INT,
            var_names=tuple(self.numeric_names),
            aux_var_ids=frozenset(aux_ids),
        )


def _unquote(symbol: str) -> str:
    """The name a symbol token stands for: ``|x|`` and ``x`` are the same
    symbol (SMT-LIB 2.6, section 3.1).  A simple symbol never starts with a
    digit, so ``1`` is a numeral and only ``|1|`` names the symbol ``1``.
    Bars are stripped only after ``read_sexprs``, so a quoted ``|(|`` is
    never read as a parenthesis."""
    if symbol.startswith("|"):
        return symbol[1:-1]
    if symbol[:1].isdigit():
        raise ParseError(f"not a symbol: {symbol!r}")
    return symbol


def _parse_number(s: str) -> Optional[Fraction]:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        return None


def parse_smt2(text: str) -> Formula:
    """Parse an SMT-LIB 2 script (the supported subset) into a Formula."""
    parser = _Parser()
    try:
        for sexpr in read_sexprs(tokenize(text)):
            parser.command(sexpr)
        return parser.formula()
    except RecursionError:
        raise ParseError("terms nest too deeply") from None
