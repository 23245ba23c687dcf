"""Enhanced-DIMACS constraint files: parsing, validation, round-trip."""
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volcount.errors import ParseError
from volcount.model import Cmp, NumericKind
from volcount.volce import parse_volce

from oracles import print_volce

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def f1_text() -> str:
    return (FIXTURES / "f1.vs").read_text()


class TestParseF1:
    def test_counts(self, f1_text):
        f = parse_volce(f1_text)
        assert f.num_bool_vars == 7
        assert len(f.clauses) == 7
        assert f.num_numeric_vars == 2
        assert len(f.atom_map) == 6
        assert f.numeric_kind is NumericKind.INT

    def test_atom_ids_and_independent_var(self, f1_text):
        f = parse_volce(f1_text)
        assert set(f.atom_map) == {1, 3, 4, 5, 6, 7}
        assert f.user_bool_ids == frozenset({2})

    def test_first_atom_canonical(self, f1_text):
        f = parse_volce(f1_text)
        m1 = f.atom_map[1]
        assert m1.coeffs == (1, -1)
        assert m1.op is Cmp.LE and m1.strict
        assert m1.rhs == 0

    def test_ge_atom_negated(self, f1_text):
        # m6 is "1 0 >= 0": canonicalizes to -x1 <= 0
        m6 = parse_volce(f1_text).atom_map[6]
        assert m6.coeffs == (-1, 0)
        assert m6.rhs == 0 and not m6.strict

    def test_clause_literals(self, f1_text):
        f = parse_volce(f1_text)
        assert f.clauses[0] == (1, -3)
        assert f.clauses[1] == (1, -2, 3)
        assert f.clauses[3:] == ((4,), (5,), (6,), (7,))


class TestParseEdges:
    def test_minimal_no_atoms(self):
        f = parse_volce("p cnf v lc 1 1 0 0\n1 0\n")
        assert f.num_bool_vars == 1
        assert f.clauses == ((1,),)
        assert f.atom_map == {}

    def test_comments_and_blank_lines(self):
        f = parse_volce("c hello\n\np cnf v lc 1 1 0 0\nc mid\n1 0\n")
        assert f.clauses == ((1,),)

    def test_m_space_optional(self):
        a = parse_volce("p cnf v lc 1 1 1 1\nm1 1 < 2\n1 0\n")
        b = parse_volce("p cnf v lc 1 1 1 1\nm 1 1 < 2\n1 0\n")
        assert a.atom_map == b.atom_map

    def test_fraction_and_decimal_numbers(self):
        f = parse_volce("p cnf v lc 1 1 1 1\nm1 1/2 <= 0.25\n1 0\n")
        c = f.atom_map[1]
        assert c.coeffs == (2,) and c.rhs == 1

    @pytest.mark.parametrize(
        "text",
        [
            "p cnf v lc 1 1 0\n1 0\n",  # short header
            "p dnf v lc 1 1 0 0\n1 0\n",  # wrong magic
            "p cnf v lc 1 2 0 0\n1 0\n",  # clause count mismatch
            "p cnf v lc 1 1 0 1\n1 0\n",  # missing m-line
            "p cnf v lc 1 1 1 1\nm1 1 1 < 0\n1 0\n",  # wrong coefficient count
            "p cnf v lc 1 1 1 1\nm1 1 ~ 0\n1 0\n",  # bad operator
            "p cnf v lc 2 1 1 2\nm1 1 < 0\nm1 1 < 1\n1 0\n",  # duplicate m-line
            "p cnf v lc 1 1 1 1\nm2 1 < 0\n1 0\n",  # atom var out of range
            "p cnf v lc 1 1 0 0\n1\n",  # missing terminating zero
            "p cnf v lc 1 1 0 0\n1 0 1 0\n",  # interior zero
            "p cnf v lc 1 1 0 0\n2 0\n",  # literal out of range
            "p cnf v lc 1 1 0 0\n1 -1 0\n",  # repeated variable
            "p cnf v lc 1 1 0 0\n1 0\n1 0\n",  # extra clause
            "1 0\n",  # no header
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ParseError):
            parse_volce(text)

    def test_error_mentions_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_volce("c x\np cnf v lc 1 1 1 1\nm1 1 1 < 0\n1 0\n")


class TestPrintRoundTrip:
    def test_f1_round_trip(self, f1_text):
        f = parse_volce(f1_text)
        again = parse_volce(print_volce(f))
        assert again.clauses == f.clauses
        assert again.atom_map == f.atom_map
        assert again.num_bool_vars == f.num_bool_vars
        assert again.num_numeric_vars == f.num_numeric_vars

    def test_print_is_stable(self, f1_text):
        f = parse_volce(f1_text)
        assert print_volce(f) == print_volce(parse_volce(print_volce(f)))


@st.composite
def volce_formulas(draw):
    num_numeric = draw(st.integers(0, 3))
    num_atoms = draw(st.integers(0, 4)) if num_numeric else 0
    num_bools = draw(st.integers(max(1, num_atoms), num_atoms + 3))
    atom_vars = draw(
        st.permutations(range(1, num_bools + 1)).map(lambda p: sorted(p[:num_atoms]))
    )
    lines = []
    for v in atom_vars:
        coeffs = [draw(st.integers(-4, 4)) for _ in range(num_numeric)]
        op = draw(st.sampled_from(["<", "<=", ">", ">=", "="]))
        rhs = draw(st.sampled_from(["3", "-2", "1/2", "0.75", "0"]))
        lines.append(f"m{v} {' '.join(map(str, coeffs))} {op} {rhs}")
    num_clauses = draw(st.integers(1, 5))
    clause_lines = []
    for _ in range(num_clauses):
        size = draw(st.integers(1, min(3, num_bools)))
        chosen = draw(st.permutations(range(1, num_bools + 1)))[:size]
        lits = [v if draw(st.booleans()) else -v for v in chosen]
        clause_lines.append(" ".join(map(str, lits)) + " 0")
    header = f"p cnf v lc {num_bools} {num_clauses} {num_numeric} {num_atoms}"
    return "\n".join([header, *lines, *clause_lines]) + "\n"


@given(volce_formulas())
@settings(max_examples=100, deadline=None)
def test_round_trip_random(text):
    f = parse_volce(text)
    again = parse_volce(print_volce(f))
    assert again.clauses == f.clauses
    assert again.atom_map == f.atom_map
    assert (again.num_bool_vars, again.num_numeric_vars) == (
        f.num_bool_vars,
        f.num_numeric_vars,
    )
