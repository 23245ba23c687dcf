"""Bunch enumeration: cover, disjointness, minimality, theory pruning."""
import dataclasses
import itertools
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volcount import bunches as bunches_mod
from volcount.bunches import TheoryRows, enumerate_bunches, minimize_assignment, theory_check
from volcount.lp import LpStatus, lp_feasible
from volcount.model import (
    Bunch,
    Cmp,
    Formula,
    NumericKind,
    SolverConfig,
    box_constraints,
    bunch_multiplier,
    bunch_polytope,
    literal_row,
    make_polytope,
)
from volcount.volce import parse_volce

from oracles import clause_true, ineq, lex_bunches, lp_theory_check, skeleton_models, threshold_slab

FIXTURES = Path(__file__).parent / "fixtures"
CFG = SolverConfig(word_length=3)


def bools_formula(num_vars, clauses):
    return Formula(num_vars, tuple(map(tuple, clauses)), {}, 0, NumericKind.INT)


class TestF1Shape:
    def test_two_bunches(self):
        f = parse_volce((FIXTURES / "f1.vs").read_text())
        bunches = list(enumerate_bunches(f, SolverConfig(word_length=0)))
        assert len(bunches) == 2
        as_lits = [
            tuple(v if val else -v for v, val in sorted(b.assignment.items()))
            for b in bunches
        ]
        assert as_lits[0] == (-1, -2, -3, 4, 5, 6, 7)
        assert as_lits[1] == (1, 3, 4, 5, 6, 7)
        assert [bunch_multiplier(b) for b in bunches] == [1, 2]
        assert [b.free_user_bool_count for b in bunches] == [0, 1]


class TestPureBoolean:
    def test_unsat_skeleton(self):
        f = bools_formula(1, [(1,), (-1,)])
        assert list(enumerate_bunches(f, CFG)) == []

    def test_single_tautology_like(self):
        f = bools_formula(2, [(1, 2)])
        bunches = list(enumerate_bunches(f, CFG))
        models = list(skeleton_models(f))
        assert sum(bunch_multiplier(b) for b in bunches) == len(models) == 3

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_cover_and_disjoint_vs_brute_force(self, data):
        num_vars = data.draw(st.integers(1, 12))
        num_clauses = data.draw(st.integers(1, 8))
        clauses = []
        for _ in range(num_clauses):
            width = data.draw(st.integers(1, min(3, num_vars)))
            chosen = data.draw(st.permutations(range(1, num_vars + 1)))[:width]
            clauses.append(tuple(v if data.draw(st.booleans()) else -v for v in chosen))
        f = bools_formula(num_vars, clauses)
        bunches = list(enumerate_bunches(f, CFG))

        covered_total = 0
        for model in skeleton_models(f):
            hits = [
                b
                for b in bunches
                if all(model[v] == val for v, val in b.assignment.items())
            ]
            assert len(hits) == 1  # cover and pairwise disjointness
            covered_total += 1
        assert sum(bunch_multiplier(b) for b in bunches) == covered_total

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_bunches_satisfy_all_clauses_on_their_own(self, data):
        num_vars = data.draw(st.integers(2, 8))
        clauses = []
        for _ in range(data.draw(st.integers(1, 6))):
            width = data.draw(st.integers(1, 3))
            chosen = data.draw(st.permutations(range(1, num_vars + 1)))[:width]
            clauses.append(tuple(v if data.draw(st.booleans()) else -v for v in chosen))
        f = bools_formula(num_vars, clauses)
        for b in enumerate_bunches(f, CFG):
            # every clause owns a true literal within the partial alone
            for clause in f.clauses:
                assert any(
                    b.assignment.get(abs(l)) == (l > 0)
                    for l in clause
                    if abs(l) in b.assignment
                )


class TestMinimize:
    def test_drops_redundant_descending(self):
        clauses = ((1, 2),)
        full = {1: True, 2: True}
        partial = minimize_assignment(full, clauses)
        # descending scan drops 2 first, then 1 is pinned
        assert partial == {1: True}

    def test_keeps_only_pinned(self):
        clauses = ((1, 2), (-1, 3))
        full = {1: True, 2: False, 3: True}
        partial = minimize_assignment(full, clauses)
        assert partial == {1: True, 3: True}

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_minimization_fixpoint_and_sound(self, data):
        num_vars = data.draw(st.integers(1, 8))
        clauses = []
        for _ in range(data.draw(st.integers(1, 6))):
            width = data.draw(st.integers(1, 3))
            chosen = data.draw(st.permutations(range(1, num_vars + 1)))[:width]
            clauses.append(tuple(v if data.draw(st.booleans()) else -v for v in chosen))
        bits = [data.draw(st.booleans()) for _ in range(num_vars)]
        full = {v: bits[v - 1] for v in range(1, num_vars + 1)}
        if not all(clause_true(c, full) for c in clauses):
            return
        partial = minimize_assignment(full, tuple(clauses))
        # sound: the partial still satisfies every clause
        for clause in clauses:
            assert any(partial.get(abs(l)) == (l > 0) for l in clause if abs(l) in partial)
        # fixpoint: minimizing again changes nothing
        assert minimize_assignment(dict(partial), tuple(clauses)) == partial


def pin_atoms(atoms, num_numeric):
    """Formula in which every atom takes both polarities: each atom variable a
    gets a fresh selector s with clauses (a or s) and (not a or not s)."""
    num_atoms = len(atoms)
    clauses = []
    for a in range(1, num_atoms + 1):
        s = num_atoms + a
        clauses.append((a, s))
        clauses.append((-a, -s))
    return Formula(2 * num_atoms, tuple(clauses), atoms, num_numeric, NumericKind.INT)


class TestTheory:
    def make_formula(self):
        atoms = {
            1: ineq([1], 1),   # x <= 1
            2: ineq([1], 3),   # x <= 3
        }
        return pin_atoms(atoms, 1)

    def test_consistent_assignment_passes(self):
        f = self.make_formula()
        assert theory_check([(1, True), (2, True)], TheoryRows(f, CFG)) is None

    def test_conflict_core_is_small(self):
        f = self.make_formula()
        # x <= 1 and not (x <= 3) is impossible
        core = theory_check([(1, True), (2, False)], TheoryRows(f, CFG))
        assert core is not None
        assert set(core) == {(1, True), (2, False)}

    def test_core_excludes_irrelevant_literals(self):
        atoms = {
            1: ineq([1, 0], 1),
            2: ineq([1, 0], 3),
            3: ineq([0, 1], 0),
        }
        f = Formula(3, ((1,), (2,), (3,)), atoms, 2, NumericKind.INT)
        core = theory_check([(1, True), (2, False), (3, True)], TheoryRows(f, CFG))
        assert core is not None
        assert (3, True) not in core

    def test_theory_pruning_end_to_end(self):
        # slabs from two threshold atoms; selectors force both polarities
        atoms = {1: ineq([1], 1), 2: ineq([1], 3)}
        f = pin_atoms(atoms, 1)
        bunches = list(enumerate_bunches(f, CFG))
        regions = set()
        for b in bunches:
            poly, _ = bunch_polytope(b, f, CFG)
            assert lp_feasible(*poly.split_arrays()).status is LpStatus.OPTIMAL
            regions.add((b.assignment[1], b.assignment[2]))
        # x<=1<=3: TT; 1<x<=3: FT; x>3: FF; TF impossible
        assert len(bunches) == 3
        assert regions == {(True, True), (False, True), (False, False)}


def closure_feasible(literals, formula, config):
    """Independent check with HiGHS: is the closure of the literals' rows
    plus the word-length box nonempty?"""
    from scipy.optimize import linprog

    items = []
    for var, value in literals:
        row = literal_row(formula.atom_map[var], value)
        if row is not None:
            items.append(row)
    items.extend(box_constraints(formula.num_numeric_vars, config.word_length))
    p = make_polytope(items, formula.num_numeric_vars)
    if p.contradictory:
        return False
    a_ub, b_ub, a_eq, b_eq = p.split_arrays()
    n = p.n
    res = linprog(
        np.zeros(n),
        A_ub=a_ub if len(b_ub) else None,
        b_ub=b_ub if len(b_ub) else None,
        A_eq=a_eq if len(b_eq) else None,
        b_eq=b_eq if len(b_eq) else None,
        bounds=[(None, None)] * n,
        method="highs",
    )
    return res.status == 0


def random_atoms(data, n, count):
    atoms = {}
    for var in range(1, count + 1):
        coeffs = [data.draw(st.integers(-3, 3)) for _ in range(n)]
        op = data.draw(st.sampled_from([Cmp.LE, Cmp.LT, Cmp.EQ]))
        atoms[var] = ineq(coeffs, data.draw(st.integers(-4, 4)), op)
    return atoms


class TestConflictCores:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_cores_are_irreducible(self, data):
        n = data.draw(st.integers(1, 3))
        count = data.draw(st.integers(2, 7))
        f = pin_atoms(random_atoms(data, n, count), n)
        literals = [(v, data.draw(st.booleans())) for v in range(1, count + 1)]
        core = theory_check(literals, TheoryRows(f, CFG))
        if core is None:
            assert closure_feasible(literals, f, CFG)
            return
        assert set(core) <= set(literals)
        assert not closure_feasible(core, f, CFG)
        for lit in core:
            assert closure_feasible([x for x in core if x != lit], f, CFG)

    def test_bogus_certificate_falls_back_to_plain_deletion(self, monkeypatch):
        atoms = {1: ineq([1, 0], 1), 2: ineq([1, 0], 3), 3: ineq([0, 1], 0), 4: ineq([1, 1], 2)}
        f = pin_atoms(atoms, 2)
        rows = TheoryRows(f, CFG)
        literals = [(1, True), (2, False), (3, True), (4, False)]

        def plain_deletion(lits):
            core = sorted(lits)
            for lit in sorted(lits):
                trial = [x for x in core if x != lit]
                if not rows.check(trial)[0]:
                    core = trial
            return core

        want = plain_deletion(literals)
        real = bunches_mod.lp_feasible

        def bogus(a_ub, b_ub, a_eq, b_eq):
            res = real(a_ub, b_ub, a_eq, b_eq)
            if res.certificate is None:
                return res
            # all weight on the first row: a support that is consistent alone
            fake = np.zeros_like(res.certificate)
            fake[0] = 1.0
            return dataclasses.replace(res, certificate=fake)

        monkeypatch.setattr(bunches_mod, "lp_feasible", bogus)
        assert theory_check(literals, rows) == want
        monkeypatch.setattr(
            bunches_mod, "lp_feasible",
            lambda *arrays: dataclasses.replace(real(*arrays), certificate=None),
        )
        assert theory_check(literals, rows) == want

    def test_threshold_slab_enumeration_stays_within_lp_budget(self, monkeypatch):
        # Deletion over every literal took 4,124 LPs here and deletion over
        # the Farkas support 704; every check only bounds x1 and x2, so the
        # bounds decide it without an LP.
        calls = count_lps(monkeypatch)
        bunches = list(enumerate_bunches(threshold_slab(20), SolverConfig(word_length=0)))
        assert len(bunches) == 20
        assert len(calls) == 0


class TestLexOrder:
    """Each bunch is the lexicographically next model of the clauses plus
    the earlier blocks; the `-P` sampler seeds on the bunch index."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_order(self, data):
        num_vars = data.draw(st.integers(1, 9))
        n = data.draw(st.integers(1, 2))
        atoms = random_atoms(data, n, data.draw(st.integers(0, min(4, num_vars))))
        clauses = []
        for _ in range(data.draw(st.integers(0, 12))):
            width = data.draw(st.integers(1, min(3, num_vars)))
            chosen = data.draw(st.permutations(range(1, num_vars + 1)))[:width]
            clauses.append(tuple(v if data.draw(st.booleans()) else -v for v in chosen))
        f = Formula(num_vars, tuple(clauses), atoms, n, NumericKind.INT)
        config = SolverConfig(word_length=data.draw(st.sampled_from([0, 2, 3])))
        assert list(enumerate_bunches(f, config)) == lex_bunches(f, config)


def count_lps(monkeypatch):
    """Patch the theory LP to record each call; returns the record."""
    calls = []
    real = bunches_mod.lp_feasible

    def counted(*arrays):
        calls.append(1)
        return real(*arrays)

    monkeypatch.setattr(bunches_mod, "lp_feasible", counted)
    return calls


def bound_atoms(data, n, count):
    """Mostly axis bounds, some scaled (``2x <= 3`` beside ``x <= 1``) and
    some on two variables, with ``<=``, ``<`` and ``=``."""
    atoms = {}
    for var in range(1, count + 1):
        coeffs = [0] * n
        j = data.draw(st.integers(0, n - 1))
        coeffs[j] = data.draw(st.sampled_from([1, -1, 1, -1, 2, -2, 3]))
        if n > 1 and data.draw(st.integers(0, 4)) == 0:
            coeffs[(j + 1) % n] = data.draw(st.sampled_from([1, -1, 2]))
        op = data.draw(st.sampled_from([Cmp.LE, Cmp.LE, Cmp.LT, Cmp.EQ]))
        atoms[var] = ineq(coeffs, data.draw(st.integers(-5, 5)), op)
    return atoms


class TestBoundChecks:
    """Checks whose rows bound independent forms are decided without an LP,
    and give the LP path's answers."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_lp_reference(self, data):
        n = data.draw(st.integers(1, 3))
        count = data.draw(st.integers(2, 7))
        config = SolverConfig(word_length=data.draw(st.sampled_from([0, 2, 3])))
        rows = TheoryRows(pin_atoms(bound_atoms(data, n, count), n), config)
        literals = [(v, data.draw(st.booleans())) for v in range(1, count + 1)]
        assert theory_check(literals, rows) == lp_theory_check(literals, rows)

    def test_literal_crossing_only_the_box(self, monkeypatch):
        calls = count_lps(monkeypatch)
        rows = TheoryRows(pin_atoms({1: ineq([1], -10), 2: ineq([1], 3)}, 1), CFG)
        assert theory_check([(1, True), (2, True)], rows) == [(1, True)]
        assert calls == []

    def test_two_crossing_forms_go_to_the_lp(self, monkeypatch):
        atoms = {1: ineq([1, 0], -1), 2: ineq([-1, 0], -1), 3: ineq([0, 1], -1), 4: ineq([0, -1], -1)}
        rows = TheoryRows(pin_atoms(atoms, 2), SolverConfig(word_length=0))
        literals = [(v, True) for v in atoms]
        want = lp_theory_check(literals, rows)
        calls = count_lps(monkeypatch)
        assert rows.check(literals)[0] is False
        assert len(calls) == 1
        assert theory_check(literals, rows) == want

    def test_two_crossing_pairs_on_one_form_go_to_the_lp(self, monkeypatch):
        # x <= 1 and 2x <= 3 both cross x >= 2
        atoms = {1: ineq([1], 1), 2: ineq([2], 3), 3: ineq([-1], -2)}
        rows = TheoryRows(pin_atoms(atoms, 1), SolverConfig(word_length=0))
        literals = [(v, True) for v in atoms]
        want = lp_theory_check(literals, rows)
        calls = count_lps(monkeypatch)
        assert rows.check(literals)[0] is False
        assert len(calls) == 1
        assert theory_check(literals, rows) == want

    def test_crossing_below_the_lp_tolerance_is_a_conflict(self, monkeypatch):
        # 10^9 x <= 10^9 - 1 against x >= 1: the bounds cross by 1e-9
        atoms = {1: ineq([10**9], 10**9 - 1), 2: ineq([-1], -1)}
        rows = TheoryRows(pin_atoms(atoms, 1), SolverConfig(word_length=0))
        calls = count_lps(monkeypatch)
        assert theory_check([(1, True), (2, True)], rows) == [(1, True), (2, True)]
        assert theory_check([(1, True), (2, False)], rows) is None
        assert calls == []

    def test_equality_literal_goes_to_the_lp(self, monkeypatch):
        atoms = {1: ineq([1], 1, Cmp.EQ), 2: ineq([1], 0)}
        rows = TheoryRows(pin_atoms(atoms, 1), CFG)
        calls = count_lps(monkeypatch)
        assert theory_check([(1, True), (2, True)], rows) == [(1, True), (2, True)]
        assert calls

    def test_independence_is_tested_per_check_when_the_formula_lacks_it(self, monkeypatch):
        # x, y and x + y: dependent as a whole, any two of them independent
        atoms = {1: ineq([1, 0], 0), 2: ineq([-1, 0], -1), 3: ineq([0, 1], 0), 4: ineq([1, 1], 5)}
        rows = TheoryRows(pin_atoms(atoms, 2), SolverConfig(word_length=0))
        assert not rows.independent
        calls = count_lps(monkeypatch)
        assert rows.check([(1, True), (2, True), (3, True)]) == (False, [(1, True), (2, True)])
        assert calls == []
        assert rows.check([(1, True), (3, True), (4, True)]) == (True, None)
        assert len(calls) == 1


class TestAuxAndMultipliers:
    def test_aux_vars_do_not_multiply(self):
        from volcount.smt2 import parse_smt2

        text = (
            "(declare-fun x () Int)"
            "(declare-fun b () Bool)"
            "(assert (or (and b (< x 0)) (and (not b) (> x 0))))"
        )
        f = parse_smt2(text)
        assert f.aux_var_ids
        for b in enumerate_bunches(f, CFG):
            free_all = [
                v
                for v in range(1, f.num_bool_vars + 1)
                if v not in b.assignment
            ]
            free_aux = [v for v in free_all if v in f.aux_var_ids]
            free_user = [v for v in free_all if v in f.user_bool_ids]
            assert b.free_user_bool_count == len(free_user)
            assert not set(free_aux) & set(b.assignment)

    def test_determinism(self):
        f = parse_volce((FIXTURES / "f1.vs").read_text())
        a = [
            (tuple(sorted(b.assignment.items())), b.free_user_bool_count)
            for b in enumerate_bunches(f, CFG)
        ]
        b = [
            (tuple(sorted(x.assignment.items())), x.free_user_bool_count)
            for x in enumerate_bunches(f, CFG)
        ]
        assert a == b
