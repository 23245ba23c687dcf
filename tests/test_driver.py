"""Driver orchestration: two-round planning, totals, reports, determinism."""
import json
import math
from pathlib import Path

import pytest

from volcount.driver import (
    load_formula,
    run,
    two_round_sizes,
)
from volcount import estimate as est_mod
from volcount.errors import NumericalError, ParseError
from volcount.model import Backend, Formula, NumericKind, SolverConfig

from oracles import formula_solution_count, ineq

FIXTURES = Path(__file__).parent / "fixtures"
ALL_BACKENDS = frozenset(
    {Backend.ESTIMATE, Backend.EXACT_VOLUME, Backend.INTEGER_COUNT}
)


def bools_formula(num_vars, clauses):
    return Formula(num_vars, tuple(map(tuple, clauses)), {}, 0, NumericKind.INT)


def pin_atoms(atoms, num_numeric):
    """Formula in which every atom takes both polarities (fresh selector per
    atom), so each theory-consistent sign pattern becomes its own bunch."""
    num_atoms = len(atoms)
    clauses = []
    for a in range(1, num_atoms + 1):
        s = num_atoms + a
        clauses.append((a, s))
        clauses.append((-a, -s))
    return Formula(2 * num_atoms, tuple(clauses), atoms, num_numeric, NumericKind.INT)


def slab_formula():
    """One integer variable cut by x <= 1 and x <= 3; with the w=4 box the
    three consistent sign patterns tile [-8, 7] completely (16 integers,
    measure 15)."""
    return pin_atoms({1: ineq([1], 1), 2: ineq([1], 3)}, 1)


class TestTwoRoundSizes:
    SMIN = 100
    SMAX = 1000

    def test_large_shares_are_clamped_to_smax(self):
        sizes = two_round_sizes([10.0, 5.0], self.SMIN, self.SMAX)
        assert sizes == (self.SMAX, self.SMAX)

    def test_share_below_first_round_rate_is_skipped(self):
        small = 10.0 * (self.SMIN / (2.0 * self.SMAX)) * 0.99
        sizes = two_round_sizes([10.0, small], self.SMIN, self.SMAX)
        assert sizes == (self.SMAX, None)

    def test_share_exactly_at_first_round_rate_is_skipped(self):
        boundary = 10.0 * (self.SMIN / (2.0 * self.SMAX))
        sizes = two_round_sizes([10.0, boundary], self.SMIN, self.SMAX)
        assert sizes == (self.SMAX, None)

    def test_single_bunch_gets_smax(self):
        sizes = two_round_sizes([7.0], self.SMIN, self.SMAX)
        assert sizes == (self.SMAX,)

    def test_intermediate_share_rounds_up(self):
        v = 10.0 * (self.SMIN * 1.01) / (2.0 * self.SMAX)
        sizes = two_round_sizes([10.0, v], self.SMIN, self.SMAX)
        expected = math.ceil(2.0 * self.SMAX * v / 10.0)
        assert sizes == (self.SMAX, expected)
        assert self.SMIN < expected <= self.SMAX

    def test_all_zero_volumes_skip_everything(self):
        sizes = two_round_sizes([0.0, 0.0, 0.0], self.SMIN, self.SMAX)
        assert sizes == (None, None, None)

    def test_empty_input(self):
        sizes = two_round_sizes([], self.SMIN, self.SMAX)
        assert sizes == ()


class TestTotals:
    def config(self, **kw):
        kw.setdefault("word_length", 4)
        kw.setdefault("backends", ALL_BACKENDS)
        kw.setdefault("min_coeff", 5)
        kw.setdefault("max_coeff", 20)
        return SolverConfig(**kw)

    def test_slabs_tile_the_box(self):
        formula = slab_formula()
        assert formula_solution_count(formula, -8, 7) == 16
        report = run(self.config(), formula, input_name="slabs")
        assert report.satisfiable
        assert len(report.bunches) == 3
        assert report.totals["integer_count"] == 16
        assert report.totals["exact_volume"] == pytest.approx(15.0, rel=1e-9)
        assert report.totals["estimate"] == pytest.approx(15.0, rel=0.15)
        assert report.frequency == pytest.approx(1.0)

    def test_totals_are_multiplier_weighted_sums_in_bunch_order(self):
        report = run(self.config(), slab_formula())
        for key, total in report.totals.items():
            acc = 0 if key == "integer_count" else 0.0
            for outcome in report.bunches:
                acc += outcome.multiplier * outcome.values[key]
            assert acc == total

    def test_integer_total_is_an_exact_int(self):
        report = run(self.config(), slab_formula())
        total = report.totals["integer_count"]
        assert isinstance(total, int) and not isinstance(total, bool)

    def test_no_numeric_variables_counts_boolean_models(self):
        formula = bools_formula(2, [(1, 2)])
        report = run(self.config(word_length=8), formula)
        assert report.totals["integer_count"] == 3
        assert report.totals["exact_volume"] == pytest.approx(3.0)
        assert report.totals["estimate"] == pytest.approx(3.0)
        assert report.sampling is None
        assert all(outcome.sampling is None for outcome in report.bunches)
        # the implicit domain has a single (empty) point per model
        assert report.frequency == report.totals["integer_count"]

    def test_unsatisfiable_formula(self):
        formula = Formula(1, ((1,), (-1,)), {}, 1, NumericKind.INT)
        report = run(self.config(), formula)
        assert not report.satisfiable
        assert report.bunches == []
        assert report.totals == {
            "estimate": 0.0,
            "exact_volume": 0.0,
            "integer_count": 0,
        }
        assert report.frequency == 0.0
        assert not report.has_backend_error

    def test_f1_fixture_end_to_end(self):
        formula = load_formula(str(FIXTURES / "f1.vs"))
        config = SolverConfig(word_length=0, backends=ALL_BACKENDS, seed=0)
        report = run(config, formula, input_name="f1.vs")
        assert report.totals["exact_volume"] == pytest.approx(0.75, rel=1e-9)
        assert report.totals["integer_count"] == 2
        assert report.totals["estimate"] == pytest.approx(0.75, rel=0.15)
        assert report.frequency is None  # no bounding box, so no cell grid


class TestBackendErrors:
    def test_unbounded_bunches_leave_totals_undefined(self):
        formula = pin_atoms({1: ineq([1], 1)}, 1)
        config = SolverConfig(word_length=0, backends=ALL_BACKENDS)
        report = run(config, formula)
        assert report.satisfiable and len(report.bunches) == 2
        assert report.totals == {
            "estimate": None,
            "exact_volume": None,
            "integer_count": None,
        }
        assert report.has_backend_error
        for outcome in report.bunches:
            assert set(outcome.errors) == {
                "estimate",
                "exact_volume",
                "integer_count",
            }
            assert outcome.values == {}
            assert "unbounded" in outcome.errors["exact_volume"]
        json.loads(report.to_json())  # missing values serialize as null

    def test_one_bad_bunch_spoils_only_the_total(self):
        # a1: x <= 1, a2: -x <= 1; a2 is asserted, a1 takes both polarities
        atoms = {1: ineq([1], 1), 2: ineq([-1], 1)}
        formula = Formula(
            3, ((2,), (1, 3), (-1, -3)), atoms, 1, NumericKind.INT
        )
        config = SolverConfig(word_length=0, backends=ALL_BACKENDS)
        report = run(config, formula)
        assert len(report.bunches) == 2
        good = [o for o in report.bunches if not o.errors]
        bad = [o for o in report.bunches if o.errors]
        assert len(good) == 1 and len(bad) == 1
        assert good[0].values["exact_volume"] == pytest.approx(2.0)
        assert good[0].values["integer_count"] == 3
        assert report.totals == {
            "estimate": None,
            "exact_volume": None,
            "integer_count": None,
        }
        assert report.has_backend_error

    def test_round_two_error_stays_with_its_bunch(self, monkeypatch):
        real = est_mod.estimate_volume

        def fail_round_two(*args, **kwargs):
            if kwargs["stream"] == 1:
                raise NumericalError("walk escaped its phase ball")
            return real(*args, **kwargs)

        monkeypatch.setattr(est_mod, "estimate_volume", fail_round_two)
        config = SolverConfig(
            word_length=4, backends=ALL_BACKENDS, min_coeff=5, max_coeff=20
        )
        report = run(config, slab_formula())
        assert len(report.bunches) == 3
        failed = [o for o in report.bunches if "estimate" in o.errors]
        assert failed
        for outcome in failed:
            assert outcome.errors["estimate"] == "walk escaped its phase ball"
            assert "estimate" not in outcome.values
        assert report.totals["estimate"] is None
        assert report.totals["integer_count"] == 16
        assert report.totals["exact_volume"] == pytest.approx(15.0, rel=1e-9)
        json.loads(report.to_json())


class TestFrequency:
    def test_count_over_cells(self):
        formula = pin_atoms({1: ineq([1], 1)}, 1)
        config = SolverConfig(
            word_length=4, backends=frozenset({Backend.INTEGER_COUNT})
        )
        report = run(config, formula)
        # x <= 1 picks 10 of the 16 cells, x > 1 picks the other 6
        assert report.totals["integer_count"] == 16
        assert report.frequency == pytest.approx(1.0)
        by_count = sorted(o.values["integer_count"] for o in report.bunches)
        assert by_count == [6, 10]

    def test_no_frequency_without_count_backend(self):
        formula = slab_formula()
        config = SolverConfig(
            word_length=4,
            backends=frozenset({Backend.EXACT_VOLUME}),
            min_coeff=5,
            max_coeff=20,
        )
        report = run(config, formula)
        assert report.frequency is None

    def test_no_frequency_without_bounding_box(self):
        atoms = {1: ineq([1], 1), 2: ineq([-1], 1)}
        formula = Formula(2, ((1,), (2,)), atoms, 1, NumericKind.INT)
        config = SolverConfig(
            word_length=0, backends=frozenset({Backend.INTEGER_COUNT})
        )
        report = run(config, formula)
        assert report.totals["integer_count"] == 3
        assert report.frequency is None


class TestDeterminismAndThreads:
    def config(self):
        return SolverConfig(
            word_length=4,
            backends=ALL_BACKENDS,
            min_coeff=5,
            max_coeff=20,
            seed=42,
        )

    def test_rerun_is_byte_identical(self):
        first = run(self.config(), slab_formula(), input_name="slabs").to_json()
        second = run(self.config(), slab_formula(), input_name="slabs").to_json()
        assert first == second


class TestLoadFormula:
    def test_smt2_extension_dispatch(self, tmp_path):
        path = tmp_path / "tiny.smt2"
        path.write_text(
            "(set-logic QF_LRA)\n"
            "(declare-fun x () Real)\n"
            "(assert (<= x 1))\n"
            "(check-sat)\n"
        )
        formula = load_formula(str(path))
        assert formula.numeric_kind is NumericKind.REAL
        assert formula.num_numeric_vars == 1

    def test_other_extensions_parse_as_constraint_files(self, tmp_path):
        path = tmp_path / "tiny.vs"
        path.write_text("p cnf v lc 1 1 1 1\nm1 1 <= 1\n1 0\n")
        formula = load_formula(str(path))
        assert formula.numeric_kind is NumericKind.INT
        assert (formula.num_bool_vars, formula.num_numeric_vars) == (1, 1)

    def test_unreadable_path_raises_parse_error(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            load_formula(str(tmp_path / "missing.vs"))


class TestReports:
    def make_report(self):
        config = SolverConfig(
            word_length=4,
            backends=ALL_BACKENDS,
            min_coeff=5,
            max_coeff=20,
        )
        return run(config, slab_formula(), input_name="slabs")

    def test_json_shape(self):
        report = self.make_report()
        text = report.to_json()
        assert text.endswith("\n")
        obj = json.loads(text)
        assert set(obj) == {
            "input",
            "seed",
            "word_length",
            "backends",
            "num_bool_vars",
            "num_clauses",
            "num_numeric_vars",
            "num_constraints",
            "numeric_kind",
            "satisfiable",
            "num_bunches",
            "bunches",
            "totals",
            "frequency",
            "sampling",
        }
        assert obj["backends"] == ["estimate", "exact_volume", "integer_count"]
        assert obj["num_bunches"] == len(obj["bunches"]) == 3
        assert obj["totals"]["integer_count"] == 16
        assert "wall" not in text  # timing never leaks into the JSON report

    def test_json_bunch_entries(self):
        obj = json.loads(self.make_report().to_json())
        for entry in obj["bunches"]:
            assert set(entry) == {
                "index",
                "multiplier",
                "free_bools",
                "literals",
                "values",
                "errors",
                "sampling",
            }
            assert set(entry["values"]) == {
                "estimate",
                "exact_volume",
                "integer_count",
            }
            assert entry["errors"] == {}
            assert entry["sampling"]["phases"] >= 1

    def test_sampling_summary(self):
        report = self.make_report()
        phases = report.sampling["phases"]
        assert phases == 1  # one numeric variable
        assert report.sampling["smin"] == 5 * phases
        assert report.sampling["smax"] == 20 * phases
        assert 5 <= report.sampling["avg_coefficient"] <= 2 * 20

    def test_text_report_lines(self):
        text = self.make_report().to_text()
        assert "input: slabs" in text
        assert "satisfiable: yes" in text
        assert "bunches: 3" in text
        assert "total integer_count: 16" in text
        assert "solution frequency: 1" in text
        assert "wall time:" in text
        assert "sampling: 1 phases" in text
