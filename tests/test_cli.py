"""Command-line interface: flag parsing, exit codes, output modes."""
import json
from pathlib import Path

import pytest

from volcount.cli import USAGE, main, parse_cli
from volcount.errors import UsageError
from volcount.model import Backend

FIXTURES = Path(__file__).parent / "fixtures"
F1 = str(FIXTURES / "f1.vs")
F1_SMT = str(FIXTURES / "f1.smt2")


class TestParsing:
    def test_defaults(self):
        request = parse_cli(["input.vs"])
        config = request.config
        assert request.input_path == "input.vs"
        assert not request.show_help
        assert config.backends == frozenset({Backend.ESTIMATE})
        assert config.word_length == 8
        assert (config.min_coeff, config.max_coeff) == (40, 1600)
        assert config.seed == 0
        assert config.timeout is None
        assert not request.json

    def test_every_flag(self):
        request = parse_cli(
            [
                "-P",
                "-V",
                "-L",
                "-w=6",
                "-minc=10",
                "-maxc=100",
                "--seed=9",
                "--timeout=2.5",
                "--json",
                "problem.smt2",
            ]
        )
        config = request.config
        assert config.backends == frozenset(
            {Backend.ESTIMATE, Backend.EXACT_VOLUME, Backend.INTEGER_COUNT}
        )
        assert config.word_length == 6
        assert (config.min_coeff, config.max_coeff) == (10, 100)
        assert config.seed == 9
        assert config.timeout == pytest.approx(2.5)
        assert request.json
        assert request.input_path == "problem.smt2"

    def test_help_short_circuits(self):
        request = parse_cli(["--help"])
        assert request.show_help

    @pytest.mark.parametrize("flag", ["-X", "--burnin=5"])
    def test_unknown_flag(self, flag):
        with pytest.raises(UsageError, match="unknown option"):
            parse_cli([flag, "input.vs"])

    def test_two_input_paths(self):
        with pytest.raises(UsageError, match="unexpected extra argument"):
            parse_cli(["a.vs", "b.vs"])

    @pytest.mark.parametrize(
        "flag", ["-w=abc", "-minc=", "-maxc=1.5", "--seed=x"]
    )
    def test_non_integer_option_values(self, flag):
        with pytest.raises(UsageError, match="expects an integer"):
            parse_cli([flag, "input.vs"])

    def test_bad_timeout(self):
        with pytest.raises(UsageError, match="expects a number"):
            parse_cli(["--timeout=soon", "input.vs"])

    def test_invalid_config_combination(self):
        with pytest.raises(UsageError):
            parse_cli(["-minc=100", "-maxc=10", "input.vs"])
        with pytest.raises(UsageError):
            parse_cli(["-w=70", "input.vs"])


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out == USAGE

    def test_missing_input_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["-Q", F1]) == 1
        assert "unknown option" in capsys.readouterr().err

    def test_count_backend_rejects_reals(self, capsys):
        assert main(["-L", F1_SMT]) == 1
        assert "requires integer variables" in capsys.readouterr().err

    def test_nonexistent_file(self, capsys):
        assert main(["definitely_not_here.vs"]) == 2
        assert "parse error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, content",
        [
            ("bad.vs", b"this is not a constraint file\n"),
            ("latin1.vs", b"p cnf v lc 1 1 1 1\nm1 1 <= 1 \xe9\n1 0\n"),
            (
                "deep.smt2",
                b"(declare-fun x () Real)\n(assert "
                + b"(not " * 3000
                + b"(> x 0)"
                + b")" * 3000
                + b")\n",
            ),
        ],
        ids=["not-volce", "not-utf8", "deep-term"],
    )
    def test_malformed_file(self, tmp_path, capsys, name, content):
        bad = tmp_path / name
        bad.write_bytes(content)
        assert main([str(bad)]) == 2
        assert "parse error:" in capsys.readouterr().err

    def test_backend_error_exit_code(self, tmp_path, capsys):
        unbounded = tmp_path / "halfline.vs"
        unbounded.write_text("p cnf v lc 1 1 1 1\nm1 1 <= 1\n1 0\n")
        assert main(["-V", "-w=0", str(unbounded)]) == 3
        out = capsys.readouterr().out
        assert "total exact_volume: undefined" in out
        assert "unbounded" in out

    def test_timeout_exit_code(self, capsys):
        assert main(["--timeout=0.000001", F1]) == 4
        assert "timeout:" in capsys.readouterr().err

    def test_nan_timeout_is_a_usage_error(self, capsys):
        # NaN compares false with everything, so it would never expire
        assert main(["-L", "--timeout=nan", F1]) == 1
        assert "error: timeout must be positive" in capsys.readouterr().err

    def test_infinite_timeout_means_no_limit(self):
        assert main(["-L", "--timeout=inf", F1]) == 0


_REAL_XY = "(set-logic QF_LRA)\n(declare-fun x () Real)\n(declare-fun y () Real)\n"


class TestBackendAgreement:
    """-P and -V open every bunch with the same checks in the same order: a
    body without interior is 0 under both, bounded or not."""

    @pytest.mark.parametrize(
        "assertion",
        [
            None,  # the getop_path2 fixture: every bunch is flat and unbounded
            "(= x y)",
            "(and (<= (- x y) 0) (>= (- x y) 0))",
            "(and (= x y) (<= 0 x) (<= x 1))",
        ],
        ids=["getop_path2", "equality-unbounded", "flat-unbounded", "equality-bounded"],
    )
    def test_no_interior_is_zero_under_both(self, tmp_path, capsys, assertion):
        path = FIXTURES / "getop_path2.smt2"
        if assertion is not None:
            path = tmp_path / "body.smt2"
            path.write_text(f"{_REAL_XY}(assert {assertion})\n")
        assert main(["-P", "-V", "-w=0", "--json", str(path)]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["totals"] == {"estimate": 0.0, "exact_volume": 0.0}

    @pytest.mark.parametrize(
        "text",
        [
            "(set-logic QF_LRA)\n(declare-fun x () Real)\n(assert (<= x 5))\n",
            # Chebyshev radius about 3.5e-8, below FLATNESS_TOL, yet the slab
            # has interior: -P must not read it as flat.
            f"{_REAL_XY}(assert (and (<= 0 (- x y)) (<= (- x y) 0.0000001)))\n",
        ],
        ids=["half-line", "thin-slab"],
    )
    def test_full_dimensional_unbounded_is_an_error_under_both(self, tmp_path, capsys, text):
        path = tmp_path / "body.smt2"
        path.write_text(text)
        assert main(["-P", "-V", "-w=0", "--json", str(path)]) == 3
        (bunch,) = json.loads(capsys.readouterr().out)["bunches"]
        message = "solution space unbounded in x1"
        assert bunch["errors"] == {"estimate": message, "exact_volume": message}


class TestOutput:
    def test_text_report(self, capsys):
        assert main(["-V", "-L", "-w=0", F1]) == 0
        out = capsys.readouterr().out
        assert "satisfiable: yes" in out
        assert "bunches: 2" in out
        assert "total exact_volume: 0.75" in out
        assert "total integer_count: 2" in out
        assert "wall time:" in out

    def test_json_report(self, capsys):
        assert main(["-V", "-L", "-w=0", "--json", F1]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["input"] == F1
        assert obj["satisfiable"] is True
        assert obj["totals"]["exact_volume"] == pytest.approx(0.75, rel=1e-9)
        assert obj["totals"]["integer_count"] == 2
        assert obj["backends"] == ["exact_volume", "integer_count"]

    def test_json_is_reproducible(self, capsys):
        assert main(["-P", "-w=0", "--seed=3", "--json", F1]) == 0
        first = capsys.readouterr().out
        assert main(["-P", "-w=0", "--seed=3", "--json", F1]) == 0
        assert capsys.readouterr().out == first

    def test_sheared_cube_estimate(self, tmp_path, capsys):
        # S(6, 30) = {|x_j + 30 x_(j+1)| <= 1, |x_6| <= 1} has volume 2^6;
        # an explicit-form rounding ellipsoid loses positive definiteness on it.
        n, k = 6, 30
        lines = [f"p cnf v lc {2 * n} {2 * n} {n} {2 * n}"]
        for j in range(n):
            row = [0] * n
            row[j] = 1
            if j + 1 < n:
                row[j + 1] = k
            for sign in (1, -1):
                lines.append(f"m{len(lines)} " + " ".join(str(sign * c) for c in row) + " <= 1")
        lines += [f"{i} 0" for i in range(1, 2 * n + 1)]
        body = tmp_path / "sheared.vs"
        body.write_text("\n".join(lines) + "\n")
        assert main(["-P", "-w=0", "--json", str(body)]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["totals"]["estimate"] == pytest.approx(64.0, rel=0.15)
