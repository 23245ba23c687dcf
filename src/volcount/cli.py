"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 input/parse error, 3 backend error
(some total is undefined), 4 timeout.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional

from .driver import load_formula, run
from .errors import (
    BackendError,
    ParseError,
    TimeoutExceeded,
    UsageError,
)
from .model import Backend, NumericKind, SolverConfig

USAGE = """\
usage: volcount [options] INPUT

Computes the volume (or integer count) of the solution space of a Boolean
combination of linear constraints.  INPUT is a .smt2 file (quantifier-free
linear arithmetic subset) or an enhanced-DIMACS constraint file.

backend selection (default: -P):
  -P            Monte-Carlo volume estimation
  -V            exact volume computation
  -L            integer lattice-point counting (integer inputs only)

options:
  -w=N          word length: numeric variables range over [-2^(N-1), 2^(N-1))
                (default 8; 0 disables the implicit bounding box)
  -minc=N       first-round samples per phase = N * phases (default 40)
  -maxc=N       second-round cap per phase = N * phases (default 1600)
  --seed=N      random seed (default 0)
  --timeout=S   per-run time limit in seconds
  --json        machine-readable report on stdout
  --help        show this message
"""


@dataclass
class CliRequest:
    config: SolverConfig
    input_path: Optional[str]
    show_help: bool = False
    json: bool = False


def _int_option(text: str, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{name} expects an integer, got {text!r}") from None


_INT_OPTIONS = {"-w": "word_length", "-minc": "min_coeff", "-maxc": "max_coeff", "--seed": "seed"}
_BACKENDS = {"-P": Backend.ESTIMATE, "-V": Backend.EXACT_VOLUME, "-L": Backend.INTEGER_COUNT}


def parse_cli(argv: list[str]) -> CliRequest:
    """Read the command line.  Only the options given reach `SolverConfig`,
    which holds every default."""
    options: dict[str, object] = {}
    backends: set[Backend] = set()
    json = False
    input_path: Optional[str] = None

    for arg in argv:
        name, eq, value = arg.partition("=")
        if arg == "--help":
            return CliRequest(SolverConfig(), None, show_help=True)
        if arg in _BACKENDS:
            backends.add(_BACKENDS[arg])
        elif eq and name in _INT_OPTIONS:
            options[_INT_OPTIONS[name]] = _int_option(value, name)
        elif eq and name == "--timeout":
            try:
                options["timeout"] = float(value)
            except ValueError:
                raise UsageError(f"--timeout expects a number, got {value!r}") from None
        elif arg == "--json":
            json = True
        elif arg.startswith("-"):
            raise UsageError(f"unknown option {arg!r}")
        elif input_path is None:
            input_path = arg
        else:
            raise UsageError(f"unexpected extra argument {arg!r}")

    if backends:
        options["backends"] = frozenset(backends)
    try:
        config = SolverConfig(**options)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return CliRequest(config, input_path, json=json)


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        request = parse_cli(argv)
        if request.show_help:
            sys.stdout.write(USAGE)
            return 0
        if request.input_path is None:
            raise UsageError("no input file given (see --help)")
        formula = load_formula(request.input_path)
        if (
            Backend.INTEGER_COUNT in request.config.backends
            and formula.numeric_kind is not NumericKind.INT
        ):
            raise UsageError(
                "-L requires integer variables; the input declares reals"
            )
        report = run(request.config, formula, input_name=request.input_path)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    except TimeoutExceeded as exc:
        sys.stderr.write(f"timeout: {exc}\n")
        return 4
    except BackendError as exc:
        sys.stderr.write(f"backend error: {exc}\n")
        return 3

    if request.json:
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.to_text())
    return 3 if report.has_backend_error else 0


if __name__ == "__main__":
    sys.exit(main())
