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


def parse_cli(argv: list[str]) -> CliRequest:
    backends: set[Backend] = set()
    word_length = 8
    min_coeff = 40
    max_coeff = 1600
    seed = 0
    timeout: Optional[float] = None
    json = False
    input_path: Optional[str] = None

    for arg in argv:
        if arg == "--help":
            return CliRequest(SolverConfig(), None, show_help=True)
        if arg == "-P":
            backends.add(Backend.ESTIMATE)
        elif arg == "-V":
            backends.add(Backend.EXACT_VOLUME)
        elif arg == "-L":
            backends.add(Backend.INTEGER_COUNT)
        elif arg.startswith("-w="):
            word_length = _int_option(arg[3:], "-w")
        elif arg.startswith("-minc="):
            min_coeff = _int_option(arg[6:], "-minc")
        elif arg.startswith("-maxc="):
            max_coeff = _int_option(arg[6:], "-maxc")
        elif arg.startswith("--seed="):
            seed = _int_option(arg[7:], "--seed")
        elif arg.startswith("--timeout="):
            try:
                timeout = float(arg[10:])
            except ValueError:
                raise UsageError(
                    f"--timeout expects a number, got {arg[10:]!r}"
                ) from None
        elif arg == "--json":
            json = True
        elif arg.startswith("-"):
            raise UsageError(f"unknown option {arg!r}")
        elif input_path is None:
            input_path = arg
        else:
            raise UsageError(f"unexpected extra argument {arg!r}")

    if not backends:
        backends = {Backend.ESTIMATE}
    try:
        config = SolverConfig(
            word_length=word_length,
            min_coeff=min_coeff,
            max_coeff=max_coeff,
            backends=frozenset(backends),
            seed=seed,
            timeout=timeout,
        )
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
