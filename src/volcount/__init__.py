"""volcount: solution-space volume and lattice-point counting for Boolean
combinations of linear arithmetic constraints.

The pipeline enumerates "bunches" (partial Boolean assignments that satisfy
the propositional skeleton and are consistent in the theory), converts each
bunch into a conjunction of linear constraints, and hands the resulting
polytopes to one of three backends: Monte-Carlo volume estimation, exact
volume computation, or integer lattice-point counting.
"""
from .bunches import enumerate_bunches
from .count import count_integer_points
from .driver import RunReport, load_formula, run, two_round_sizes
from .errors import (
    BackendError,
    NumericalError,
    ParseError,
    TimeoutExceeded,
    UnboundedError,
    UsageError,
    VolcountError,
)
from .estimate import estimate_volume, round_polytope
from .exact import exact_volume
from .model import (
    Backend,
    Bunch,
    Cmp,
    Formula,
    LinearConstraint,
    NumericKind,
    Polytope,
    SolverConfig,
    bunch_multiplier,
    bunch_polytope,
    make_polytope,
    normalize_constraint,
)
from .smt2 import parse_smt2
from .volce import parse_volce

__version__ = "0.1.0"

__all__ = [
    "Backend",
    "BackendError",
    "Bunch",
    "Cmp",
    "Formula",
    "LinearConstraint",
    "NumericKind",
    "NumericalError",
    "ParseError",
    "Polytope",
    "RunReport",
    "SolverConfig",
    "TimeoutExceeded",
    "UnboundedError",
    "UsageError",
    "VolcountError",
    "bunch_multiplier",
    "bunch_polytope",
    "count_integer_points",
    "enumerate_bunches",
    "estimate_volume",
    "exact_volume",
    "load_formula",
    "make_polytope",
    "normalize_constraint",
    "parse_smt2",
    "parse_volce",
    "round_polytope",
    "run",
    "two_round_sizes",
    "__version__",
]
