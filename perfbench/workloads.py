"""The benchmark's own inputs: generators, workloads and their references.

Everything a workload feeds the program is built here or read from
``perfbench/fixtures``, so edits under ``tests/`` cannot change a workload.
Formulas are plain data (no volcount types) and reach the program only as
text in the enhanced DIMACS format, which it parses itself.
"""
from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# Where the seed commit is the only source of a value, it is labelled so.
SEED_COMMIT = "recorded at seed commit a352566 (no independent value)"

LP_SCALING_DEFECT = (
    "lp.simplex_max scales each row by max(|a|, |b|); once |b|/|a| >= 2^30 the "
    "scaled coefficient falls below PIVOT_TOL = 1e-9, so enumeration stops at "
    "30 bunches and the total is half the true area"
)


@dataclass(frozen=True)
class BenchFormula:
    """A CNF skeleton plus atoms ``coeffs . x op rhs`` bound to Boolean
    variables; ``op`` is one of ``<``, ``<=``."""

    num_bools: int
    clauses: tuple[tuple[int, ...], ...]
    atoms: dict[int, tuple[tuple[int, ...], str, int]]
    n: int

    def to_volce(self) -> str:
        lines = [f"p cnf v lc {self.num_bools} {len(self.clauses)} {self.n} {len(self.atoms)}"]
        for idx in sorted(self.atoms):
            coeffs, op, rhs = self.atoms[idx]
            lines.append(f"m{idx} {' '.join(str(c) for c in coeffs)} {op} {rhs}")
        lines.extend(" ".join(str(lit) for lit in clause) + " 0" for clause in self.clauses)
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Instance:
    """One operation: a formula, the backend that measures it, and the
    value it must produce.

    ``reference`` may be None for generated instances; the caller then
    computes it with :func:`oracle.model_volume` from ``formula``.
    ``rel_tol`` 0 means the answer must match exactly.
    """

    name: str
    text: str
    suffix: str
    backend: str  # "estimate", "exact_volume" or "integer_count"
    word_length: int
    reference: Optional[float]
    ref_source: str
    rel_tol: float
    seed: int = 0
    bunches: Optional[int] = None
    formula: Optional[BenchFormula] = None
    known_failure: Optional[str] = None

    @property
    def fingerprint(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# generators


def random_instance(seed: int, n: int, num_atoms: int, free_atoms: int, extra_bools: int = 1) -> BenchFormula:
    """A Boolean combination of random halfspaces over an n-cube domain:
    most atoms are asserted by unit clauses, the rest mix with plain Boolean
    variables in a few short clauses.  Draws match the acceptance suite's
    generator draw for draw."""
    rng = np.random.default_rng(seed)
    atoms = {}
    for i in range(1, num_atoms + 1):
        coeffs = np.zeros(n, dtype=int)
        width = int(rng.integers(2, min(4, n) + 1))
        support = rng.choice(n, size=width, replace=False)
        for j in support:
            coeffs[j] = int(rng.integers(1, 3)) * (1 if rng.random() < 0.5 else -1)
        atoms[i] = (tuple(int(c) for c in coeffs), "<=", int(rng.integers(-6, 7)))
    num_bools = num_atoms + extra_bools
    clauses = []
    pinned = num_atoms - free_atoms
    for i in range(1, pinned + 1):
        clauses.append(((1 if rng.random() < 0.7 else -1) * i,))
    pool = list(range(pinned + 1, num_bools + 1))
    for _ in range(3):
        width = min(len(pool), int(rng.integers(2, 4)))
        chosen = rng.choice(pool, size=width, replace=False)
        clauses.append(tuple(int(v) * (1 if rng.random() < 0.5 else -1) for v in chosen))
    return BenchFormula(num_bools, tuple(clauses), atoms, n)


def usable_instance(formula_obj, config, max_bunches: int) -> bool:
    """The acceptance suite's filter: few bunches, one with real interior.

    Takes a parsed volcount formula and config; used by the self-test to
    confirm that the pinned generator seeds below are still accepted.
    """
    from volcount.bunches import enumerate_bunches
    from volcount.lp import chebyshev_center
    from volcount.model import bunch_polytope

    bunches = list(enumerate_bunches(formula_obj, config))
    if not 1 <= len(bunches) <= max_bunches:
        return False
    best = 0.0
    for bunch in bunches:
        polytope, _ = bunch_polytope(bunch, formula_obj, config)
        if not polytope.contradictory:
            best = max(best, chebyshev_center(polytope)[1])
    return best >= 0.3


def slab_family(k: int, width: int = 1024) -> BenchFormula:
    """k bunches whose areas double from one to the next: the rectangle
    [0, 2^(k-1)] x [0, width] split by thresholds x1 < 2^j, each threshold
    forced to take both truth values.  Area 2^(k-1) * width, k bunches."""
    atoms: dict[int, tuple[tuple[int, ...], str, int]] = {}
    for j in range(1, k):
        atoms[j] = ((1, 0), "<", 2**j)
    bounds = k
    atoms[bounds] = ((-1, 0), "<=", 0)
    atoms[bounds + 1] = ((1, 0), "<=", 2 ** (k - 1))
    atoms[bounds + 2] = ((0, -1), "<=", 0)
    atoms[bounds + 3] = ((0, 1), "<=", width)
    clauses: list[tuple[int, ...]] = []
    for j in range(1, k):
        selector = bounds + 3 + j
        clauses.append((j, selector))
        clauses.append((-j, -selector))
    clauses.extend((j,) for j in range(bounds, bounds + 4))
    return BenchFormula(bounds + 3 + k - 1, tuple(clauses), atoms, 2)


def _conjunction(rows: list[tuple[tuple[int, ...], int]], n: int) -> BenchFormula:
    atoms = {i: (coeffs, "<=", rhs) for i, (coeffs, rhs) in enumerate(rows, start=1)}
    return BenchFormula(len(rows), tuple((i,) for i in atoms), atoms, n)


def _unit(n: int, j: int, sign: int = 1) -> tuple[int, ...]:
    return tuple(sign if i == j else 0 for i in range(n))


def cube(n: int) -> BenchFormula:
    """[-1, 1]^n, volume 2^n."""
    return _conjunction([(_unit(n, j, s), 1) for j in range(n) for s in (1, -1)], n)


def simplex(n: int) -> BenchFormula:
    """x >= 0, sum x <= 1, volume 1/n!."""
    return _conjunction([((1,) * n, 1)] + [(_unit(n, j, -1), 0) for j in range(n)], n)


def cross_polytope(n: int) -> BenchFormula:
    """sum |x| <= 1, volume 2^n/n!."""
    return _conjunction([(signs, 1) for signs in itertools.product((-1, 1), repeat=n)], n)


# ---------------------------------------------------------------------------
# instances

# Random-suite members by acceptance-suite index: (index, n, atoms, free
# atoms, bunch cap, accepted attempt).  The generator seed is the suite's
# 1000*index + 7*attempt + n; the filter accepted these attempts at the
# seed commit, and the self-test checks that it still does.  They are the
# cheapest -P member of each dimension, so a -P pass fits one run.
RANDOM_MEMBERS = {4: (5, 4, 8, 2, 8, 0), 5: (7, 5, 8, 2, 8, 0), 6: (14, 6, 7, 2, 6, 1)}
RANDOM_WORD_LENGTH = 4


def random_member(n: int) -> tuple[BenchFormula, int, int]:
    """(formula, suite index, bunch cap) of the pinned member for n."""
    index, dim, atoms, free, cap, attempt = RANDOM_MEMBERS[n]
    return random_instance(1000 * index + 7 * attempt + dim, dim, atoms, free), index, cap


def generated(name, formula, backend, word_length, reference, ref_source, rel_tol, **kw) -> Instance:
    return Instance(name, formula.to_volce(), ".vs", backend, word_length, reference,
                    ref_source, rel_tol, formula=formula, **kw)


def fixture(name, filename, word_length, reference, ref_source) -> Instance:
    text = (FIXTURES / filename).read_text()
    return Instance(name, text, Path(filename).suffix, "integer_count", word_length,
                    reference, ref_source, 0.0)


def _random(n: int, backend: str, rel_tol: float) -> Instance:
    formula, index, _ = random_member(n)
    # The sampler seed is the suite index, as in the acceptance suite.
    return generated(f"rand-n{n}", formula, backend, RANDOM_WORD_LENGTH, None,
                     "vertex enumeration + ConvexHull over every Boolean model",
                     rel_tol, seed=index)


def _slab(k: int, backend: str, rel_tol: float, **kw) -> Instance:
    return generated(f"slab{k}", slab_family(k), backend, 0, float(2 ** (k - 1) * 1024),
                     "analytic 2^(k-1)*1024", rel_tol, bunches=k, **kw)


def _closed(name: str, formula: BenchFormula, volume: float) -> Instance:
    return generated(name, formula, "exact_volume", 0, volume, "closed form", 1e-9, bunches=1)


# Tolerances are the acceptance suite's: estimates 15% on random instances
# and 25% on the slab suite, exact volumes 1e-9 relative, counts exact.
def workloads() -> dict[str, list[Instance]]:
    return {
        "mc-volume": [
            _random(4, "estimate", 0.15),
            _random(5, "estimate", 0.15),
            _random(6, "estimate", 0.15),
            _slab(20, "estimate", 0.25, seed=7),
        ],
        "exact-volume": [
            _random(4, "exact_volume", 1e-9),
            _random(5, "exact_volume", 1e-9),
            _random(6, "exact_volume", 1e-9),
            _closed("cross5", cross_polytope(5), 2.0**5 / math.factorial(5)),
            _closed("cube8", cube(8), 2.0**8),
            _closed("simplex8", simplex(8), 1.0 / math.factorial(8)),
        ],
        "lattice-count": [
            fixture("coloring", "coloring.smt2", 2, 768, "tests/test_acceptance.py"),
            fixture("find_path1", "find_path1.vs", 6, 256257473472, SEED_COMMIT),
            fixture("find_path2", "find_path2.vs", 6, 11487144240, SEED_COMMIT),
            fixture("getop_path1", "getop_path1.smt2", 8, 242, "tests/test_acceptance.py"),
            fixture("getop_path2", "getop_path2.smt2", 8, 8085, "tests/test_acceptance.py"),
        ],
        "many-bunches": [
            _slab(20, "exact_volume", 1e-9),
            _slab(28, "exact_volume", 1e-9),
            _slab(32, "exact_volume", 1e-9, known_failure=LP_SCALING_DEFECT),
        ],
    }


def smoke_workloads() -> dict[str, list[Instance]]:
    """One tiny instance per workload, same backend and reference kind."""
    return {
        "mc-volume": [_slab(4, "estimate", 0.25, seed=7)],
        "exact-volume": [_closed("cube3", cube(3), 8.0)],
        "lattice-count": [fixture("getop_path1", "getop_path1.smt2", 8, 242, "tests/test_acceptance.py")],
        "many-bunches": [_slab(6, "exact_volume", 1e-9)],
    }
