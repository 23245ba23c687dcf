"""Orchestration: enumerate bunches, fan out to backends, aggregate reports.

Totals are weighted by bunch multipliers and summed in bunch-index order, so
rerunning with the same seed reproduces results bit for bit.  The JSON report
deliberately omits wall-clock time (the one nondeterministic quantity); the
text report includes it.

Per-bunch estimator randomness is keyed as (seed xor bunch index, round).
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from . import count as count_mod
from . import estimate as est_mod
from . import exact as exact_mod
from .bunches import enumerate_bunches
from .errors import BackendError, ParseError
from .model import (
    Backend,
    Bunch,
    Formula,
    SolverConfig,
    bunch_multiplier,
    bunch_polytope,
)


def two_round_sizes(
    volumes: Sequence[float], smin: int, smax: int
) -> tuple[Optional[int], ...]:
    """Second-round sample sizes, proportional to first-round volumes.

    A bunch whose proportional share would not beat the first-round size is
    skipped (None) and keeps its first-round value; everything else gets
    between smin (exclusive) and smax (inclusive) samples per phase.
    """
    vmax = max(volumes, default=0.0)
    if vmax <= 0.0:
        return tuple(None for _ in volumes)
    sizes: list[Optional[int]] = []
    for v in volumes:
        raw = 2.0 * smax * (v / vmax)
        if raw <= smin:
            sizes.append(None)
        else:
            sizes.append(min(math.ceil(raw), smax))
    return tuple(sizes)


@dataclass
class BunchOutcome:
    index: int
    multiplier: int
    free_bools: int
    literals: tuple[int, ...]
    values: dict[str, object] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)
    sampling: Optional[dict] = None


@dataclass
class RunReport:
    input_name: str
    config: SolverConfig
    formula: Formula
    satisfiable: bool
    bunches: list[BunchOutcome]
    totals: dict[str, Optional[object]]
    frequency: Optional[float]
    sampling: Optional[dict]
    wall_time: float

    @property
    def has_backend_error(self) -> bool:
        return any(total is None for total in self.totals.values())

    def to_json(self) -> str:
        obj = {
            "input": self.input_name,
            "seed": self.config.seed,
            "word_length": self.config.word_length,
            "backends": sorted(self.totals),
            "num_bool_vars": self.formula.num_bool_vars,
            "num_clauses": len(self.formula.clauses),
            "num_numeric_vars": self.formula.num_numeric_vars,
            "num_constraints": len(self.formula.atom_map),
            "numeric_kind": self.formula.numeric_kind.value,
            "satisfiable": self.satisfiable,
            "num_bunches": len(self.bunches),
            "bunches": [
                {
                    "index": b.index,
                    "multiplier": b.multiplier,
                    "free_bools": b.free_bools,
                    "literals": list(b.literals),
                    "values": {k: b.values.get(k) for k in sorted(self.totals)},
                    "errors": dict(sorted(b.errors.items())),
                    "sampling": b.sampling,
                }
                for b in self.bunches
            ],
            "totals": self.totals,
            "frequency": self.frequency,
            "sampling": self.sampling,
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"

    def to_text(self) -> str:
        f = self.formula
        lines = [
            f"input: {self.input_name}",
            f"boolean variables: {f.num_bool_vars}   clauses: {len(f.clauses)}",
            f"numeric variables: {f.num_numeric_vars} ({f.numeric_kind.value})   "
            f"constraints: {len(f.atom_map)}",
            f"word length: {self.config.word_length}   seed: {self.config.seed}",
            f"satisfiable: {'yes' if self.satisfiable else 'no'}",
            f"bunches: {len(self.bunches)}",
        ]
        for b in self.bunches:
            parts = [f"  bunch {b.index}: multiplier {b.multiplier}"]
            for key in sorted(self.totals):
                if key in b.errors:
                    parts.append(f"{key}: error ({b.errors[key]})")
                elif key in b.values:
                    parts.append(f"{key}: {_fmt(b.values[key])}")
            lines.append("   ".join(parts))
        for key in sorted(self.totals):
            total = self.totals[key]
            shown = "undefined" if total is None else _fmt(total)
            lines.append(f"total {key}: {shown}")
        if self.frequency is not None:
            lines.append(f"solution frequency: {_fmt(self.frequency)}")
        if self.sampling is not None:
            lines.append(
                "sampling: {} phases, {}..{} samples per phase, "
                "average coefficient {:.1f}".format(
                    self.sampling["phases"],
                    self.sampling["smin"],
                    self.sampling["smax"],
                    self.sampling["avg_coefficient"],
                )
            )
        lines.append(f"wall time: {self.wall_time:.3f} s")
        return "\n".join(lines) + "\n"


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def load_formula(path: str) -> Formula:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if path.endswith(".smt2"):
        from .smt2 import parse_smt2

        return parse_smt2(text)
    from .volce import parse_volce

    return parse_volce(text)


def run(config: SolverConfig, formula: Formula, input_name: str = "") -> RunReport:
    started = time.monotonic()
    deadline = started + config.timeout if config.timeout is not None else None

    bunches = list(enumerate_bunches(formula, config, deadline))
    n = formula.num_numeric_vars
    geometry = [bunch_polytope(b, formula, config) for b in bunches]
    outcomes = [
        BunchOutcome(
            index=i,
            multiplier=bunch_multiplier(b),
            free_bools=b.free_user_bool_count,
            literals=tuple(v if val else -v for v, val in sorted(b.assignment.items())),
        )
        for i, b in enumerate(bunches)
    ]

    totals: dict[str, Optional[object]] = {}
    sampling_summary: Optional[dict] = None

    for backend in sorted(config.backends, key=lambda b: b.value):
        key = backend.value
        if backend is Backend.INTEGER_COUNT:
            _run_simple(
                key,
                outcomes,
                geometry,
                lambda item: count_mod.count_integer_points(item[0], item[1], deadline),
            )
        elif backend is Backend.EXACT_VOLUME:
            _run_simple(
                key,
                outcomes,
                geometry,
                lambda item: exact_mod.exact_volume(item[0], deadline),
            )
        else:
            sampling_summary = _run_estimate(config, n, outcomes, geometry, deadline)
        errs = any(key in o.errors for o in outcomes)
        if errs:
            totals[key] = None
        else:
            total = 0 if backend is Backend.INTEGER_COUNT else 0.0
            for o in outcomes:
                total += o.multiplier * o.values[key]
            totals[key] = total

    frequency: Optional[float] = None
    count_total = totals.get("integer_count")
    if count_total is not None and config.word_length > 0:
        cells = (2 ** config.word_length) ** n
        frequency = count_total / cells

    wall = time.monotonic() - started
    return RunReport(
        input_name=input_name,
        config=config,
        formula=formula,
        satisfiable=bool(bunches),
        bunches=outcomes,
        totals=totals,
        frequency=frequency,
        sampling=sampling_summary,
        wall_time=wall,
    )


def _run_simple(key: str, outcomes, geometry, worker: Callable) -> None:
    for outcome, item in zip(outcomes, geometry):
        try:
            outcome.values[key] = worker(item)
        except BackendError as exc:
            outcome.errors[key] = str(exc)


def _run_estimate(config, n, outcomes, geometry, deadline) -> Optional[dict]:
    """Two-round volume estimation across all bunches.

    Round one rounds every body and samples it at the minimum rate (stream
    0).  two_round_sizes then gives each bunch a second-round size in
    proportion to its round-one volume, capped at the maximum rate; a bunch
    with a size is sampled again at that size (stream 1), and that estimate
    replaces its round-one value.  Both rounds of bunch i draw from seed
    ``config.seed ^ i``.  Per-phase sizes are coefficient * number of phases.
    """
    key = Backend.ESTIMATE.value
    if n == 0:
        for outcome in outcomes:
            outcome.values[key] = 1.0
            outcome.sampling = None
        return None
    phases = max(1, math.ceil(n * math.log2(2 * n)))
    smin = config.min_coeff * phases
    smax = config.max_coeff * phases

    first = []
    for i, (outcome, (polytope, _)) in enumerate(zip(outcomes, geometry)):
        rounded, volume, fresh = None, 0.0, 0
        try:
            rounded = est_mod.round_polytope(polytope, deadline)
            if rounded is not None:
                result = est_mod.estimate_volume(
                    rounded, smin, seed=config.seed ^ i, stream=0, deadline=deadline
                )
                volume, fresh = result.volume, result.ledger.fresh_total
        except BackendError as exc:
            outcome.errors[key] = str(exc)
            rounded = None
        first.append((rounded, volume, fresh))
    sizes = two_round_sizes([volume for _, volume, _ in first], smin, smax)

    used_coeffs = []
    for i, (outcome, (rounded, volume, fresh), size) in enumerate(zip(outcomes, first, sizes)):
        if key in outcome.errors:
            continue
        if size is not None:
            try:
                again = est_mod.estimate_volume(
                    rounded, size, seed=config.seed ^ i, stream=1, deadline=deadline
                )
            except BackendError as exc:
                outcome.errors[key] = str(exc)
                continue
            volume = again.volume
            fresh += again.ledger.fresh_total
        outcome.values[key] = volume
        samples1 = 0 if rounded is None else smin
        samples2 = size or 0
        outcome.sampling = {
            "round1": samples1,
            "round2": samples2,
            "fresh": fresh,
            "phases": phases,
        }
        if rounded is not None:
            used_coeffs.append((samples1 + samples2) / phases)

    avg_coeff = sum(used_coeffs) / len(used_coeffs) if used_coeffs else 0.0
    return {
        "phases": phases,
        "smin": smin,
        "smax": smax,
        "avg_coefficient": avg_coeff,
    }
