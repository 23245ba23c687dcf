"""Monte-Carlo volume estimation: ellipsoid rounding + multiphase sampling.

The pipeline per polytope is:

1. round_polytope: shrink a shallow-cut ellipsoid around the body until its
   scaled-down copy fits inside, then map the body into a coordinate frame
   where it contains the unit ball and sits inside a ball of radius 2n.  The
   ellipsoid is kept as a center and a factor L (shape = L L^T), so it stays
   positive definite by construction.
2. estimate_volume: walk a telescoping sequence of ball intersections from
   the outermost inwards, reusing stored points across phases, and multiply
   the per-phase ratio estimates into a volume figure.

The walk is coordinate-direction hit-and-run with O(m) slack updates, run as
CHAINS chains that advance in lock step on a (chains, m) slack matrix, so
each lock step costs a fixed number of numpy calls whatever the number of
chains.  All chains start at the origin; in the outermost phase the first
WARMUP_PER_DIM * n lock steps are discarded, and afterwards one point per
chain is stored every STRIDE-th lock step.  When a phase shrinks the ball,
chains left outside restart from stored points inside it.  One-dimensional
bodies are intervals and are measured exactly.

Randomness comes from a counter-based Philox generator so that a (seed,
stream) pair fully determines every draw, independent of scheduling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import BackendError, NumericalError, UnboundedError, check_deadline
from .lp import FLATNESS_TOL, LpStatus, chebyshev_center, lp_optimize
from .model import Cmp, Polytope

_MASK64 = (1 << 64) - 1


def shallow_cut_update(
    center: np.ndarray, factor: np.ndarray, a: np.ndarray, cut_level: float
) -> tuple[np.ndarray, np.ndarray]:
    """One shallow-cut step on the ellipsoid {center + factor u : |u| <= 1}:
    the smallest ellipsoid containing its part on the side
    ``a . x <= a . center + cut_level * |factor^T a|``, as (center, factor).

    ``cut_level`` is the fraction beta in [0, 1/n); beta = 0 is the classic
    central cut.  The update is rank one on the factor (Goldfarb & Todd,
    1982), so a nonsingular factor stays nonsingular.  Requires dimension
    >= 2.
    """
    n = center.shape[0]
    if n < 2:
        raise ValueError("shallow-cut update needs dimension >= 2")
    w = a @ factor
    u = w / np.linalg.norm(w)
    g = factor @ u
    beta = cut_level
    gamma = (1.0 - n * beta) / (n + 1.0)
    # shape - tau g g^T = factor (I - tau u u^T) factor^T, and
    # (I - sigma u u^T)^2 = I - tau u u^T; tau < 1 for every n >= 2, beta < 1/n.
    sigma = 1.0 - math.sqrt(1.0 - 2.0 * gamma / (1.0 - beta))
    s = math.sqrt((n * n * (1.0 - beta * beta)) / (n * n - 1.0))
    return center - gamma * g, s * (factor - sigma * np.outer(g, u))


@dataclass(frozen=True)
class RoundedPolytope:
    """A polytope mapped into sandwich position: unit ball inside, ball of
    radius ``r = 2n`` outside.  ``log_scale`` restores original volume:
    vol(original) = vol(this) * exp(log_scale)."""

    a: np.ndarray
    b: np.ndarray
    n: int
    r: float
    log_scale: float
    a_t: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "a_t", np.ascontiguousarray(self.a.T))


_MAX_CUT_ITERS = 200_000


def round_polytope(p: Polytope, deadline: Optional[float] = None) -> Optional[RoundedPolytope]:
    """Sandwich a full-dimensional polytope between the unit ball and the
    ball of radius 2n.

    The body is opened by three checks, in the order ``exact_volume`` uses:

    1. a contradictory body or any equality row: None, no LP runs;
    2. the Chebyshev radius rho: None when rho <= 0, which also covers every
       empty body (rho < 0);
    3. the 2n bounding-box LPs: UnboundedError on an unbounded direction, so
       callers must bound variables (word-length box) before estimating.

    A body without interior is therefore None (volume 0) even when it is
    unbounded.  A bounded body thinner than FLATNESS_TOL cannot be rounded
    and is None too; ``exact_volume`` measures it.  From step 3 on every
    failure is an error, never volume 0: a bounding-box LP that does not
    solve, an image that misses the unit ball, or a rounding that does not
    converge within _MAX_CUT_ITERS cuts raises NumericalError.
    """
    if p.contradictory or p.n == 0 or any(row.op is Cmp.EQ for row in p.rows):
        return None
    _, rho = chebyshev_center(p)
    if rho <= 0.0:
        return None

    a, b = p.split_arrays()[:2]
    n = p.n
    lo = np.empty(n)
    hi = np.empty(n)
    for j in range(n):
        c = np.zeros(n)
        c[j] = 1.0
        res_hi = lp_optimize(p, c, "max")
        res_lo = lp_optimize(p, c, "min")
        if res_hi.status is LpStatus.UNBOUNDED or res_lo.status is LpStatus.UNBOUNDED:
            raise UnboundedError(f"solution space unbounded in x{j + 1}")
        if res_hi.status is not LpStatus.OPTIMAL or res_lo.status is not LpStatus.OPTIMAL:
            raise NumericalError(f"bounding-box LP in x{j + 1} did not solve")
        hi[j] = res_hi.value
        lo[j] = res_lo.value
    if rho <= FLATNESS_TOL:
        return None

    # The ellipsoid {center + L u : |u| <= 1} starts as the box's enclosing
    # ball and always contains the body, hence the Chebyshev ball of radius
    # rho > FLATNESS_TOL: |det L| >= rho^n, so L never becomes singular.
    center = (lo + hi) / 2.0
    factor = np.eye(n) * (float(np.linalg.norm(hi - lo)) / 2.0)

    beta = 1.0 / (2.0 * n)
    norms2 = np.einsum("ij,ij->i", a, a)
    iters = 0
    while True:
        check_deadline(deadline)
        margins = a @ center + beta * np.linalg.norm(a @ factor, axis=1)
        viol = margins - b
        worst = int(np.argmax(viol))
        if viol[worst] <= 1e-11 * max(1.0, float(np.sqrt(norms2[worst]))):
            break
        center, factor = shallow_cut_update(center, factor, a[worst], beta)
        iters += 1
        if iters > _MAX_CUT_ITERS:
            raise NumericalError("ellipsoid rounding did not converge")

    # The lower-triangular chol with chol chol^T = L L^T, without forming
    # L L^T: L^T = Q R gives L L^T = R^T R; flip R's rows to a positive
    # diagonal.
    r = np.linalg.qr(factor.T, mode="r")
    chol = (r * np.sign(np.diag(r))[:, None]).T

    # Map x -> M^{-1}(x - center) with M = beta * chol; the shrunk ellipsoid
    # beta*E becomes the unit ball and the full ellipsoid the 2n-ball.
    mat = beta * chol
    a_new = a @ mat
    b_new = b - a @ center
    log_scale = float(np.sum(np.log(np.diag(chol)))) + n * math.log(beta)

    # Exact unit-ball containment: scale the image up a hair if needed.
    new_norms = np.linalg.norm(a_new, axis=1)
    ratios = b_new / new_norms
    worst_ratio = float(ratios.min())
    if worst_ratio <= 0.0:
        raise NumericalError("rounded body misses the unit ball")
    if worst_ratio < 1.0:
        s = 1.0 / worst_ratio
        b_new = b_new * s
        log_scale -= n * math.log(s)
    return RoundedPolytope(a_new, b_new, n, 2.0 * n, log_scale)


def unit_ball_log_volume(n: int) -> float:
    """log of the volume of the n-dimensional unit ball."""
    return (n / 2.0) * math.log(math.pi) - math.lgamma(n / 2.0 + 1.0)


def phase_count(q: RoundedPolytope) -> int:
    """Number of telescoping phases: ceil(n * log2(r))."""
    return max(1, math.ceil(q.n * math.log2(q.r)))


def phase_index(x: np.ndarray, n: int, num_phases: int) -> np.ndarray:
    """Smallest phase whose ball B(0, 2^(i/n)) contains x, capped at the
    outermost phase index.  ``x`` may be one point or a stack of points
    along the last axis."""
    sq = np.einsum("...i,...i->...", x, x)
    idx = np.ceil(0.5 * n * np.log2(np.maximum(sq, 1.0)))
    return np.minimum(idx, num_phases).astype(np.int64)


@dataclass
class PhaseLedger:
    """Bookkeeping of one estimation run: how many stored points fall in each
    phase shell, how many fresh walk points each phase generated, and the
    per-phase ratio estimates (innermost first)."""

    num_phases: int
    bucket_counts: list[int]
    fresh_per_phase: list[int]
    ratios: list[float]

    @property
    def fresh_total(self) -> int:
        return sum(self.fresh_per_phase)


@dataclass(frozen=True)
class EstimateResult:
    volume: float
    ledger: PhaseLedger


def _philox(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# Lock-step walk (see the module docstring).  Without the warm-up, chains
# that all start at the origin under-estimate (by about 4% on the 4-ball);
# storing every lock step instead of every second one widens the spread of
# the estimates by about a quarter.  Slacks are recomputed from scratch every
# _RESYNC_EVERY lock steps to stop rounding drift.
CHAINS = 64
WARMUP_PER_DIM = 20
STRIDE = 2
_RESYNC_EVERY = 256


class Chains:
    """``count`` coordinate-direction hit-and-run chains in ``q`` that move
    in lock step.

    State: positions ``x`` (count, n), slacks ``b - a x`` (count, m) and
    squared norms ``sq`` (count,).  All chains start at the origin.
    """

    def __init__(self, q: RoundedPolytope, count: int) -> None:
        self.q = q
        self.x = np.zeros((count, q.n))
        self.slack = np.tile(q.b, (count, 1))
        self.sq = np.zeros(count)
        self._rows = np.arange(count)
        # Per coordinate k and row j: 1/|a_jk| on the rows that bound a step
        # up (a_jk > 0) and down (a_jk < 0), +inf pads on the other rows,
        # and a_jk itself; one gather per lock step fetches all five.
        col = q.a_t
        up = col > 1e-300
        down = col < -1e-300
        inv = np.divide(1.0, np.abs(col), out=np.zeros_like(col), where=up | down)
        self._table = np.stack(
            [
                np.where(up, inv, 0.0),
                np.where(down, inv, 0.0),
                np.where(up, 0.0, np.inf),
                np.where(down, 0.0, np.inf),
                col,
            ],
            axis=1,
        )

    def step(self, radius: float, rng: np.random.Generator) -> None:
        """Move every chain once inside ``q`` intersected with the ball of
        the given radius: draw a coordinate and a uniform per chain, then a
        point uniformly on each chord.  A chord shorter than 1e-14 leaves
        its chain in place.  Every chain must start in the intersection."""
        draws = rng.random((2, self._rows.shape[0]))
        k = (draws[0] * self.q.n).astype(np.intp)
        g = self._table[k]
        reach = self.slack[:, None, :] * g[:, :2]
        reach += g[:, 2:4]
        reach = reach.min(axis=2, initial=np.inf)
        xk = self.x[self._rows, k]
        root = np.sqrt(np.maximum(xk * xk - self.sq + radius * radius, 0.0))
        t_lo = -np.minimum(reach[:, 1], xk + root)
        width = np.minimum(reach[:, 0], root - xk) - t_lo
        t = np.where(width >= 1e-14, t_lo + draws[1] * width, 0.0)
        self.x[self._rows, k] = xk + t
        self.slack -= t[:, None] * g[:, 4]
        self.sq = np.einsum("ij,ij->i", self.x, self.x)

    def resync(self) -> None:
        """Recompute slacks and norms from the positions."""
        self.slack = self.q.b - self.x @ self.q.a_t
        self.sq = np.einsum("ij,ij->i", self.x, self.x)
        if __debug__:
            assert float(self.slack.min(initial=0.0)) >= -1e-7


def estimate_volume(
    q: RoundedPolytope,
    samples_per_phase: int,
    seed: int,
    stream: int = 0,
    deadline: Optional[float] = None,
) -> EstimateResult:
    """Multiphase Monte-Carlo volume of a rounded polytope.

    Phases run outermost to innermost.  Phase i estimates
    vol(K_{i+1}) / vol(K_i) with K_i = B(0, 2^(i/n)) intersect q, reusing
    points stored by outer phases when they land inside the current ball and
    topping up with fresh points from CHAINS lock-step hit-and-run chains
    until ``samples_per_phase`` are available.  Only the outermost phase
    first discards WARMUP_PER_DIM * n lock steps per chain.  The product of
    the per-phase ratios times the unit-ball volume, rescaled by
    ``q.log_scale``, is the volume estimate.  One-dimensional bodies are
    measured exactly.
    """
    if samples_per_phase < 1:
        raise ValueError("need at least one sample per phase")
    if q.n == 1:
        return _interval_volume(q)
    n = q.n
    num_phases = phase_count(q)
    rng = _philox(seed, stream)

    chains = Chains(q, CHAINS)
    rows = np.arange(CHAINS)
    # Per shell, the latest point each chain stored there: the pool that
    # chains left outside a shrunk phase ball restart from.
    ring = np.empty((num_phases + 1, CHAINS, n))
    ring_filled = np.zeros((num_phases + 1, CHAINS), dtype=bool)
    bucket_counts = np.zeros(num_phases + 1, dtype=np.int64)
    fresh_per_phase = [0] * num_phases
    ratios = [0.0] * num_phases

    for i in range(num_phases - 1, -1, -1):
        check_deadline(deadline)
        radius = 2.0 ** ((i + 1) / n)
        radius_sq = radius * radius
        outside = chains.sq > radius_sq * (1.0 + 1e-12)
        if outside.any():
            filled = ring_filled[: i + 2]
            pool = ring[: i + 2][filled]
            if pool.shape[0]:
                # A shell keeps at most CHAINS points whatever its volume, so
                # weight each point by its shell's share of the stored points:
                # restarts then follow the uniform distribution on K_{i+1}.
                per_shell = filled.sum(axis=1)
                weight = np.repeat(bucket_counts[: i + 2] / np.maximum(per_shell, 1), per_shell)
                pick = rng.choice(pool.shape[0], size=int(outside.sum()), p=weight / weight.sum())
                chains.x[outside] = pool[pick]
            else:
                chains.x[outside] = 0.0
            chains.resync()

        need = max(0, samples_per_phase - int(bucket_counts[: i + 2].sum()))
        discard = WARMUP_PER_DIM * n if i == num_phases - 1 else 0
        lock_steps = discard + STRIDE * -(-need // CHAINS)
        for step in range(lock_steps):
            if step % _RESYNC_EVERY == 0:
                check_deadline(deadline)
                chains.resync()
            chains.step(radius, rng)
            if chains.sq.max() > radius_sq * (1.0 + 1e-9):
                raise NumericalError("walk escaped its phase ball")
            if step < discard or (step - discard) % STRIDE != STRIDE - 1:
                continue
            take = min(CHAINS, need - fresh_per_phase[i])
            batch = chains.x[:take]
            shell = np.minimum(phase_index(batch, n, num_phases), i + 1)
            bucket_counts += np.bincount(shell, minlength=num_phases + 1)
            fresh_per_phase[i] += take
            ring[shell, rows[:take]] = batch
            ring_filled[shell, rows[:take]] = True

        available = int(bucket_counts[: i + 2].sum())
        inside = int(bucket_counts[: i + 1].sum())
        if inside == 0:
            raise BackendError("estimation degenerate: no samples inside the phase ball")
        ratios[i] = available / inside

    log_vol = unit_ball_log_volume(n) + q.log_scale + sum(math.log(r) for r in ratios)
    ledger = PhaseLedger(num_phases, bucket_counts.tolist(), fresh_per_phase, ratios)
    return EstimateResult(math.exp(log_vol), ledger)


def _interval_volume(q: RoundedPolytope) -> EstimateResult:
    """Exact multiphase figures of a one-dimensional body.

    Every K_i is an interval, so each phase ratio is a ratio of lengths and
    no point is sampled.  The volume is the length of q intersected with
    B(0, 2^phases), rescaled by ``q.log_scale``.
    """
    num_phases = phase_count(q)
    col = q.a[:, 0]
    up = col > 1e-300
    down = col < -1e-300
    hi = float(np.min(q.b[up] / col[up], initial=np.inf))
    lo = float(np.max(q.b[down] / col[down], initial=-np.inf))
    lengths = [
        max(0.0, min(hi, 2.0**i) - max(lo, -(2.0**i))) for i in range(num_phases + 1)
    ]
    if lengths[0] == 0.0:
        raise BackendError("estimation degenerate: no samples inside the phase ball")
    ratios = [lengths[i + 1] / lengths[i] for i in range(num_phases)]
    ledger = PhaseLedger(num_phases, [0] * (num_phases + 1), [0] * num_phases, ratios)
    return EstimateResult(lengths[-1] * math.exp(q.log_scale), ledger)
