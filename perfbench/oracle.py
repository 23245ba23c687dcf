"""Reference volumes that do not come from any volcount backend.

A generated formula's solution volume is summed over every total Boolean
assignment that satisfies its clauses: each assignment fixes the polarity
of every atom, and the region it leaves is measured by brute-force vertex
enumeration plus ``scipy.spatial.ConvexHull``.  No bunch enumeration, LP or
volume code of the package is involved.
"""
from __future__ import annotations

import itertools

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from workloads import BenchFormula


def hull_volume(a: np.ndarray, b: np.ndarray) -> float:
    """Volume of {x : a x <= b} from the intersections of every n rows."""
    m, n = a.shape
    combos = np.array(list(itertools.combinations(range(m), n)))
    if combos.size == 0:
        return 0.0
    sub = a[combos]
    regular = np.abs(np.linalg.det(sub)) >= 1e-10
    sub, rhs = sub[regular], b[combos[regular]]
    if not len(sub):
        return 0.0
    pts = np.linalg.solve(sub, rhs[..., None])[..., 0]
    pts = pts[np.all(pts @ a.T <= b + 1e-8, axis=1)]
    if len(pts) <= n:
        return 0.0
    try:
        return float(ConvexHull(pts).volume)
    except QhullError:
        return 0.0


def model_volume(f: BenchFormula, word_length: int) -> float:
    """Total volume over all Boolean models, inside the word-length box."""
    box_a, box_b = [], []
    if word_length > 0:
        lo, hi = -(1 << (word_length - 1)), (1 << (word_length - 1)) - 1
        for j in range(f.n):
            unit = np.eye(f.n)[j]
            box_a += [unit, -unit]
            box_b += [hi, -lo]
    atom_ids = sorted(f.atoms)
    by_polarity: dict[tuple[bool, ...], float] = {}
    total = 0.0
    for bits in itertools.product((False, True), repeat=f.num_bools):
        if not all(any(bits[abs(lit) - 1] == (lit > 0) for lit in c) for c in f.clauses):
            continue
        polarity = tuple(bits[v - 1] for v in atom_ids)
        if polarity not in by_polarity:
            rows, rhs = list(box_a), list(box_b)
            for v, positive in zip(atom_ids, polarity):
                coeffs, _, bound = f.atoms[v]
                # The closure of a negated atom: -a.x <= -b (boundaries are null sets).
                sign = 1 if positive else -1
                rows.append(sign * np.array(coeffs, dtype=float))
                rhs.append(sign * bound)
            by_polarity[polarity] = hull_volume(np.array(rows), np.array(rhs, dtype=float))
        total += by_polarity[polarity]
    return total
