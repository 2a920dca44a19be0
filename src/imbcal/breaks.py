"""Exact Fisher-Jenks natural breaks for one-dimensional values.

``fisher_jenks`` runs Fisher's exact O(L n^2) dynamic program over the
sorted values. Every segment's cost comes from prefix sums into one
(n+1) x (n+1) matrix, so each DP level is a single vectorised min over
it. The matrix takes O(n^2) memory, small for the per-class counts that
fit_fj clusters.
``brute_force_breaks`` enumerates every contiguous partition and serves as
its oracle. Both break SSD ties by the lexicographically smallest
boundary positions and report the SSD recomputed directly from the chosen
partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ParameterError

BRUTE_FORCE_LIMIT = 14
_TIE_TOL = 1e-9


@dataclass(frozen=True)
class BreaksResult:
    assignments: np.ndarray  # original index -> cluster index (clusters ascending)
    boundaries: tuple  # sorted-order start positions of clusters 2..L
    ssd: float


def _check(values, L, limit=None):
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or len(values) == 0:
        raise ParameterError("values must be a non-empty 1-D sequence")
    if not np.isfinite(values).all():
        raise ParameterError("values must be finite")
    if not 1 <= L <= len(values):
        raise ParameterError(f"L must be in [1, {len(values)}], got {L}")
    if limit is not None and len(values) > limit:
        raise ParameterError(f"brute force limited to {limit} values, got {len(values)}")
    return values


def _direct_ssd(sorted_values, cuts):
    total = 0.0
    edges = [0, *cuts, len(sorted_values)]
    for a, b in zip(edges, edges[1:]):
        seg = sorted_values[a:b]
        total += float(((seg - seg.mean()) ** 2).sum())
    return total


def _result(values, order, cuts):
    n = len(values)
    sorted_values = values[order]
    assignments = np.empty(n, dtype=np.int64)
    edges = [0, *cuts, n]
    for c, (a, b) in enumerate(zip(edges, edges[1:])):
        assignments[order[a:b]] = c
    return BreaksResult(assignments, tuple(int(c) for c in cuts), _direct_ssd(sorted_values, cuts))


def fisher_jenks(values, L):
    """Optimal partition of values into L clusters minimizing within-cluster SSD."""
    values = _check(values, L)
    n = len(values)
    order = np.argsort(values, kind="stable")
    v = values[order]

    s1 = np.concatenate([[0.0], np.cumsum(v)])
    s2 = np.concatenate([[0.0], np.cumsum(v * v)])

    # cost[i, m]: SSD of v[i:m] via prefix sums; infinite unless i < m
    width = np.arange(n + 1)[None, :] - np.arange(n + 1)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = s1[None, :] - s1[:, None]
        cost = (s2[None, :] - s2[:, None]) - s * s / width
    cost[width <= 0] = np.inf

    # best[j][i]: minimal cost of splitting v[i:] into j clusters; a cluster
    # starting at i must leave j-1 values for the rest, which best[j-1]
    # enforces by being infinite past n-j+1
    best = np.full((L + 1, n + 1), np.inf)
    best[0, n] = 0.0
    best[1, :n] = cost[:n, n]
    for j in range(2, L + 1):
        best[j, : n - j + 1] = (cost[: n - j + 1] + best[j - 1]).min(axis=1)

    # reconstruct the lexicographically smallest optimal cut positions
    cuts = []
    i = 0
    for j in range(L, 1, -1):
        target = best[j, i]
        tol = _TIE_TOL * max(1.0, abs(target))
        for m in range(i + 1, n - j + 2):
            if cost[i, m] + best[j - 1, m] <= target + tol:
                cuts.append(m)
                i = m
                break
    return _result(values, order, cuts)


def brute_force_breaks(values, L):
    """Enumeration oracle for fisher_jenks (inputs capped at 14 values)."""
    values = _check(values, L, limit=BRUTE_FORCE_LIMIT)
    n = len(values)
    order = np.argsort(values, kind="stable")
    v = values[order]

    best_cuts = None
    best_ssd = np.inf
    for cuts in combinations(range(1, n), L - 1):
        ssd = _direct_ssd(v, cuts)
        if best_cuts is None or ssd < best_ssd - _TIE_TOL * max(1.0, best_ssd):
            best_ssd = ssd
            best_cuts = cuts
    return _result(values, order, list(best_cuts))
