"""Bounded exemplar memory with herding selection.

The buffer is a value: admission returns a new buffer. It stores row ids
into the run's table, never copies of the rows: per class, a prefix of
that class's herded ordering, so shrinking a quota later only truncates,
never reorders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import TEST
from .errors import ParameterError


@dataclass(frozen=True)
class MemoryBuffer:
    capacity: int
    classes: dict  # class id -> int64 row ids into the run's table, in herded order

    @staticmethod
    def empty(capacity):
        if capacity < 0:
            raise ParameterError("capacity must be >= 0")
        return MemoryBuffer(capacity, {})


# classes with at least this many feature values (rows x dims) screen
# herding candidates in Gram form; smaller ones evaluate every row not taken
HERD_SCREEN_MIN = 6400

_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_TINY = np.finfo(np.float64).smallest_subnormal
# squared distances further apart than this (relative) cannot tie after sqrt
HERD_TIE_MARGIN = 8 * _UNIT_ROUNDOFF


def _screen(gram, err):
    """Rows whose exact squared distance may be the smallest.

    Row i's exact squared distance lies within ``err`` of ``gram[i]``. A row
    is dropped only if its lower bound exceeds the smallest upper bound by
    more than HERD_TIE_MARGIN, so its sqrt is strictly larger than some
    other row's and it cannot win even a tie.
    """
    limit = (gram.min() + err) * (1 + HERD_TIE_MARGIN)
    return np.flatnonzero(gram - err <= limit)


def herd_order(class_features, count):
    """First ``count`` picks of the greedy running-mean herding order.

    At step t the unchosen sample whose inclusion brings the running mean
    closest (L2) to the class mean is picked; ties break to the lowest
    index. Each pick depends only on the earlier ones, so stopping after
    ``min(count, n)`` steps gives exactly the prefix of the full order.

    Classes of at least HERD_SCREEN_MIN values first screen the rows in
    Gram form: with g = running/t - mu, row i's squared distance is
    |f_i|^2/t^2 + 2 f_i.g/t + |g|^2, one matrix-vector product per step.
    Only rows the screen cannot rule out are evaluated with the direct
    expression, so the screen is exact: its picks are those of the direct
    expression over all rows. The screen's error bound covers the rounding
    of both forms, and its margin keeps any row the sqrt could tie; a loose
    bound only widens the set of rows evaluated directly.
    """
    feats = np.asarray(class_features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] < 1:
        raise ParameterError("herd_order needs at least one feature vector")
    if count < 0:
        raise ParameterError("count must be >= 0")
    n, d = feats.shape
    steps = min(count, n)
    mu = feats.mean(axis=0)
    order = np.empty(steps, dtype=np.int64)
    running = np.zeros(d)
    available = np.ones(n, dtype=bool)
    sq_norms = np.einsum("ij,ij->i", feats, feats)
    # the bound below is valid while no intermediate can overflow
    screened = feats.size >= HERD_SCREEN_MIN and sq_norms.max() < np.finfo(np.float64).max / 64
    if screened:
        max_norm = np.sqrt(sq_norms.max())
        mu_norm = np.sqrt(mu @ mu)
        # With W = |f_i|/t + |running|/t + |mu|, which bounds every operand,
        # the direct expression rounds its sum of squares within about
        # (d + 7) u W^2 of the exact value and the Gram form within about
        # (d + 9) u W^2 (u the unit roundoff; the usual summation bounds).
        # coef doubles their sum; the tiny term covers underflow. W uses the
        # largest row norm, so one bound serves every row.
        coef = 4 * (d + 8)
    for t in range(1, steps + 1):
        if screened:
            scaled = running / t
            g = scaled - mu
            gram = sq_norms / (t * t) + (feats @ g) * (2 / t) + g @ g
            w = max_norm / t + np.sqrt(scaled @ scaled) + mu_norm
            cand = _screen(gram, coef * (_UNIT_ROUNDOFF * w * w + _TINY))
        else:
            cand = np.flatnonzero(available)
        dists = np.sqrt((((running + feats[cand]) / t - mu) ** 2).sum(axis=1))
        pick = int(cand[np.argmin(dists)])
        order[t - 1] = pick
        available[pick] = False
        sq_norms[pick] = np.inf
        running += feats[pick]
    return order


def class_quotas(capacity, class_ids):
    """floor(B / N) per class, plus one for the first B mod N ids."""
    ids = sorted(class_ids)
    n = len(ids)
    base, extra = divmod(capacity, n)
    return {c: base + (1 if i < extra else 0) for i, c in enumerate(ids)}


def admit_and_rebalance(buffer, table, new_ids):
    """Add the classes ``new_ids`` and shrink old quotas to fit the capacity.

    Old classes keep a prefix of their stored rows; each new class is
    herded fresh over its train and val rows of ``table``, only as far as
    its quota.
    """
    overlap = set(new_ids) & set(buffer.classes)
    if overlap:
        raise ParameterError(f"classes already stored: {sorted(overlap)}")
    quotas = class_quotas(buffer.capacity, set(buffer.classes) | set(new_ids))
    herdable = table.splits != TEST
    classes = {}
    for c, q in quotas.items():
        if c in buffer.classes:
            classes[c] = buffer.classes[c][:q]
        else:
            rows = np.flatnonzero((table.labels == c) & herdable)
            classes[c] = rows[herd_order(table.features[rows], q)]
    return MemoryBuffer(buffer.capacity, classes)


def memory_dataset(buffer, table):
    """The stored rows of ``table``, class by class, in herded order."""
    rows = [buffer.classes[c] for c in sorted(buffer.classes)]
    return table.subset(np.concatenate([np.empty(0, dtype=np.int64), *rows]))
