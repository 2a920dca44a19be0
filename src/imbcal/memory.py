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


_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_TINY = np.finfo(np.float64).smallest_subnormal
# squared distances further apart than this (relative) cannot tie after sqrt
HERD_TIE_MARGIN = 8 * _UNIT_ROUNDOFF


def gram_error_bound(d, w_sq):
    """How far a squared distance in Gram form may be from the direct one.

    For a - b in ``d`` dimensions, with W = |a| + |b| and W^2 <= ``w_sq``, the
    Gram form |a|^2 - 2 a.b + |b|^2 rounds within about (d + 9) u W^2 of the
    exact value and the direct sum of squared differences within about
    (d + 7) u W^2 (u the unit roundoff; the usual summation bounds, which
    hold in any summation order). The bound doubles their sum; the tiny term
    covers underflow.
    """
    return 4 * (d + 8) * (_UNIT_ROUNDOFF * w_sq + _TINY)


def _screen(gram, err):
    """Mask of the rows whose exact squared distance may be their class's least.

    Each row of ``gram`` is one class (a 1-D ``gram`` is one class), and
    class k's exact squared distances lie within ``err[k]`` of its entries.
    An entry is dropped only if its lower bound exceeds the class's smallest
    upper bound by more than HERD_TIE_MARGIN, so its sqrt is strictly larger
    than some other row's and it cannot win even a tie.
    """
    err = np.asarray(err)[..., None]
    limit = (gram.min(axis=-1, keepdims=True) + err) * (1 + HERD_TIE_MARGIN)
    return gram - err <= limit


def herd_order(features, class_rows, counts):
    """The greedy running-mean herding order of several classes, advanced together.

    Class k is the rows ``class_rows[k]`` of ``features``, and ``counts[k]``
    says how many of them to pick. The result holds the picked row ids,
    class after class, ``min(counts[k], len(class_rows[k]))`` of class k.
    Within a class, step t picks the unchosen row whose inclusion brings the
    running mean closest (L2) to the class mean; ties break to the row that
    comes first in ``class_rows[k]``. Each pick depends only on the earlier
    ones, so stopping early gives exactly the prefix of the full order.

    Each step advances every class with picks left. It first screens every
    class's rows in Gram form, one batched matrix-vector product over the
    classes padded to the largest one's row count: with g = running/t - mu,
    row i's squared distance is |f_i|^2/t^2 + 2 f_i.g/t + |g|^2. The rows the
    screen cannot rule out are then evaluated together with the direct
    expression, and each class takes its least. The screen is exact: its
    picks are those of the direct expression over all rows, since its error
    bound (gram_error_bound) covers the rounding of both forms and its margin
    keeps any row the sqrt could tie. A class whose norms could overflow is
    not screened; every untaken row of it is a candidate. A taken row is never
    a candidate again, even when distances overflow. The padded stack holds
    classes x largest class x d floats.
    """
    features = np.asarray(features, dtype=np.float64)
    class_rows = [np.asarray(r, dtype=np.int64).reshape(-1) for r in class_rows]
    counts = np.asarray(counts, dtype=np.int64).reshape(-1)
    if features.ndim != 2:
        raise ParameterError("herd_order needs a 2-D feature matrix")
    if len(counts) != len(class_rows):
        raise ParameterError("herd_order needs one count per class")
    if any(len(r) == 0 for r in class_rows):
        raise ParameterError("herd_order needs at least one feature vector per class")
    if np.any(counts < 0):
        raise ParameterError("count must be >= 0")
    sizes = np.array([len(r) for r in class_rows], dtype=np.int64)
    steps = np.minimum(counts, sizes)
    order = np.empty(int(steps.sum()), dtype=np.int64)
    if not len(order):
        return order

    d = features.shape[1]
    mu = np.zeros((len(class_rows), d))
    max_sq = np.zeros(len(class_rows))  # largest squared row norm
    for c in np.flatnonzero(steps):
        own = features[class_rows[c]]
        mu[c] = own.mean(axis=0)
        max_sq[c] = np.einsum("ij,ij->i", own, own).max()
    # one lane per class with picks to make, by steps descending, so the lanes
    # still active at step t are a prefix
    lanes = np.argsort(-steps, kind="stable")
    lanes = lanes[steps[lanes] > 0]
    lane_steps, lane_sizes = steps[lanes], sizes[lanes]
    # the bound is valid while no intermediate can overflow; a lane where one
    # can (or whose norms are NaN) keeps every untaken row as a candidate
    unbounded = ~(max_sq[lanes] < np.finfo(np.float64).max / 64)

    # every lane padded to `width` rows, stacked (lanes, width, d); padding
    # repeats the lane's own first row, so it never overflows a finite lane
    width = int(lane_sizes.max())
    rows = np.concatenate([class_rows[c] for c in lanes])
    lane_first = np.cumsum(lane_sizes) - lane_sizes
    slots = np.repeat(np.arange(len(lanes)) * width - lane_first, lane_sizes)
    slots += np.arange(len(rows))
    source = np.repeat(rows[lane_first], width)
    source[slots] = rows
    store = features[source]
    norms = np.full(len(source), np.inf)  # inf marks padding and taken rows
    norms[slots] = np.einsum("ij,ij->i", store, store)[slots]
    available = np.zeros(len(source), dtype=bool)
    available[slots] = True

    mu = mu[lanes]
    running = np.zeros_like(mu)
    first_out = (np.cumsum(steps) - steps)[lanes]
    stack = store.reshape(len(lanes), width, d)
    stack_norms = norms.reshape(len(lanes), width)
    # overflow and NaN arise only in unbounded lanes, whose screen is not used
    with np.errstate(over="ignore"):
        max_norm = np.sqrt(max_sq[lanes])
        mu_norm = np.sqrt(np.einsum("ij,ij->i", mu, mu))
    for t in range(1, int(lane_steps[0]) + 1):
        n = int(np.count_nonzero(lane_steps >= t))
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = running[:n] / t
            g = scaled - mu[:n]
            gram = (
                stack_norms[:n] / (t * t)
                + np.matmul(stack[:n], g[:, :, None])[:, :, 0] * (2 / t)
                + np.einsum("ij,ij->i", g, g)[:, None]
            )
            # W = max|f_i|/t + |running|/t + |mu| bounds |f_i/t| + |g| for
            # every row, so one bound serves the whole class
            w = max_norm[:n] / t + np.sqrt(np.einsum("ij,ij->i", scaled, scaled)) + mu_norm[:n]
            keep = _screen(gram, gram_error_bound(d, w * w)) | unbounded[:n, None]
        cand = np.flatnonzero(keep & available[: n * width].reshape(n, width))
        cand_lane = cand // width
        dists = np.sqrt(
            (((running[cand_lane] + store[cand]) / t - mu[cand_lane]) ** 2).sum(axis=1)
        )
        dists[np.isnan(dists)] = -1.0  # argmin takes the first NaN
        # candidates run lane by lane in slot order: each lane's first least
        first = np.searchsorted(cand_lane, np.arange(n))
        least = np.minimum.reduceat(dists, first)
        hits = np.flatnonzero(dists == least[cand_lane])
        won = cand[hits[np.searchsorted(hits, first)]]  # one per active lane
        order[first_out[:n] + t - 1] = source[won]
        running[:n] += store[won]
        norms[won] = np.inf
        available[won] = False
    return order


def class_quotas(capacity, class_ids):
    """floor(B / N) per class, plus one for the first B mod N ids."""
    ids = sorted(class_ids)
    n = len(ids)
    base, extra = divmod(capacity, n)
    return {c: base + (1 if i < extra else 0) for i, c in enumerate(ids)}


def admit_and_rebalance(buffer, table, new_ids):
    """Add the classes ``new_ids`` and shrink old quotas to fit the capacity.

    Old classes keep a prefix of their stored rows; the new classes are
    herded fresh, together, over their train and val rows of ``table``,
    each only as far as its quota.
    """
    overlap = set(new_ids) & set(buffer.classes)
    if overlap:
        raise ParameterError(f"classes already stored: {sorted(overlap)}")
    quotas = class_quotas(buffer.capacity, set(buffer.classes) | set(new_ids))
    herdable = table.splits != TEST
    new = [c for c in quotas if c not in buffer.classes]
    rows = [np.flatnonzero((table.labels == c) & herdable) for c in new]
    herded = herd_order(table.features, rows, [quotas[c] for c in new])
    taken = [min(quotas[c], len(r)) for c, r in zip(new, rows)]
    herded = iter(np.split(herded, np.cumsum(taken, dtype=np.int64)[:-1]))
    classes = {
        c: buffer.classes[c][:q] if c in buffer.classes else next(herded)
        for c, q in quotas.items()
    }
    return MemoryBuffer(buffer.capacity, classes)


def memory_dataset(buffer, table):
    """The stored rows of ``table``, class by class, in herded order."""
    rows = [buffer.classes[c] for c in sorted(buffer.classes)]
    return table.subset(np.concatenate([np.empty(0, dtype=np.int64), *rows]))
