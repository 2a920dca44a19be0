"""The seven score-calibration methods behind a single fit/apply contract.

Method tags and what they consume:

  iso  per-class isotonic regression on raw scores (one-vs-all)
  pl   per-class Platt scaling on raw scores (one-vs-all)
  th   division of softmax probabilities by the class prior
  nem  nearest mean of stored exemplars in feature space
  bal  classification layer retrained on a balanced exemplar table
  mb   old-class scores rescaled by the new/old mean validation score ratio
  fj   per-cluster rescaling, classes clustered by image count with
       Fisher-Jenks natural breaks

``calibrate`` is the one place that picks a calibrator by tag. Every
``apply_*`` is a pure function of the fitted state and its input;
the predicted class is always the argmax of the calibrated scores (for
nem the reported score is the inverse distance, so argmax coincides with
the nearest mean).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import backbone, memory
from .breaks import fisher_jenks
from .dataset import TRAIN, DatasetTable
from .errors import ConfigurationError, ParameterError
from .metrics import group_mean_scores, top1

METHOD_TAGS = ("iso", "pl", "th", "nem", "bal", "mb", "fj")
# calibrators that read the test features rather than the test scores
FEATURE_METHODS = ("nem", "bal")
# calibrators that fit on the training records' scores
TRAIN_SCORE_METHODS = ("iso", "pl")

NEM_EPSILON = 1e-12
NEM_CHUNK_ROWS = 64
# nem's Gram-form distances are within this (relative) of the direct form's
NEM_RTOL = 1e-12
PLATT_MAX_ITER = 100
PLATT_GRAD_TOL = 1e-9
# scores per block of classes that fit_platt fits in lockstep
PLATT_BLOCK_ELEMENTS = 2**15


@dataclass(frozen=True)
class CalibContext:
    """Everything a calibrator may fit on at one incremental state.

    Class ids are assumed contiguous 0..N-1 in model-row order;
    ``class_counts[i]`` is the number of train records of class i in the
    current training set.
    """

    train_scores: np.ndarray | None  # (n, N) raw scores of the training records
    train_labels: np.ndarray
    val_scores: np.ndarray  # (m, N) raw scores of the validation records
    val_labels: np.ndarray
    class_counts: np.ndarray  # (N,)
    old_classes: tuple
    new_classes: tuple
    table: DatasetTable | None = None  # the run's relabeled table
    buffer: memory.MemoryBuffer | None = None  # the exemplar memory: row ids into table

    @property
    def num_classes(self):
        return len(self.class_counts)


@dataclass
class CalibratorState:
    method: str
    params: dict
    flags: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# isotonic regression


def pava(values, weights=None):
    """Weighted least-squares fit of a non-decreasing sequence.

    Pool-adjacent-violators: merge any decreasing neighbours into their
    weighted mean until the sequence is non-decreasing. Weights must be
    positive.

    Only the middle of the sequence goes through the stack. A leading value
    that is <= every later value is never pooled, since every block to its
    right has a mean at least as large; nor is a trailing value that is >=
    every earlier value. Both are copied through. A rounded block mean can
    still land an ulp past such a value, so the stack keeps the last leading
    value as a floor and the whole sequence is rerun if a pool would reach a
    trimmed value: the result is always that of the untrimmed loop. The loop
    runs over Python floats, whose IEEE arithmetic is numpy float64's.
    """
    values = np.asarray(values, dtype=np.float64)
    if weights is None:
        weights = np.ones_like(values)
    weights = np.asarray(weights, dtype=np.float64)
    if np.any(weights <= 0):
        raise ParameterError("pava weights must be positive")
    n = len(values)
    later_min = np.append(np.minimum.accumulate(values[::-1])[::-1][1:], np.inf)
    earlier_max = np.insert(np.maximum.accumulate(values)[:-1], 0, -np.inf)
    lead = _run_length(values <= later_min)
    stop = max(lead, n - _run_length((values >= earlier_max)[::-1]))

    out = values.copy()
    if lead < stop:
        floor = float(values[lead - 1]) if lead else -math.inf
        pooled = _pool(values[lead:stop].tolist(), weights[lead:stop].tolist(), floor)
        if pooled is None or (stop < n and pooled[0][-1] > values[stop]):
            lead, stop = 0, n
            pooled = _pool(values.tolist(), weights.tolist(), -math.inf)
        out[lead:stop] = np.repeat(*pooled)
    return out


def _run_length(mask):
    """Length of the leading run of True values in ``mask``."""
    return int(np.argmin(np.append(mask, False)))


def _pool(values, weights, floor):
    """The pool-adjacent-violators stack over ``values`` as (levels, counts).

    ``floor`` is the value just left of ``values``; returns None when a
    block would pool with it. The top block lives in locals, so a value
    that pools at once never touches the lists.
    """
    levels, wsum, counts = [], [], []
    top, top_w, top_n = floor, 0.0, 0
    for v, w in zip(values, weights):
        if top > v:
            if not top_n:
                return None
            w_new = top_w + w
            top = (top * top_w + v * w) / w_new
            top_w = w_new
            top_n += 1
            while levels[-1] > top:
                if len(levels) == 1:
                    return None
                w_new = wsum[-1] + top_w
                top = (levels.pop() * wsum[-1] + top * top_w) / w_new
                top_w = w_new
                del wsum[-1]
                top_n += counts.pop()
        else:
            levels.append(top)
            wsum.append(top_w)
            counts.append(top_n)
            top, top_w, top_n = v, w, 1
    levels.append(top)
    counts.append(top_n)
    return levels[1:], counts[1:]


def fit_step_map(scores, positive):
    """Isotonic step map for one class: (boundaries, levels).

    ``positive`` is the boolean mask of the class's samples. Equal scores
    are pooled first (a step function cannot separate them), each group's
    target being its share of positives; boundaries are midpoints between
    adjacent distinct scores where the fitted level changes.
    """
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(positive, dtype=bool)
    xs = np.sort(scores)
    start = np.flatnonzero(np.append(True, xs[1:] != xs[:-1]))
    ux = xs[start]
    # -0.0 and 0.0 compare equal, so whichever np.sort puts first stands
    # for both, and searchsorted finds the group of either
    pooled = np.bincount(np.searchsorted(ux, scores[positive]), minlength=len(ux))
    counts = np.diff(np.append(start, len(xs)))
    fitted = pava(pooled / counts, counts)

    change = np.flatnonzero(fitted[1:] != fitted[:-1]) + 1
    boundaries = (ux[change - 1] + ux[change]) / 2.0
    levels = np.append(fitted[0], fitted[change])
    return boundaries, levels


def apply_step_map(boundaries, levels, scores):
    idx = np.searchsorted(boundaries, scores, side="right")
    return levels[idx]


def _train_scores(ctx):
    """The training records' scores; a context built without them is refused."""
    if ctx.train_scores is None:
        raise ConfigurationError("iso and pl need the training scores")
    return ctx.train_scores


def fit_isotonic(ctx):
    """Per-class one-vs-all isotonic maps fitted on the training scores."""
    n, num_classes = _train_scores(ctx).shape
    boundaries, levels = {}, {}
    for c in range(num_classes):
        positive = ctx.train_labels == c
        positives = positive.sum()
        if positives == 0 or positives == n:
            warnings.warn(f"class {c}: no score overlap to fit; keeping identity map")
            continue
        b, l = fit_step_map(ctx.train_scores[:, c], positive)
        boundaries[c] = b
        levels[c] = l
    return CalibratorState("iso", {"boundaries": boundaries, "levels": levels})


def apply_isotonic(state, scores):
    scores = np.asarray(scores, dtype=np.float64)
    out = scores.copy()
    for c, b in state.params["boundaries"].items():
        out[:, c] = apply_step_map(b, state.params["levels"][c], scores[:, c])
    return out


# ---------------------------------------------------------------------------
# Platt scaling


def _platt_sigmoid(s, a, c):
    """1 / (1 + exp(clip(s a + c))), in place after one allocation."""
    out = np.multiply(s, a)
    out += c
    np.clip(out, -500, 500, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def _platt_nll(s, t, u, a, c):
    """Each row's negative log-likelihood at (a, c), and the unclipped
    probabilities: ``s`` and ``t`` hold one class per row, ``u`` is 1 - t."""
    p = _platt_sigmoid(s, a[:, None], c[:, None])
    q = np.clip(p, 1e-15, 1 - 1e-15)
    lq = np.log(q)
    lq *= t
    np.subtract(1, q, out=q)
    np.log(q, out=q)
    q *= u
    lq += q
    return -lq.sum(axis=1), p


def _platt_block(s, pos):
    """Platt fits of the classes in the rows of ``s``, in lockstep.

    Row k of ``s`` holds the scores and row k of ``pos`` the positives of
    one class. Each row gets exactly the operations of a one-class fit:
    elementwise maths, and sums along axis 1, each of which adds one row
    as the 1-D sum of that row does. The line search re-evaluates only the
    rows still searching, and a row leaves the iteration once it converges
    or its Hessian is singular. Returns (A, C, converged) per row.
    """
    n_pos = pos.sum(axis=1)
    n_neg = pos.shape[1] - n_pos
    t = np.where(pos, ((n_pos + 1.0) / (n_pos + 2.0))[:, None], (1.0 / (n_neg + 2.0))[:, None])
    u = 1 - t
    ss = s * s

    a = np.zeros(len(s))
    c = np.log((n_neg + 1.0) / (n_pos + 1.0))
    current, p = _platt_nll(s, t, u, a, c)
    best_nll, best_a, best_c = current.copy(), a.copy(), c.copy()
    converged = np.zeros(len(s), dtype=bool)
    live = np.arange(len(s))  # the block rows still iterating
    for _ in range(PLATT_MAX_ITER):
        residual = t - p
        grad = np.stack([(s * residual).sum(axis=1), residual.sum(axis=1)], axis=1)
        done = np.abs(grad).max(axis=1) < PLATT_GRAD_TOL
        if done.any():
            # a converged fit keeps its last iterate, not its best one
            converged[live[done]] = True
            best_a[live[done]], best_c[live[done]] = a[done], c[done]
            keep = ~done
            live, s, t, u, ss, p, a, c, current, grad = (
                x[keep] for x in (live, s, t, u, ss, p, a, c, current, grad)
            )
            if not len(live):
                break
        w = p * (1.0 - p)
        sw = (s * w).sum(axis=1)
        hess = np.stack([(ss * w).sum(axis=1), sw, sw, w.sum(axis=1)], axis=1)
        hess = hess.reshape(-1, 2, 2) + 1e-12 * np.eye(2)
        try:
            delta = np.linalg.solve(hess, grad[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            # one singular Hessian fails the stacked solve: solve each
            # alone, and retire the rows whose own solve fails
            delta = np.zeros_like(grad)
            solved = np.ones(len(live), dtype=bool)
            for k in range(len(live)):
                try:
                    delta[k] = np.linalg.solve(hess[k], grad[k])
                except np.linalg.LinAlgError:
                    solved[k] = False
            live, s, t, u, ss, p, a, c, current, delta = (
                x[solved] for x in (live, s, t, u, ss, p, a, c, current, delta)
            )
            if not len(live):
                break
        step = np.ones(len(live))
        a2, c2, nll = np.empty_like(a), np.empty_like(c), np.empty_like(current)
        rows = np.arange(len(live))  # the rows still searching
        for _ in range(30):
            # while every row searches, take views rather than copies
            part = rows if len(rows) < len(live) else slice(None)
            a2[part] = a[part] - step[part] * delta[part, 0]
            c2[part] = c[part] - step[part] * delta[part, 1]
            nll[part], p[part] = _platt_nll(s[part], t[part], u[part], a2[part], c2[part])
            rows = rows[~(nll[part] <= current[part] + 1e-12)]
            if not len(rows):
                break
            step[rows] /= 2.0
        a, c, current = a2, c2, nll
        better = nll < best_nll[live]
        best_nll[live[better]] = nll[better]
        best_a[live[better]], best_c[live[better]] = a[better], c[better]
    return best_a, best_c, converged


def fit_platt(ctx):
    """Per-class one-vs-all Platt parameters (A, C) on the training scores.

    Maximum-likelihood sigmoid fits with Platt's target smoothing, by
    Newton-Raphson with backtracking, at most PLATT_MAX_ITER iterations;
    each iterate's likelihood is evaluated once, and a fit that does not
    converge keeps its best iterate. The classes go through
    ``_platt_block`` in blocks of at most PLATT_BLOCK_ELEMENTS scores, so
    each block's arrays stay in cache, with the same bits as one fit per
    class.
    """
    n, num_classes = _train_scores(ctx).shape
    pos = ctx.train_labels == np.arange(num_classes)[:, None]
    n_pos = pos.sum(axis=1)
    one_sided = np.flatnonzero((n_pos == 0) | (n_pos == n))
    if len(one_sided):
        raise ParameterError(
            f"class {one_sided[0]}: need at least one positive and one negative sample"
        )
    a = np.zeros(num_classes)
    c = np.zeros(num_classes)
    converged = np.zeros(num_classes, dtype=bool)
    block = max(1, PLATT_BLOCK_ELEMENTS // n)
    for lo in range(0, num_classes, block):
        rows = slice(lo, lo + block)
        scores = np.ascontiguousarray(ctx.train_scores[:, rows].T)
        a[rows], c[rows], converged[rows] = _platt_block(scores, pos[rows])
    state = CalibratorState("pl", {"A": a, "C": c})
    state.flags["converged"] = converged
    return state


def apply_platt(state, scores):
    """1 / (1 + exp(clip(s A + C))) per class, in one allocation."""
    return _platt_sigmoid(scores, state.params["A"], state.params["C"])


# ---------------------------------------------------------------------------
# per-class factors: th, mb and fj each fit one factor per class


def fit_threshold(ctx):
    """Factors (sum n_l) / n_i, dividing each probability by its class
    prior; the class counts must be strictly positive."""
    counts = np.asarray(ctx.class_counts, dtype=np.float64)
    if np.any(counts <= 0):
        raise ParameterError("class counts must be strictly positive")
    return CalibratorState("th", {"factors": counts.sum() / counts})


def apply_factors(state, x):
    """Multiply each class's column by its fitted factor."""
    return np.asarray(x, dtype=np.float64) * state.params["factors"]


# One multiply under three names: bench/spans.py wraps each name, and
# calibrate calls each method's apply through its own name, so a traced
# run still times th, mb and fj apply separately.
apply_threshold = apply_mb = apply_fj = apply_factors


# ---------------------------------------------------------------------------
# nearest mean of exemplars


def _exemplar_rows(ctx):
    """Each class's row ids into ``ctx.table`` from the memory, in herded order."""
    if ctx.table is None or ctx.buffer is None:
        raise ConfigurationError("nem and bal need the exemplar memory")
    rows = [ctx.buffer.classes.get(c, ()) for c in range(ctx.num_classes)]
    for c, r in enumerate(rows):
        if len(r) == 0:
            raise ConfigurationError(f"class {c} has no exemplars in memory")
    return rows


def fit_nem(ctx):
    """Per-class exemplar means, computed after exemplar selection."""
    means = [ctx.table.features[r].mean(axis=0) for r in _exemplar_rows(ctx)]
    return CalibratorState("nem", {"means": np.vstack(means)})


def apply_nem(state, features):
    """Inverse Euclidean distance to each class mean; argmax = nearest mean.

    Squared distances are taken in Gram form, |x|^2 - 2 x.mu + |mu|^2 clamped
    at 0, NEM_CHUNK_ROWS test rows at a time, so no temporary is larger than
    one block's (rows, N). Near a mean the form cancels: wherever its
    rounding bound (``memory.gram_error_bound``) exceeds NEM_RTOL of its
    value, the entry is recomputed as the direct sum of squared differences.
    So every output is within NEM_RTOL (relative) of the direct form's, and
    has its bits wherever recomputed; a row equal to a mean scores exactly
    1 / NEM_EPSILON.
    """
    features = np.asarray(features, dtype=np.float64)
    means = state.params["means"]
    mean_sq = np.einsum("ij,ij->i", means, means)
    out = np.empty((len(features), len(means)))
    for lo in range(0, len(features), NEM_CHUNK_ROWS):
        x = features[lo : lo + NEM_CHUNK_ROWS]
        x_sq = np.einsum("ij,ij->i", x, x)[:, None]
        sq = out[lo : lo + NEM_CHUNK_ROWS]
        np.matmul(x, means.T, out=sq)
        sq *= -2.0
        sq += x_sq
        sq += mean_sq
        np.maximum(sq, 0.0, out=sq)
        # (|x| + |mu|)^2 <= 2 (|x|^2 + |mu|^2); an inf or NaN on either side
        # makes the difference NaN or -inf, which sends the entry direct too
        bound = memory.gram_error_bound(means.shape[1], 2 * (x_sq + mean_sq))
        i, j = np.nonzero(~(sq * NEM_RTOL - bound >= 0))
        sq[i, j] = ((x[i] - means[j]) ** 2).sum(axis=1)
    np.sqrt(out, out=out)
    out += NEM_EPSILON
    return np.divide(1.0, out, out=out)


# ---------------------------------------------------------------------------
# balanced fine tuning


def fit_balanced(ctx, model, config):
    """Retrain a copy of the classification layer on a balanced exemplar table.

    Each class contributes the train-split rows among its first floor(B / N)
    exemplars; ``train`` fits every row it is given.
    """
    rows = [r[:ctx.buffer.capacity // ctx.num_classes] for r in _exemplar_rows(ctx)]
    rows = [r[ctx.table.splits[r] == TRAIN] for r in rows]
    retrained = backbone.train(model, ctx.table.subset(np.concatenate(rows)), config)
    state = CalibratorState("bal", {"weights": retrained.weights, "biases": retrained.biases})
    state.flags["per_class_used"] = {c: len(r) for c, r in enumerate(rows)}
    return state


def apply_balanced(state, features):
    model = backbone.LinearModel(state.params["weights"], state.params["biases"])
    return backbone.scores(model, features)


# ---------------------------------------------------------------------------
# batch mean


def fit_mb(ctx):
    """Old-class factor mu_new / mu_old from ground-truth validation scores."""
    flags = {}
    mu_old, mu_new = group_mean_scores(
        ctx.val_scores, ctx.val_labels, (ctx.old_classes, ctx.new_classes)
    )
    if not ctx.old_classes:
        flags["identity"] = "no old classes at the first state"
    elif mu_old is None or mu_new is None:
        flags["identity"] = "a class group has no validation samples"
    else:
        flags["mu_old"], flags["mu_new"] = mu_old, mu_new
        if mu_old <= 0:
            flags["identity"] = "non-positive old-class mean score"
    r = 1.0 if "identity" in flags else mu_new / mu_old
    factors = np.ones(ctx.num_classes)
    factors[np.array(ctx.old_classes, dtype=np.int64)] = r
    return CalibratorState("mb", {"ratio": r, "factors": factors}, flags)


# ---------------------------------------------------------------------------
# Fisher-Jenks


def _fj_factors(ctx, num_clusters):
    assignments = fisher_jenks(ctx.class_counts, num_clusters).assignments
    groups = [np.flatnonzero(assignments == cl) for cl in range(num_clusters)]
    cluster_means = np.array([
        np.nan if mu is None else mu
        for mu in group_mean_scores(ctx.val_scores, ctx.val_labels, groups)
    ])

    # clusters are ordered by ascending count, so the last one holds the
    # classes with the largest per-class image counts
    mu_top = cluster_means[-1]
    factors = np.ones(ctx.num_classes)
    if np.isfinite(mu_top) and mu_top > 0:
        for cl in range(num_clusters):
            mu = cluster_means[cl]
            if np.isfinite(mu) and mu > 0:
                factors[assignments == cl] = mu_top / mu
    return factors


def fit_fj(ctx):
    """Cluster classes by image count; pick the cluster count on validation.

    For each L in 1..min(8, distinct counts) the class counts are clustered,
    each class's scores are scaled by mu(top cluster) / mu(its cluster), and
    the L with the best validation top-1 wins (ties to the smallest L).
    """
    best = None
    for num_clusters in range(1, min(8, len(set(ctx.class_counts.tolist()))) + 1):
        factors = _fj_factors(ctx, num_clusters)
        acc = top1(predict(ctx.val_scores * factors), ctx.val_labels)
        if best is None or acc > best[0]:
            best = (acc, num_clusters, factors)
    acc, chosen, factors = best
    return CalibratorState("fj", {"factors": factors, "num_clusters": chosen}, {"val_top1": acc})


# ---------------------------------------------------------------------------


def calibrate(method, ctx, raw, features=None, model=None, train_config=None):
    """Fit ``method`` on ctx and return its calibrated scores for the test rows.

    ``raw`` holds the test rows' raw scores and ``none`` returns it as is;
    the FEATURE_METHODS read the test ``features`` instead, and bal
    retrains a copy of ``model`` under ``train_config``.
    """
    if method == "none":
        return raw
    if method == "iso":
        return apply_isotonic(fit_isotonic(ctx), raw)
    if method == "pl":
        return apply_platt(fit_platt(ctx), raw)
    if method == "th":
        return apply_threshold(fit_threshold(ctx), backbone.softmax(raw))
    if method == "nem":
        return apply_nem(fit_nem(ctx), features)
    if method == "bal":
        return apply_balanced(fit_balanced(ctx, model, train_config), features)
    if method == "mb":
        return apply_mb(fit_mb(ctx), raw)
    if method == "fj":
        return apply_fj(fit_fj(ctx), raw)
    raise ParameterError(f"unknown calibrator tag: {method!r}")


def predict(calibrated_scores):
    """Argmax with lowest-index tie-break; works on a row or a matrix."""
    scores = np.asarray(calibrated_scores)
    if scores.size == 0:
        raise ParameterError("cannot predict from empty scores")
    return np.argmax(scores, axis=-1)
