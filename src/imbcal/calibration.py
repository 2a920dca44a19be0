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

from . import backbone
from .breaks import fisher_jenks
from .dataset import DatasetTable
from .errors import ConfigurationError, ParameterError
from .metrics import top1

METHOD_TAGS = ("iso", "pl", "th", "nem", "bal", "mb", "fj")
# calibrators that read the test features rather than the test scores
FEATURE_METHODS = ("nem", "bal")

NEM_EPSILON = 1e-12
NEM_CHUNK_ROWS = 64
PLATT_MAX_ITER = 100
PLATT_GRAD_TOL = 1e-9


@dataclass(frozen=True)
class CalibContext:
    """Everything a calibrator may fit on at one incremental state.

    Class ids are assumed contiguous 0..N-1 in model-row order;
    ``class_counts[i]`` is the number of train records of class i in the
    current training set.
    """

    train_scores: np.ndarray  # (n, N) raw scores of the training records
    train_labels: np.ndarray
    val_scores: np.ndarray  # (m, N) raw scores of the validation records
    val_labels: np.ndarray
    class_counts: np.ndarray  # (N,)
    old_classes: tuple
    new_classes: tuple
    exemplars: DatasetTable | None = None  # the memory, class by class in herded order
    memory_capacity: int | None = None

    @property
    def num_classes(self):
        return len(self.class_counts)


@dataclass
class CalibratorState:
    method: str
    params: dict
    flags: dict = field(default_factory=dict)

    def to_json(self):
        def conv(v):
            if isinstance(v, np.ndarray):
                return v.tolist()
            if isinstance(v, dict):
                return {str(k): conv(x) for k, x in v.items()}
            if isinstance(v, (list, tuple)):
                return [conv(x) for x in v]
            if isinstance(v, (np.integer, np.floating)):
                return v.item()
            return v

        return {
            "method": self.method,
            "params": conv(self.params),
            "flags": conv(self.flags),
        }


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


def fit_step_map(scores, targets):
    """Isotonic step map for one class: (boundaries, levels).

    Equal scores are pooled first (a step function cannot separate them);
    boundaries are midpoints between adjacent distinct scores where the
    fitted level changes.
    """
    scores = np.asarray(scores, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    order = np.argsort(scores, kind="stable")
    xs, ys = scores[order], targets[order]
    start = np.flatnonzero(np.append(True, xs[1:] != xs[:-1]))
    ux = xs[start]
    pooled = np.add.reduceat(ys, start)
    counts = np.diff(np.append(start, len(xs)))
    fitted = pava(pooled / counts, counts)

    change = np.flatnonzero(fitted[1:] != fitted[:-1]) + 1
    boundaries = (ux[change - 1] + ux[change]) / 2.0
    levels = np.append(fitted[0], fitted[change])
    return boundaries, levels


def apply_step_map(boundaries, levels, scores):
    idx = np.searchsorted(boundaries, scores, side="right")
    return levels[idx]


def fit_isotonic(ctx):
    """Per-class one-vs-all isotonic maps fitted on the training scores."""
    n, num_classes = ctx.train_scores.shape
    boundaries, levels = {}, {}
    for c in range(num_classes):
        targets = (ctx.train_labels == c).astype(np.float64)
        positives = targets.sum()
        if positives == 0 or positives == n:
            warnings.warn(f"class {c}: no score overlap to fit; keeping identity map")
            continue
        b, l = fit_step_map(ctx.train_scores[:, c], targets)
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


def _platt_nll(s, t, a, c):
    """Negative log-likelihood at (a, c), and the unclipped probabilities."""
    z = np.clip(a * s + c, -500, 500)
    p = 1.0 / (1.0 + np.exp(z))
    q = np.clip(p, 1e-15, 1 - 1e-15)
    return float(-(t * np.log(q) + (1 - t) * np.log(1 - q)).sum()), p


def platt_fit_binary(scores, positive_mask):
    """Maximum-likelihood sigmoid fit with Platt's target smoothing.

    Newton-Raphson with backtracking, at most PLATT_MAX_ITER iterations;
    returns (A, C, converged), keeping the best iterate on
    non-convergence. Each iterate's likelihood is evaluated once: the line
    search's last evaluation is the next iteration's starting point.
    """
    s = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(positive_mask, dtype=bool)
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    if n_pos == 0 or n_neg == 0:
        raise ParameterError("need at least one positive and one negative sample")
    t = np.where(pos, (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (n_neg + 2.0))
    ss = s * s

    a, c = 0.0, float(np.log((n_neg + 1.0) / (n_pos + 1.0)))
    current, p = _platt_nll(s, t, a, c)
    best = (current, a, c)
    converged = False
    for _ in range(PLATT_MAX_ITER):
        residual = t - p
        grad = np.array([np.sum(s * residual), np.sum(residual)])
        if np.abs(grad).max() < PLATT_GRAD_TOL:
            converged = True
            break
        w = p * (1.0 - p)
        sw = np.sum(s * w)
        hess = np.array([[np.sum(ss * w), sw], [sw, np.sum(w)]]) + 1e-12 * np.eye(2)
        try:
            delta = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            break
        step = 1.0
        for _ in range(30):
            a2, c2 = a - step * delta[0], c - step * delta[1]
            nll, p = _platt_nll(s, t, a2, c2)
            if nll <= current + 1e-12:
                break
            step /= 2.0
        a, c, current = a2, c2, nll
        if nll < best[0]:
            best = (nll, a, c)
    if not converged:
        _, a, c = best
    return a, c, converged


def fit_platt(ctx):
    """Per-class one-vs-all Platt parameters (A, C) on the training scores."""
    n, num_classes = ctx.train_scores.shape
    a = np.zeros(num_classes)
    c = np.zeros(num_classes)
    converged = np.zeros(num_classes, dtype=bool)
    for cls in range(num_classes):
        pos = ctx.train_labels == cls
        a[cls], c[cls], converged[cls] = platt_fit_binary(ctx.train_scores[:, cls], pos)
    state = CalibratorState("pl", {"A": a, "C": c})
    state.flags["converged"] = converged
    return state


def apply_platt(state, scores):
    scores = np.asarray(scores, dtype=np.float64)
    z = np.clip(scores * state.params["A"] + state.params["C"], -500, 500)
    return 1.0 / (1.0 + np.exp(z))


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
    """Each class's row ids into ``ctx.exemplars``, in herded order."""
    rows = [np.flatnonzero(ctx.exemplars.labels == c) for c in range(ctx.num_classes)]
    for c, r in enumerate(rows):
        if len(r) == 0:
            raise ConfigurationError(f"class {c} has no exemplars in memory")
    return rows


def fit_nem(ctx):
    """Per-class exemplar means, computed after exemplar selection."""
    if ctx.exemplars is None:
        raise ConfigurationError("nem needs the exemplar memory")
    means = [ctx.exemplars.features[r].mean(axis=0) for r in _exemplar_rows(ctx)]
    return CalibratorState("nem", {"means": np.vstack(means)})


def apply_nem(state, features):
    """Inverse Euclidean distance to each class mean; argmax = nearest mean."""
    features = np.asarray(features, dtype=np.float64)
    means = state.params["means"]
    # squared distances NEM_CHUNK_ROWS test rows at a time, so the (rows,
    # N, d) difference tensor stays small; each row's sums are unchanged
    sq = np.empty((len(features), len(means)))
    for lo in range(0, len(features), NEM_CHUNK_ROWS):
        diff = features[lo : lo + NEM_CHUNK_ROWS, None, :] - means[None, :, :]
        sq[lo : lo + NEM_CHUNK_ROWS] = (diff**2).sum(axis=2)
    return 1.0 / (np.sqrt(sq) + NEM_EPSILON)


# ---------------------------------------------------------------------------
# balanced fine tuning


def fit_balanced(ctx, model, config):
    """Retrain a copy of the classification layer on a balanced exemplar table.

    Each class contributes its first floor(B / N) exemplars, or everything
    it has when fewer are stored.
    """
    if ctx.exemplars is None or ctx.memory_capacity is None:
        raise ConfigurationError("bal needs the exemplar memory and its capacity")
    quota = ctx.memory_capacity // ctx.num_classes
    rows = [r[:quota] for r in _exemplar_rows(ctx)]
    retrained = backbone.train(model, ctx.exemplars.subset(np.concatenate(rows)), config)
    state = CalibratorState("bal", {"weights": retrained.weights, "biases": retrained.biases})
    state.flags["per_class_used"] = {c: len(r) for c, r in enumerate(rows)}
    return state


def apply_balanced(state, features):
    features = np.asarray(features, dtype=np.float64)
    return features @ state.params["weights"].T + state.params["biases"]


# ---------------------------------------------------------------------------
# batch mean


def fit_mb(ctx):
    """Old-class factor mu_new / mu_old from ground-truth validation scores."""
    flags = {}
    truth = ctx.val_scores[np.arange(len(ctx.val_labels)), ctx.val_labels]
    old = np.array(ctx.old_classes, dtype=np.int64)
    old_mask = np.isin(ctx.val_labels, old)
    new_mask = np.isin(ctx.val_labels, np.array(ctx.new_classes, dtype=np.int64))
    if not ctx.old_classes:
        flags["identity"] = "no old classes at the first state"
    elif not old_mask.any() or not new_mask.any():
        flags["identity"] = "a class group has no validation samples"
    else:
        flags["mu_old"] = float(truth[old_mask].mean())
        flags["mu_new"] = float(truth[new_mask].mean())
        if flags["mu_old"] <= 0:
            flags["identity"] = "non-positive old-class mean score"
    r = 1.0 if "identity" in flags else flags["mu_new"] / flags["mu_old"]
    factors = np.ones(ctx.num_classes)
    factors[old] = r
    return CalibratorState("mb", {"ratio": r, "factors": factors}, flags)


# ---------------------------------------------------------------------------
# Fisher-Jenks


def _fj_factors(ctx, num_clusters):
    assignments = fisher_jenks(ctx.class_counts, num_clusters).assignments
    truth = ctx.val_scores[np.arange(len(ctx.val_labels)), ctx.val_labels]
    sample_cluster = assignments[ctx.val_labels]

    cluster_means = np.full(num_clusters, np.nan)
    for cl in range(num_clusters):
        mask = sample_cluster == cl
        if mask.any():
            cluster_means[cl] = truth[mask].mean()

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
    for num_clusters in range(1, min(8, len(np.unique(ctx.class_counts))) + 1):
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
