"""Accuracy, calibration-error and score-bias metrics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

ECE_BINS_DEFAULT = 20
ECE_BINS_MAX = 2**62  # so each bin id, floor(conf * M) with conf <= 1, is an exact int64


@dataclass
class MethodResult:
    top1: float
    ece: float


@dataclass
class StateReport:
    state_index: int
    mean_score_old: float | None  # absent at the first state
    mean_score_new: float | None
    per_method: dict = field(default_factory=dict)  # method tag -> MethodResult


def top1(predictions, labels):
    """Top-1 accuracy in percent."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape or len(predictions) < 1:
        raise ParameterError("predictions and labels must have equal non-zero length")
    return float(100.0 * np.mean(predictions == labels))


def average_incremental_accuracy(per_state_values):
    """Mean over states 2..k; the first, non-incremental state is ignored.

    The one averaging rule of a run's summary, for top-1 and ECE alike.
    """
    values = list(per_state_values)
    if len(values) < 2:
        raise ParameterError("need at least two states to average")
    return float(np.mean(values[1:]))


def ece(probabilities, predictions, labels, m=ECE_BINS_DEFAULT):
    """Expected Calibration Error over M equal-width confidence bins.

    Bin b holds the confidences in [b/M, (b+1)/M), and the last bin also
    holds 1.0. Each occupied bin, in ascending order, adds its share of the
    samples times |mean confidence - accuracy|; an empty bin is never
    visited, so M (at most ECE_BINS_MAX) does not set the cost.
    """
    probabilities = np.asarray(probabilities, dtype=np.float64)
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if m < 1:
        raise ParameterError("M must be >= 1")
    if probabilities.ndim != 2 or len(probabilities) != len(labels) or len(predictions) != len(labels):
        raise ParameterError("probabilities, predictions and labels must align")
    if np.any(np.abs(probabilities.sum(axis=1) - 1.0) > 1e-6):
        raise ParameterError("probability rows must sum to 1")
    conf = probabilities.max(axis=1)
    correct = (predictions == labels).astype(np.float64)
    idx = np.minimum(np.floor(conf * m).astype(np.int64), m - 1)
    n = len(labels)
    return float(sum(
        (int(mask.sum()) / n) * abs(float(conf[mask].mean()) - float(correct[mask].mean()))
        # return_counts keeps np.unique from importing numpy.ma
        for mask in (idx == b for b in np.unique(idx, return_counts=True)[0])
    ))


def group_mean_scores(val_scores, labels, groups):
    """Mean ground-truth-class raw score of the samples of each class group.

    ``groups`` is a sequence of class-id collections. Returns one mean per
    group, None for a group with no samples.
    """
    val_scores = np.asarray(val_scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    truth = val_scores[np.arange(len(labels)), labels]
    masks = (np.isin(labels, np.array(list(group), dtype=np.int64)) for group in groups)
    return [float(truth[mask].mean()) if mask.any() else None for mask in masks]
