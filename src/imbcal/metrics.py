"""Accuracy, calibration-error and score-bias metrics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

ECE_BINS_DEFAULT = 20


@dataclass(frozen=True)
class ReliabilityBin:
    lo: float
    hi: float
    count: int
    conf: float  # mean confidence of samples in the bin (0 when empty)
    acc: float  # fraction of correct predictions in the bin (0 when empty)


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


def _bin_indices(confidences, m):
    idx = np.floor(confidences * m).astype(np.int64)
    return np.minimum(idx, m - 1)  # confidence 1.0 falls in the last, closed bin


def _validate_probs(probabilities, predictions, labels, m):
    probabilities = np.asarray(probabilities, dtype=np.float64)
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if m < 1:
        raise ParameterError("M must be >= 1")
    if probabilities.ndim != 2 or len(probabilities) != len(labels) or len(predictions) != len(labels):
        raise ParameterError("probabilities, predictions and labels must align")
    sums = probabilities.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-6):
        raise ParameterError("probability rows must sum to 1")
    return probabilities, predictions, labels


def ece(probabilities, predictions, labels, m=ECE_BINS_DEFAULT):
    """Expected Calibration Error over M equal-width confidence bins."""
    return ece_from_table(reliability_table(probabilities, predictions, labels, m), len(labels))


def reliability_table(probabilities, predictions, labels, m=ECE_BINS_DEFAULT):
    """Per-bin counts, mean confidence and accuracy; recomposes to ece exactly."""
    probabilities, predictions, labels = _validate_probs(probabilities, predictions, labels, m)
    conf = probabilities.max(axis=1)
    correct = (predictions == labels).astype(np.float64)
    idx = _bin_indices(conf, m)
    bins = []
    for b in range(m):
        mask = idx == b
        count = int(mask.sum())
        bins.append(
            ReliabilityBin(
                lo=b / m,
                hi=(b + 1) / m,
                count=count,
                conf=float(conf[mask].mean()) if count else 0.0,
                acc=float(correct[mask].mean()) if count else 0.0,
            )
        )
    return bins


def ece_from_table(bins, n):
    return float(sum((b.count / n) * abs(b.conf - b.acc) for b in bins if b.count))


def group_mean_scores(val_scores, labels, old_classes, new_classes):
    """Mean ground-truth-class raw score for old-class and new-class samples.

    Returns (mu_old, mu_new); mu_old is None when no old-class samples
    exist (first incremental state).
    """
    val_scores = np.asarray(val_scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) == 0:
        raise ParameterError("no validation samples")
    truth = val_scores[np.arange(len(labels)), labels]
    old_mask = np.isin(labels, np.array(list(old_classes), dtype=np.int64))
    new_mask = np.isin(labels, np.array(list(new_classes), dtype=np.int64))
    if not new_mask.any():
        raise ParameterError("no samples from new classes")
    mu_new = float(truth[new_mask].mean())
    mu_old = float(truth[old_mask].mean()) if old_mask.any() else None
    return mu_old, mu_new
