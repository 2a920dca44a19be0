"""Linear softmax classifier over fixed features, grown state by state.

Only the classification layer is trainable; features come from the
dataset as-is. Training is plain mini-batch SGD on cross-entropy with a
plateau learning-rate schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import ParameterError

# mean-epoch-loss improvement below this counts as a plateau epoch
PLATEAU_TOL = 1e-4


@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray  # (num_classes, dim)
    biases: np.ndarray  # (num_classes,)

    def __post_init__(self):
        if self.weights.ndim != 2 or self.biases.shape != (self.weights.shape[0],):
            raise ParameterError("weights must be (N, d) with matching biases")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.biases).all()):
            raise ParameterError("model parameters must be finite")

    @property
    def num_classes(self):
        return self.weights.shape[0]

    @property
    def dim(self):
        return self.weights.shape[1]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 25
    initial_lr: float = 0.1
    plateau_patience: int = 5
    lr_decay: float = 0.1
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        # each refusal names the key of the config's "train" section
        for key, ok, allowed in (
            ("epochs", self.epochs >= 1, ">= 1"),
            ("lr", self.initial_lr > 0, "> 0"),
            ("patience", self.plateau_patience >= 1, ">= 1"),
            ("decay", 0 < self.lr_decay < 1, "in (0, 1)"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
        ):
            if not ok:
                raise ParameterError(f"train.{key} must be {allowed}")


def extend_model(prev, new_class_count, dim, seed):
    """Append rows for new classes; previous rows are copied verbatim.

    New rows are zero-mean Gaussian with stddev 1/sqrt(dim); new biases
    are zero.
    """
    if new_class_count < 1:
        raise ParameterError("new_class_count must be >= 1")
    if prev is not None and prev.dim != dim:
        raise ParameterError(f"dim mismatch: model has {prev.dim}, got {dim}")
    generator = rng.op_rng(seed, rng.INIT)
    new_rows = generator.normal(size=(new_class_count, dim)) / np.sqrt(dim)
    new_biases = np.zeros(new_class_count)
    if prev is None:
        return LinearModel(new_rows, new_biases)
    return LinearModel(
        np.vstack([prev.weights, new_rows]), np.concatenate([prev.biases, new_biases])
    )


def scores(model, features):
    """Raw (pre-softmax) scores W f + b of an (n, d) matrix, one row per sample."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != model.dim:
        raise ParameterError(
            f"features of shape {features.shape} do not match model dim {model.dim}"
        )
    out = features @ model.weights.T
    out += model.biases  # in place: one (n, N) allocation
    return out


def softmax(score_matrix, out=None):
    """Row-wise softmax with max-subtraction for numerical stability.

    One (n, N) allocation: the shift, exp and division run in place. With
    ``out`` there is none, and ``out=score_matrix`` overwrites the scores.
    """
    s = np.asarray(score_matrix, dtype=np.float64)
    out = np.subtract(s, s.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def train(model, table, config):
    """Mini-batch SGD on softmax cross-entropy over every record of ``table``.

    The learning rate is multiplied by ``lr_decay`` whenever the mean
    epoch loss fails to improve by at least PLATEAU_TOL for
    ``plateau_patience`` consecutive epochs. Deterministic given the
    config seed.
    """
    if len(table) == 0:
        raise ParameterError("no records to train on")
    if table.labels.max() >= model.num_classes:
        raise ParameterError("table contains labels beyond the model's classes")
    if table.dim != model.dim:
        raise ParameterError("feature dimension does not match the model")

    X, y = table.features, table.labels
    n = len(y)
    W = model.weights.copy()
    b = model.biases.copy()
    generator = rng.op_rng(config.seed, rng.SHUFFLE)

    lr = config.initial_lr
    best = np.inf
    stall = 0
    # flat position of each batch row's first logit; a batch holds at most n rows
    row_starts = np.arange(min(config.batch_size, n)) * W.shape[0]
    for _ in range(config.epochs):
        perm = generator.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            m = len(idx)
            Xb = X.take(idx, axis=0)
            at = row_starts[:m] + y.take(idx)
            # one exp per batch serves both the loss and the softmax gradient;
            # the logits are shifted and the exps turned into the gradient in place
            shifted = Xb @ W.T
            shifted += b
            shifted -= shifted.max(axis=1, keepdims=True)
            grad = np.exp(shifted)
            z = grad.sum(axis=1, keepdims=True)
            epoch_loss += float((np.log(z[:, 0]) - shifted.take(at)).sum() / m) * m
            grad /= z
            grad.ravel()[at] -= 1.0
            grad /= m
            W -= (lr * grad.T) @ Xb
            b -= lr * grad.sum(axis=0)
        epoch_loss /= n
        if best - epoch_loss >= PLATEAU_TOL:
            best = epoch_loss
            stall = 0
        else:
            stall += 1
            if stall >= config.plateau_patience:
                lr *= config.lr_decay
                stall = 0
    return LinearModel(W, b)
