"""The fast kernels against the straightforward loops they replaced.

Each oracle below is the plain implementation the fast one replaced:
list-based PAVA, Platt's one-class Newton fit that re-evaluates the
likelihood at every step (the fast fit runs blocks of classes in
lockstep), the scalar Fisher-Jenks DP, nem's full (n, N, d) difference
tensor, herding that orders every row of one class, SGD that takes the
softmax and the loss with an exp each, the feature and score CSV
loaders that call ``float`` on each ``csv.reader`` cell, ECE visiting
every one of its bins, the th and mb applies that preceded the shared
per-class factor multiply, softmax and Platt's apply with a new array per
step, each apply into a new matrix rather than over the scores it is
handed, the scores' bias added into a second matrix, Platt in blocks of
2^15 scores, nem and bal reading the memory copied out as one table, a
state's rows copied out as tables and joined
before a train mask split them, and the table build that drew, scanned
and relabeled one class at a time. The fast versions perform the same
IEEE operations on the same operands, so results must match bit for bit
(``tobytes()``), not merely to a tolerance; the loaders must also fail
with the same message and line.
One exception: nem takes its distances in Gram form, which keeps the
direct form's bits only where it falls back to it, and is otherwise held
to NEM_RTOL (relative) and the same argmax.

Two oracles do not share the code's maths: herding's greedy definition
in exact ``Fraction`` arithmetic, and one full-batch SGD step against
W - lr * grad with the gradient from scipy's finite differences.

One test checks one source rather than an oracle: at every state of the
README run, the group means mb rescales by are the reported figdata means.
"""

import csv
import json
import math
import re
import tempfile
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imbcal import backbone, calibration, dataset, harness, memory, metrics, rng
from imbcal.backbone import PLATEAU_TOL, LinearModel, TrainConfig, extend_model, softmax, train
from imbcal.breaks import _check, _result, fisher_jenks
from imbcal.calibration import (
    NEM_CHUNK_ROWS,
    NEM_EPSILON,
    NEM_RTOL,
    PLATT_BLOCK_ELEMENTS,
    PLATT_GRAD_TOL,
    PLATT_MAX_ITER,
    CalibContext,
    CalibratorState,
    apply_fj,
    apply_isotonic,
    apply_mb,
    apply_nem,
    apply_platt,
    apply_step_map,
    apply_threshold,
    fit_mb,
    fit_platt,
    fit_step_map,
    fit_threshold,
    pava,
)
from imbcal.cli import _read_counts, _read_scores, main
from imbcal.dataset import SPLITS, TEST, TRAIN, VAL, DatasetTable, _class_id, load_features
from imbcal.errors import FormatError, ParameterError
from imbcal.memory import _screen, herd_order
from test_dataset import imbalanced as _imbalanced
from test_dataset import split as _split
from test_golden import GOLDEN, README_CONFIG

# ---------------------------------------------------------------------------
# oracles


def oracle_pava(values, weights=None):
    values = np.asarray(values, dtype=np.float64)
    if weights is None:
        weights = np.ones_like(values)
    weights = np.asarray(weights, dtype=np.float64)
    levels, wsum, counts = [], [], []
    for v, w in zip(values, weights):
        levels.append(v)
        wsum.append(w)
        counts.append(1)
        while len(levels) > 1 and levels[-2] > levels[-1]:
            w_new = wsum[-2] + wsum[-1]
            levels[-2] = (levels[-2] * wsum[-2] + levels[-1] * wsum[-1]) / w_new
            wsum[-2] = w_new
            counts[-2] += counts[-1]
            del levels[-1], wsum[-1], counts[-1]
    return np.repeat(levels, counts)


def oracle_fit_step_map(scores, targets):
    scores = np.asarray(scores, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    order = np.argsort(scores, kind="stable")
    xs, ys = scores[order], targets[order]
    ux, start = np.unique(xs, return_index=True)
    pooled = np.add.reduceat(ys, start)
    counts = np.diff(np.concatenate([start, [len(xs)]]))
    fitted = oracle_pava(pooled / counts, counts)
    boundaries, levels = [], [float(fitted[0])]
    for g in range(1, len(ux)):
        if fitted[g] != fitted[g - 1]:
            boundaries.append(float((ux[g - 1] + ux[g]) / 2.0))
            levels.append(float(fitted[g]))
    return np.array(boundaries), np.array(levels)


def _oracle_platt_nll(s, t, a, c):
    z = np.clip(a * s + c, -500, 500)
    p = np.clip(1.0 / (1.0 + np.exp(z)), 1e-15, 1 - 1e-15)
    return float(-(t * np.log(p) + (1 - t) * np.log(1 - p)).sum())


def oracle_platt(scores, positive_mask):
    s = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(positive_mask, dtype=bool)
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    t = np.where(pos, (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (n_neg + 2.0))
    a, c = 0.0, float(np.log((n_neg + 1.0) / (n_pos + 1.0)))
    best = (_oracle_platt_nll(s, t, a, c), a, c)
    converged = False
    for _ in range(PLATT_MAX_ITER):
        z = np.clip(a * s + c, -500, 500)
        p = 1.0 / (1.0 + np.exp(z))
        grad = np.array([np.sum(s * (t - p)), np.sum(t - p)])
        if np.abs(grad).max() < PLATT_GRAD_TOL:
            converged = True
            break
        w = p * (1.0 - p)
        hess = np.array(
            [[np.sum(s * s * w), np.sum(s * w)], [np.sum(s * w), np.sum(w)]]
        ) + 1e-12 * np.eye(2)
        try:
            delta = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            break
        current = _oracle_platt_nll(s, t, a, c)
        step = 1.0
        a2, c2 = a, c
        for _ in range(30):
            a2, c2 = a - step * delta[0], c - step * delta[1]
            if _oracle_platt_nll(s, t, a2, c2) <= current + 1e-12:
                break
            step /= 2.0
        a, c = a2, c2
        nll = _oracle_platt_nll(s, t, a, c)
        if nll < best[0]:
            best = (nll, a, c)
    if not converged:
        _, a, c = best
    return a, c, converged


def oracle_fisher_jenks(values, L):
    values = _check(values, L)
    n = len(values)
    order = np.argsort(values, kind="stable")
    v = values[order]
    s1 = np.concatenate([[0.0], np.cumsum(v)])
    s2 = np.concatenate([[0.0], np.cumsum(v * v)])

    def seg_cost(i, j):
        m = j - i
        s = s1[j] - s1[i]
        return (s2[j] - s2[i]) - s * s / m

    best = np.full((L + 1, n + 1), np.inf)
    best[0, n] = 0.0
    best[1, :n] = [seg_cost(i, n) for i in range(n)]
    for j in range(2, L + 1):
        for i in range(n - j + 1):
            costs = [seg_cost(i, m) + best[j - 1, m] for m in range(i + 1, n - j + 2)]
            best[j, i] = min(costs)
    cuts = []
    i = 0
    for j in range(L, 1, -1):
        target = best[j, i]
        tol = 1e-9 * max(1.0, abs(target))
        for m in range(i + 1, n - j + 2):
            if seg_cost(i, m) + best[j - 1, m] <= target + tol:
                cuts.append(m)
                i = m
                break
    return _result(values, order, cuts)


def oracle_apply_nem(means, features):
    diff = features[:, None, :] - means[None, :, :]
    dists = np.sqrt((diff**2).sum(axis=2))
    return 1.0 / (dists + NEM_EPSILON)


def oracle_memory_table(buffer, table):
    """The memory copied out as one table, class by class, in herded order."""
    rows = [buffer.classes[c] for c in sorted(buffer.classes)]
    return table.subset(np.concatenate([np.empty(0, dtype=np.int64), *rows]))


def _oracle_exemplars(buffer, table, num_classes):
    """The memory copied out as one table, regrouped by scanning its labels."""
    exemplars = oracle_memory_table(buffer, table)
    return exemplars, [np.flatnonzero(exemplars.labels == c) for c in range(num_classes)]


def oracle_nem_means(buffer, table, num_classes):
    exemplars, rows = _oracle_exemplars(buffer, table, num_classes)
    return np.vstack([exemplars.features[r].mean(axis=0) for r in rows])


def oracle_balanced(buffer, table, num_classes, model, config):
    """bal's retrained layer: the train-split rows among the first floor(B / N)
    rows of each class of the copy."""
    exemplars, rows = _oracle_exemplars(buffer, table, num_classes)
    quota = buffer.capacity // num_classes
    balanced = exemplars.subset(np.concatenate([r[:quota] for r in rows]))
    return train(model, balanced.subset(balanced.splits == TRAIN), config)


def oracle_apply_threshold(class_counts, probs):
    """th before the factor vector: the fit kept the counts, apply divided."""
    probs = np.asarray(probs, dtype=np.float64)
    counts = np.asarray(class_counts, dtype=np.float64)
    return probs * (counts.sum() / counts)


def oracle_apply_mb(ratio, old_classes, scores):
    """mb before the factor vector: only the old columns are multiplied."""
    scores = np.asarray(scores, dtype=np.float64)
    out = scores.copy()
    old = list(old_classes)
    if old:
        out[:, old] = out[:, old] * ratio
    return out


def oracle_softmax(score_matrix):
    """softmax before it ran in place: a new array for the shift, the exp
    and the division."""
    s = np.asarray(score_matrix, dtype=np.float64)
    shifted = s - s.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def oracle_apply_platt(a, c, scores):
    """Platt's apply before it ran in place: a chain of temporaries."""
    z = np.clip(np.asarray(scores, dtype=np.float64) * a + c, -500, 500)
    return 1.0 / (1.0 + np.exp(z))


def oracle_ece(probabilities, predictions, labels, m):
    """ECE visiting every one of the M bins, empty or not."""
    conf = probabilities.max(axis=1)
    correct = (predictions == labels).astype(np.float64)
    idx = np.minimum(np.floor(conf * m).astype(np.int64), m - 1)
    n = len(labels)
    return float(sum(
        (int(mask.sum()) / n) * abs(float(conf[mask].mean()) - float(correct[mask].mean()))
        for mask in (idx == b for b in range(m)) if mask.any()
    ))


def oracle_herd_order(class_features):
    feats = np.asarray(class_features, dtype=np.float64)
    n = feats.shape[0]
    mu = feats.mean(axis=0)
    order = np.empty(n, dtype=np.int64)
    running = np.zeros(feats.shape[1])
    available = np.ones(n, dtype=bool)
    for t in range(1, n + 1):
        candidate_means = (running + feats) / t
        dists = np.sqrt(((candidate_means - mu) ** 2).sum(axis=1))
        dists[~available] = np.inf
        pick = int(np.argmin(dists))
        order[t - 1] = pick
        available[pick] = False
        running += feats[pick]
    return order


def _oracle_mean_loss(logits, labels):
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1))
    return float(np.mean(logz - shifted[np.arange(len(labels)), labels]))


def oracle_train(model, table, config):
    """The SGD loop with separate softmax and loss; also returns the final lr."""
    part = table.subset(table.splits == TRAIN)
    X, y = part.features, part.labels
    n = len(y)
    W = model.weights.copy()
    b = model.biases.copy()
    generator = rng.op_rng(config.seed, rng.SHUFFLE)
    lr = config.initial_lr
    best = np.inf
    stall = 0
    for _ in range(config.epochs):
        perm = generator.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            Xb, yb = X[idx], y[idx]
            logits = Xb @ W.T + b
            probs = softmax(logits)
            epoch_loss += _oracle_mean_loss(logits, yb) * len(idx)
            grad = probs
            grad[np.arange(len(idx)), yb] -= 1.0
            grad /= len(idx)
            W -= lr * grad.T @ Xb
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
    return LinearModel(W, b), lr


def oracle_load_features(features_path, manifest_path):
    """The csv.reader loader: one ``float`` call per cell."""
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    dim = int(manifest["dim"])
    num_classes = int(manifest["classes"])
    feats, labels, splits = [], [], []
    with open(features_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{features_path}: empty file") from None
        expected = ["label", "split"] + [f"f{i}" for i in range(dim)]
        if header != expected:
            raise FormatError(
                f"{features_path}: line 1: bad header, expected {','.join(expected)}"
            )
        for lineno, row in enumerate(reader, start=2):
            if len(row) != dim + 2:
                raise FormatError(
                    f"{features_path}: line {lineno}: expected {dim + 2} fields, got {len(row)}"
                )
            try:
                label = int(row[0])
            except ValueError:
                raise FormatError(
                    f"{features_path}: line {lineno}: non-integer label {row[0]!r}"
                ) from None
            if not 0 <= label < num_classes:
                raise FormatError(
                    f"{features_path}: line {lineno}: label {label} out of [0, {num_classes})"
                )
            if row[1] not in SPLITS:
                raise FormatError(
                    f"{features_path}: line {lineno}: unknown split tag {row[1]!r}"
                )
            try:
                values = list(map(float, row[2:]))
            except ValueError:
                raise FormatError(
                    f"{features_path}: line {lineno}: non-numeric feature value"
                ) from None
            labels.append(label)
            splits.append(row[1])
            feats.append(values)
    if not labels:
        raise FormatError(f"{features_path}: no records")
    feats = np.array(feats)
    bad = np.flatnonzero(~np.isfinite(feats).all(axis=1))
    if len(bad):
        raise FormatError(
            f"{features_path}: line {bad[0] + 2}: non-finite feature value"
        )
    table = DatasetTable(feats, np.array(labels), np.array(splits))
    census = table.census
    for c in table.classes():
        if census.get(c, 0) < 1:
            raise FormatError(f"{features_path}: class {c} has no train records")
    return table


def oracle_read_scores(path):
    """The csv.reader score loader: one ``float`` call per cell."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file") from None
        if not header or header[0] != "label":
            raise FormatError(f"{path}: first column must be 'label'")
        n_cols = len(header) - 1
        if n_cols < 1:
            raise FormatError(f"{path}: no score columns")
        labels, rows = [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != n_cols + 1:
                raise FormatError(f"{path}: line {lineno}: expected {n_cols + 1} fields")
            try:
                labels.append(int(row[0]))
                rows.append([float(v) for v in row[1:]])
            except ValueError:
                raise FormatError(f"{path}: line {lineno}: non-numeric value") from None
    if not rows:
        raise FormatError(f"{path}: no records")
    scores = np.array(rows)
    bad = np.flatnonzero(~np.isfinite(scores).all(axis=1))
    if len(bad):
        raise FormatError(f"{path}: line {bad[0] + 2}: non-finite score")
    labels = np.array(labels, dtype=np.int64)
    bad = np.flatnonzero((labels < 0) | (labels >= n_cols))
    if len(bad):
        raise FormatError(
            f"{path}: line {bad[0] + 2}: label {labels[bad[0]]} out of [0, {n_cols})"
        )
    return scores, labels


# a base-10 integer literal in ASCII digits, as int() reads one
_ORACLE_INTEGER = re.compile(r"\s*[+-]?[0-9]+(?:_[0-9]+)*\s*")


def _oracle_parse_count(text):
    """The integer in ``text`` as a float; OverflowError beyond any float."""
    try:
        return float(int(text))
    except ValueError:
        if not _ORACLE_INTEGER.fullmatch(text):
            raise
    n = float(text)
    if math.isinf(n):
        raise OverflowError(text)
    return n


def _oracle_class_id(text, num_classes):
    """The integer in ``text``, or None if it has more digits than any class id."""
    if not _ORACLE_INTEGER.fullmatch(text):
        return int(text)  # ValueError, or an id in digits beyond ASCII
    digits = text.strip().lstrip("+-").replace("_", "").lstrip("0")
    if len(digits) > len(str(num_classes)):
        return None
    return int(digits or "0") * (-1 if text.strip()[0] == "-" else 1)


def oracle_read_counts(path, num_classes):
    """The csv.reader counts loader: ``int`` per class id, ``float(int())`` per count."""
    counts = np.zeros(num_classes)
    listed = np.zeros(num_classes, dtype=bool)
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            if len(row) != 2:
                raise FormatError(f"{path}: line {lineno}: expected class,count")
            try:
                c, n = _oracle_class_id(row[0], num_classes), _oracle_parse_count(row[1])
            except ValueError:
                raise FormatError(f"{path}: line {lineno}: non-integer value") from None
            except OverflowError:
                raise FormatError(f"{path}: line {lineno}: count too large for a float") from None
            if c is None:
                raise FormatError(f"{path}: line {lineno}: class id out of range, too many digits")
            if not 0 <= c < num_classes:
                raise FormatError(f"{path}: line {lineno}: class {c} out of range")
            if listed[c]:
                raise FormatError(f"{path}: line {lineno}: class {c} listed twice")
            listed[c] = True
            counts[c] = n
    bad = np.flatnonzero(counts <= 0)
    if len(bad):
        raise FormatError(
            f"{path}: every class needs a positive count, class {bad[0]} has {counts[bad[0]]:g}"
        )
    return counts


def oracle_centers(generator, num_classes, dim, class_separation):
    """The centers, scaled by the least distance in the (C, C, d) difference tensor."""
    centers = generator.normal(size=(num_classes, dim))
    diff = centers[:, None, :] - centers[None, :, :]
    dist = np.sqrt((diff**2).sum(-1))
    dmin = dist[np.triu_indices(num_classes, k=1)].min()
    if dmin > 0:
        centers *= class_separation / dmin
    return centers


def oracle_generate_synthetic(num_classes, dim, count_per_class, class_separation,
                              noise_scale, seed, test_per_class=None):
    """Two normal draws per class, train then test, each added to its center."""
    if test_per_class is None:
        test_per_class = count_per_class
    generator = rng.op_rng(seed, rng.SYNTHETIC)
    centers = oracle_centers(generator, num_classes, dim, class_separation)
    feats, labels, splits = [], [], []
    for c in range(num_classes):
        for count, split in ((count_per_class, TRAIN), (test_per_class, TEST)):
            feats.append(centers[c] + noise_scale * generator.normal(size=(count, dim)))
            labels.append(np.full(count, c, dtype=np.int64))
            splits.append(np.full(count, split, dtype="<U5"))
    return DatasetTable(np.concatenate(feats), np.concatenate(labels), np.concatenate(splits))


def _oracle_train_rows(table, c):
    """Class c's train row ids, from a scan of the whole table."""
    return np.flatnonzero((table.labels == c) & (table.splits == TRAIN))


def oracle_apply_imbalance(table, kind, seed):
    if kind == "none":
        return table
    generator = rng.op_rng(seed, rng.IMBALANCE)
    census = table.census
    classes = sorted(census)
    targets = {}
    if kind == "soft":
        for c in classes:
            n = census[c]
            targets[c] = int(generator.integers(min(dataset.SOFT_MINIMUM, n), n + 1))
    else:
        order = list(classes)
        generator.shuffle(order)
        sizes = dataset.largest_remainder(len(order), dataset.STRONG_PROPORTIONS)
        pos = 0
        for (lo, hi), size in zip(dataset.STRONG_INTERVALS, sizes):
            for c in order[pos : pos + size]:
                n = census[c]
                hi_c = n if hi is None else min(hi, n)
                targets[c] = int(generator.integers(min(lo, n), hi_c + 1))
            pos += size
    keep = np.ones(len(table), dtype=bool)
    for c in classes:
        idx = _oracle_train_rows(table, c)
        if targets[c] < len(idx):
            kept = generator.choice(idx, size=targets[c], replace=False)
            keep[np.setdiff1d(idx, kept)] = False
    return table.subset(keep)


def oracle_split_train_val(table, fraction, seed):
    generator = rng.op_rng(seed, rng.SPLIT)
    splits = table.splits.copy()
    for c in sorted(table.census):
        idx = _oracle_train_rows(table, c)
        if len(idx) < 2:
            continue
        chosen = generator.choice(idx, size=math.ceil(fraction * len(idx)), replace=False)
        splits[chosen] = VAL
    return DatasetTable(table.features, table.labels, splits)


def oracle_relabeled(table, mapping):
    """One dict lookup per row."""
    labels = np.array([mapping[int(c)] for c in table.labels], dtype=np.int64)
    return DatasetTable(table.features, labels, table.splits)


# ---------------------------------------------------------------------------
# pava


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _ulp_walk(base, steps):
    """base moved by a whole number of ulps per entry: rounding-sensitive ties."""
    return [base + k * np.spacing(base) for k in steps]


weights_for = {
    "none": lambda n: st.just(None),
    "counts": lambda n: st.lists(st.integers(1, 50).map(float), min_size=n, max_size=n),
    "real": lambda n: st.lists(st.floats(0.01, 100), min_size=n, max_size=n),
}

value_lists = st.one_of(
    st.lists(st.sampled_from([0.0, 1.0]), max_size=80),  # binary targets
    st.lists(st.sampled_from([-2.5, -1.0, 0.0, 0.25, 3.0]), max_size=80),  # ties
    st.lists(st.floats(-1e3, 1e3), max_size=80),
    st.lists(st.floats(-50, 0), max_size=80),  # negative
    st.builds(
        _ulp_walk,
        st.sampled_from([0.1, 0.3, 1 / 3, 0.7, 2 / 3, -0.3]),
        st.lists(st.integers(-2, 2), max_size=40),
    ),
)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_pava_is_bitwise_equal_to_the_list_loop(data):
    values = data.draw(value_lists)
    kind = data.draw(st.sampled_from(sorted(weights_for)))
    weights = data.draw(weights_for[kind](len(values)))
    assert _same(pava(values, weights), oracle_pava(values, weights))


ULP_CASE = ([0.3, 0.30000000000000004, 0.3, 0.30000000000000004, 0.30000000000000004],
            [875.0, 149.0, 927.0, 111.0, 133.0])


@pytest.mark.parametrize("mirrored", [False, True])
def test_pava_reruns_when_a_rounded_mean_crosses_a_trimmed_value(mirrored):
    # pooled alone, the middle values give a mean of 0.29999999999999993,
    # an ulp below the leading 0.3 it must therefore pool with; mirrored,
    # the same happens against a trailing value
    values, weights = ULP_CASE
    if mirrored:
        values, weights = [-v for v in values[::-1]], weights[::-1]
    out = pava(values, weights)
    assert _same(out, oracle_pava(values, weights))
    assert np.abs(out[:3] if not mirrored else out[2:]).tolist() == [0.3] * 3


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.floats(-5, 5), st.booleans()), min_size=1, max_size=120),
    st.booleans(),
)
# -0.0 and 0.0 tie, in whichever order np.sort leaves them
@example([(0.0, True), (-0.0, False), (1.0, True), (-0.0, True), (-1.0, False), (0.0, False)],
         False)
@example([(0.7, True), (0.7, False), (0.7, False)], False)  # every score equal
@example([(0.1, False), (0.4, True), (0.3, False), (0.9, False)], False)  # one positive
def test_fit_step_map_is_bitwise_equal(pairs, rounded):
    scores = np.array([s for s, _ in pairs])
    if rounded:  # many equal scores
        scores = np.round(scores, 0)
    positive = np.array([y for _, y in pairs], dtype=bool)
    b, l = fit_step_map(scores, positive)
    ob, ol = oracle_fit_step_map(scores, positive.astype(np.float64))
    assert _same(b, ob) and _same(l, ol)


# ---------------------------------------------------------------------------
# Platt


def _platt_bytes(result):
    a, c, converged = result
    return np.float64(a).tobytes(), np.float64(c).tobytes(), bool(converged)


def _assert_platt_matches_oracle(scores, labels):
    """fit_platt on the (n, N) scores equals oracle_platt on each column."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    num_classes = scores.shape[1]
    ctx = CalibContext(scores, labels, scores, labels,
                       np.bincount(labels, minlength=num_classes), (), tuple(range(num_classes)))
    state = fit_platt(ctx)
    fitted = zip(state.params["A"], state.params["C"], state.flags["converged"])
    for c, result in enumerate(fitted):
        assert _platt_bytes(result) == _platt_bytes(oracle_platt(scores[:, c], labels == c)), c
    return state


def _one_class(scores, pos):
    """A two-class problem whose class 0 is the samples in ``pos``."""
    return np.column_stack([scores, scores]), np.where(pos, 0, 1)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.floats(-20, 20), st.booleans()), min_size=2, max_size=150),
    st.sampled_from([1.0, 30.0]),
    st.sampled_from([0.0, 1e8]),
)
def test_platt_is_bitwise_equal(pairs, scale, offset):
    scores = np.array([s for s, _ in pairs]) * scale + offset
    pos = np.array([y for _, y in pairs])
    if pos.all() or not pos.any():
        pos[0] = not pos[0]
    _assert_platt_matches_oracle(*_one_class(scores, pos))


@pytest.mark.parametrize("seed", range(4))
def test_platt_non_converged_fits_match(seed):
    # a large common offset leaves the Hessian ill-conditioned, so Newton
    # stalls and the fit returns its best iterate instead of converging
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=40) + 1e8
    pos = np.arange(40) % 3 == 0
    state = _assert_platt_matches_oracle(*_one_class(scores, pos))
    assert not state.flags["converged"][0]


def _stalled_line_search_case():
    # TestPlatt.test_matches_scipy_minimize_on_the_smoothed_nll's generator
    # at this seed: 170 ordinary scores whose line search stalls on NLL
    # rounding noise, so the fit ends on its best iterate, not converged
    rng = np.random.default_rng(2539917923)
    n = int(rng.integers(4, 200))
    pos = rng.random(n) < rng.uniform(0.1, 0.9)
    pos[:2] = True, False
    return rng.normal(size=n) * rng.uniform(0.1, 5) + pos * rng.uniform(0, 3), pos


@st.composite
def platt_problems(draw):
    """(scores, labels, block): every class has a positive and a negative."""
    num_classes = draw(st.integers(2, 8))
    n = draw(st.integers(num_classes + 1, 120))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    labels = np.concatenate([np.arange(num_classes), rng.integers(0, num_classes, n - num_classes)])
    rng.shuffle(labels)
    scores = rng.normal(size=(n, num_classes)) * draw(st.sampled_from([0.5, 3.0, 30.0]))
    scores += (labels[:, None] == np.arange(num_classes)) * draw(st.sampled_from([0.0, 1.0, 4.0]))
    scores += draw(st.sampled_from([0.0, 0.0, 1e8]))  # 1e8: Newton does not converge
    # scores per block, from one class per block to all of them in one
    block = draw(st.integers(1, n * num_classes))
    return scores, labels, block


@settings(max_examples=60, deadline=None)
@given(platt_problems())
def test_fit_platt_blocks_are_bitwise_equal_to_one_class_fits(problem):
    scores, labels, block = problem
    with mock.patch.object(calibration, "PLATT_BLOCK_ELEMENTS", block):
        _assert_platt_matches_oracle(scores, labels)


def test_fit_platt_block_keeps_the_stalled_line_search_bits():
    # the stalled class shares its block with two ordinary ones
    s, pos = _stalled_line_search_case()
    rng = np.random.default_rng(0)
    labels = np.where(pos, 0, 1 + (rng.random(len(s)) < 0.5))
    scores = np.column_stack([s, rng.normal(size=len(s)), s[::-1]])
    state = _assert_platt_matches_oracle(scores, labels)
    assert not state.flags["converged"][0]


def test_fit_platt_over_numpy_buffer_size_rows():
    # 9000 rows, more than numpy's 8192-element buffer: each row sum must
    # still add the way a 1-D sum does; five classes make two blocks
    n = 9000
    assert PLATT_BLOCK_ELEMENTS // n < 5
    rng = np.random.default_rng(7)
    labels = rng.integers(0, 5, n)
    scores = rng.normal(size=(n, 5)) + (labels[:, None] == np.arange(5))
    scores[:, 4] += 1e8
    _assert_platt_matches_oracle(scores, labels)


def test_fit_platt_retires_only_the_singular_fit_of_a_block():
    # class 0's scores are all 1.0 and its Hessian weight exceeds 2**14, so
    # the 1e-12 ridge rounds away and LAPACK finds its Hessian singular: the
    # oracle stops that fit at its first iterate (A = 0). The block's other
    # fits, which share the failed stacked solve, must run on unchanged.
    n = 70_000
    rng = np.random.default_rng(0)
    labels = np.repeat([0, 1, 2], [42_000, 14_000, 14_000])
    scores = rng.normal(size=(n, 3)) + (labels[:, None] == np.arange(3))
    scores[:, 0] = 1.0
    with mock.patch.object(calibration, "PLATT_BLOCK_ELEMENTS", 3 * n):
        state = _assert_platt_matches_oracle(scores, labels)
    assert not state.flags["converged"][0] and state.params["A"][0] == 0.0
    assert np.all(state.params["A"][1:] != 0.0)


# ---------------------------------------------------------------------------
# Fisher-Jenks


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 40), min_size=1, max_size=200),  # repeated counts
    st.integers(1, 8),
)
def test_fisher_jenks_is_bitwise_equal_to_the_scalar_dp(counts, L):
    values = np.array(counts, dtype=np.float64)
    L = min(L, len(values))
    fast, slow = fisher_jenks(values, L), oracle_fisher_jenks(values, L)
    assert fast.boundaries == slow.boundaries
    assert _same(fast.assignments, slow.assignments)
    assert np.float64(fast.ssd).tobytes() == np.float64(slow.ssd).tobytes()


@pytest.mark.parametrize("L", range(1, 9))
def test_fisher_jenks_at_200_values_for_every_l(L):
    values = np.random.default_rng(L).integers(1, 120, size=200).astype(np.float64)
    fast, slow = fisher_jenks(values, L), oracle_fisher_jenks(values, L)
    assert fast.boundaries == slow.boundaries
    assert _same(fast.assignments, slow.assignments)
    assert np.float64(fast.ssd).tobytes() == np.float64(slow.ssd).tobytes()


# ---------------------------------------------------------------------------
# nem


def _nem_case(rows, seed):
    """Test rows at random, plus rows on and 1e-9 from a mean, where Gram cancels."""
    gen = np.random.default_rng(seed)
    means = gen.normal(size=(7, 11)) * 3 + 5
    features = gen.normal(size=(rows, 11)) * 3 + 5
    features[::3] = means[np.arange(0, rows, 3) % 7]
    features[1::3] = means[np.arange(1, rows, 3) % 7] + 1e-9
    return means, features


@pytest.mark.parametrize(
    "rows", [1, NEM_CHUNK_ROWS - 1, NEM_CHUNK_ROWS, NEM_CHUNK_ROWS + 1, 2 * NEM_CHUNK_ROWS + 3]
)
def test_apply_nem_matches_the_direct_form_across_chunk_boundaries(rows):
    means, features = _nem_case(rows, rows)
    out = apply_nem(CalibratorState("nem", {"means": means}), features)
    expected = oracle_apply_nem(means, features)
    assert np.all(np.abs(out - expected) <= NEM_RTOL * expected)
    assert _same(out.argmax(axis=1), expected.argmax(axis=1))
    # entries whose Gram rounding bound exceeds NEM_RTOL of any value Gram
    # can give are recomputed with the direct form, so keep its bits
    exact = ((features[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    norms = (features**2).sum(axis=1)[:, None] + (means**2).sum(axis=1)
    bound = memory.gram_error_bound(means.shape[1], 2 * norms)
    direct = bound > NEM_RTOL * (exact + bound)
    assert direct.any()
    assert _same(out[direct], expected[direct])


def test_apply_nem_scores_a_row_on_a_mean_exactly():
    means = np.random.default_rng(0).normal(size=(5, 16)) * 10 + 100
    out = apply_nem(CalibratorState("nem", {"means": means}), means[[3, 1]])
    assert out[0, 3] == 1.0 / NEM_EPSILON and out[1, 1] == 1.0 / NEM_EPSILON
    assert _same(out, oracle_apply_nem(means, means[[3, 1]]))


def test_apply_nem_keeps_the_direct_bits_a_hair_from_a_mean():
    # 4e-9 from a mean of norm ~40: the exact score is 2.50e8, and the Gram
    # form alone cancels to a value of no use (one build gave 1.19e7)
    means = np.random.default_rng(1).normal(size=(5, 16)) * 10
    features = means[2:3] + 1e-9
    expected = oracle_apply_nem(means, features)
    assert expected[0, 2] == pytest.approx(2.5e8, rel=1e-3)
    x, mu = features[0], means[2]
    gram = max(x @ x - 2 * (x @ mu) + mu @ mu, 0.0)
    assert not math.isclose(1.0 / (math.sqrt(gram) + NEM_EPSILON), expected[0, 2], rel_tol=0.01)
    assert _same(apply_nem(CalibratorState("nem", {"means": means}), features), expected)


# ---------------------------------------------------------------------------
# nem and bal: row ids into the run's table, not a copy of the memory


def _memory_case(gen, rows_by_class, capacity, first):
    """A shuffled table whose class c holds the splits ``rows_by_class[c]``,
    and its memory after admitting classes 0..first-1, then the rest."""
    labels = np.repeat(np.arange(len(rows_by_class)), [len(r) for r in rows_by_class])
    order = gen.permutation(len(labels))
    splits = np.concatenate(rows_by_class)[order]
    features = gen.normal(size=(len(labels), 3)) * 10.0 ** gen.uniform(-3, 3)
    table = DatasetTable(features, labels[order], splits)
    buffer = memory.MemoryBuffer.empty(capacity)
    herdable = table.splits != TEST
    for new in (table.labels < first, table.labels >= first):
        buffer = memory.admit_and_rebalance(buffer, table, np.flatnonzero(new & herdable))
    return table, buffer


def _assert_memory_fits_match_oracles(table, buffer, num_classes, seed):
    """nem's means and bal's layer against the oracles; False when bal has no
    train row to fit on, and then both paths refuse alike."""
    model = extend_model(None, num_classes, table.dim, seed)
    config = TrainConfig(epochs=2, batch_size=1 + seed % 4, seed=seed)
    ctx = CalibContext(
        train_scores=np.zeros((0, num_classes)), train_labels=np.zeros(0, dtype=np.int64),
        val_scores=np.zeros((0, num_classes)), val_labels=np.zeros(0, dtype=np.int64),
        class_counts=np.ones(num_classes), old_classes=(),
        new_classes=tuple(range(num_classes)), table=table, buffer=buffer,
        model=model, train_config=config,
    )
    means = calibration.fit_nem(ctx).params["means"]
    assert _same(means, oracle_nem_means(buffer, table, num_classes))

    try:
        expected = oracle_balanced(buffer, table, num_classes, model, config)
    except ParameterError as exc:
        with pytest.raises(ParameterError) as refused:
            calibration.fit_balanced(ctx)
        assert str(refused.value) == str(exc)
        return False
    state = calibration.fit_balanced(ctx)
    assert _same(state.params["weights"], expected.weights)
    assert _same(state.params["biases"], expected.biases)
    return True


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_nem_and_bal_read_the_memory_as_the_copied_table_did(data):
    num_classes = data.draw(st.integers(1, 5))
    # each class's train and val rows (at least one), then up to two test rows
    rows_by_class = [
        data.draw(st.lists(st.sampled_from([TRAIN, VAL]), min_size=1, max_size=8))
        + [TEST] * data.draw(st.integers(0, 2))
        for _ in range(num_classes)
    ]
    capacity = data.draw(st.integers(num_classes, 4 * num_classes))
    first = data.draw(st.integers(1, num_classes))
    seed = data.draw(st.integers(0, 2**16))
    table, buffer = _memory_case(np.random.default_rng(seed), rows_by_class, capacity, first)
    _assert_memory_fits_match_oracles(table, buffer, num_classes, seed)


def test_nem_and_bal_match_with_a_short_class_and_an_all_val_class():
    rows_by_class = [
        [TRAIN, TEST],  # one stored row against a quota of 3
        [VAL, VAL, VAL, VAL, TEST],  # stores only val rows
        [TRAIN, VAL] * 5 + [TEST],
    ]
    table, buffer = _memory_case(np.random.default_rng(7), rows_by_class, 9, 2)
    assert [len(buffer.classes[c]) for c in range(3)] == [1, 3, 3]
    assert set(table.splits[buffer.classes[1]]) == {VAL}
    assert _assert_memory_fits_match_oracles(table, buffer, 3, 7)


# ---------------------------------------------------------------------------
# a state's rows: row ids into the run's table, not tables copied and joined


def oracle_state_tables(table, buffer, new_ids):
    """A state's train, val and test tables as they were built from copies:
    the new classes' train and val rows and the memory, each copied out as a
    table, joined, then split by the train mask; and the seen classes' test rows."""
    splits_in = np.logical_or.reduce([table.splits == name for name in (TRAIN, VAL)])
    new = table.subset(splits_in & np.isin(table.labels, np.fromiter(new_ids, dtype=np.int64)))
    exemplars = oracle_memory_table(buffer, table)
    current = DatasetTable(*(np.concatenate([getattr(new, a), getattr(exemplars, a)])
                             for a in ("features", "labels", "splits")))
    train_mask = current.splits == TRAIN
    seen = np.fromiter(range(max(new_ids) + 1), dtype=np.int64)
    test = table.subset((table.splits == TEST) & np.isin(table.labels, seen))
    return current.subset(train_mask), current.subset(~train_mask), test


def test_each_readme_state_reads_the_rows_the_copied_tables_held():
    """At every state, the table train fits, the CalibContext arrays and the
    test rows equal, bit for bit, those of the copy-and-join construction.

    The training scores are read from the contexts handed to iso and pl:
    once the last of them has run, later methods get none. Every
    score-reading method's apply is handed the test rows' raw scores."""
    states, calibrating = [], []
    backbone_train, fit, apply = backbone.train, calibration.fit, calibration.apply

    def recording_train(model, table, config):
        trained = backbone_train(model, table, config)
        if not calibrating:  # bal retrains inside fit
            states.append({"table": table, "model": trained, "readers": {}, "raws": {}})
        return trained

    def recording_fit(method, ctx):
        states[-1].update(ctx=ctx)
        if method in calibration.TRAIN_SCORE_METHODS:
            states[-1]["readers"][method] = ctx
        calibrating.append(method)
        try:
            return fit(method, ctx)
        finally:
            calibrating.pop()

    def recording_apply(state, raw, features):
        states[-1]["features"] = features
        if raw is not None:  # copied before the apply overwrites it
            states[-1]["raws"][state.method] = raw.copy()
        return apply(state, raw, features)

    cfg = harness.config_from_dict(README_CONFIG)
    with mock.patch.object(backbone, "train", recording_train), \
            mock.patch.object(calibration, "fit", recording_fit), \
            mock.patch.object(calibration, "apply", recording_apply):
        harness.run_experiment(cfg)
    assert len(states) == cfg.num_states
    buffer = memory.MemoryBuffer.empty(cfg.memory)
    for state in states:
        ctx, model = state["ctx"], state["model"]
        assert ctx.model is model
        old_train, old_val, old_test = oracle_state_tables(ctx.table, buffer, ctx.new_classes)
        assert _same_table(state["table"], old_train)
        assert sorted(state["readers"]) == ["iso", "pl"]
        for reader in state["readers"].values():
            assert _same(reader.train_scores, backbone.scores(model, old_train.features))
        assert _same(ctx.train_labels, old_train.labels)
        assert _same(ctx.val_scores, backbone.scores(model, old_val.features))
        assert _same(ctx.val_labels, old_val.labels)
        assert _same(ctx.class_counts,
                     np.bincount(old_train.labels, minlength=ctx.new_classes[-1] + 1))
        assert _same(state["features"], old_test.features)
        assert sorted(state["raws"]) == sorted(
            m for m in cfg.methods if m not in calibration.FEATURE_METHODS)
        for raw in state["raws"].values():
            assert _same(raw, backbone.scores(model, old_test.features))
        buffer = ctx.buffer


# ---------------------------------------------------------------------------
# the table build: one draw, each class's train rows found once


def _same_table(a, b):
    return all(_same(x, y) for x, y in zip((a.features, a.labels, a.splits),
                                           (b.features, b.labels, b.splits)))


@settings(max_examples=100, deadline=None)
@given(
    num_classes=st.integers(2, 40),
    dim=st.integers(2, 300),
    separation=st.floats(0.1, 10),
    seed=st.integers(0, 2**32),
)
def test_centers_row_by_row_are_bitwise_equal_to_the_difference_tensor(
    num_classes, dim, separation, seed
):
    fast = dataset._centers(rng.op_rng(seed, rng.SYNTHETIC), num_classes, dim, separation)
    slow = oracle_centers(rng.op_rng(seed, rng.SYNTHETIC), num_classes, dim, separation)
    assert _same(fast, slow)


@settings(max_examples=150, deadline=None)
@given(
    num_classes=st.integers(2, 7),
    dim=st.sampled_from([2, 3, 8, 9, 17, 130]),
    count=st.integers(2, 6),
    test_count=st.none() | st.integers(1, 6),
    separation=st.floats(0.1, 10),
    noise=st.sampled_from([0.0, 0.5, 1.5]) | st.floats(0, 3),
    seed=st.integers(0, 2**32),
)
@example(num_classes=2, dim=2, count=2, test_count=None, separation=5.0, noise=0.0, seed=0)
@example(num_classes=2, dim=3, count=5, test_count=1, separation=2.5, noise=1.5, seed=1)
def test_generate_synthetic_is_bitwise_equal_to_the_per_class_draws(
    num_classes, dim, count, test_count, separation, noise, seed
):
    args = (num_classes, dim, count, separation, noise, seed)
    fast = dataset.generate_synthetic(*args, test_per_class=test_count)
    assert _same_table(fast, oracle_generate_synthetic(*args, test_per_class=test_count))


def _class_table(seed, train_counts, val_rows=0, test_rows=1):
    """A shuffled table: class c (a key of ``train_counts``) has
    ``train_counts[c]`` train rows plus ``val_rows`` val and ``test_rows`` test rows."""
    gen = np.random.default_rng(seed)
    per_class = [[TRAIN] * n + [VAL] * val_rows + [TEST] * test_rows
                 for n in train_counts.values()]
    labels = np.repeat(np.array(list(train_counts), dtype=np.int64),
                       [len(rows) for rows in per_class])
    splits = np.array([s for rows in per_class for s in rows], dtype="<U5")
    order = gen.permutation(len(labels))
    return DatasetTable(gen.normal(size=(len(labels), 2)), labels[order], splits[order])


def _assert_build_matches_oracles(table, kind, fraction, seed):
    """apply_imbalance, split_train_val and the run's build of ``table``
    (harness._build_table, which also relabels) against their oracles;
    returns the imbalanced table."""
    imbalanced = _imbalanced(table, kind, seed)
    assert _same_table(imbalanced, oracle_apply_imbalance(table, kind, seed))
    assert _same_table(_split(imbalanced, fraction, seed),
                       oracle_split_train_val(imbalanced, fraction, seed))
    classes = imbalanced.classes()
    if classes:
        mapping = {c: int(k) for c, k in
                   zip(classes, np.random.default_rng(seed).permutation(len(classes)))}
        cfg = SimpleNamespace(
            synthetic=None, features_path=None, manifest_path=None, imbalance_kind=kind,
            data_seed=seed, val_fraction=fraction, num_states=1, protocol_seed=None,
            class_order=tuple(sorted(classes, key=mapping.get)),
        )
        with mock.patch.object(dataset, "load_features", return_value=table):
            built, plan = harness._build_table(cfg)
        split = oracle_split_train_val(imbalanced, fraction, rng.derive_seed(seed, 1))
        assert _same_table(built, oracle_relabeled(split, mapping))
        assert plan.ordering == cfg.class_order
    return imbalanced


@settings(max_examples=200, deadline=None)
@given(
    train_counts=st.dictionaries(
        st.integers(0, 20),
        st.integers(0, 3) | st.integers(4, 30) | st.integers(31, 120),
        min_size=1, max_size=6,
    ),
    val_rows=st.integers(0, 2),
    test_rows=st.integers(0, 2),
    kind=st.sampled_from(dataset.IMBALANCE_KINDS),
    fraction=st.floats(0.01, 0.99),
    seed=st.integers(0, 2**32),
)
def test_imbalance_split_and_relabel_are_bitwise_equal_to_the_per_class_scans(
    train_counts, val_rows, test_rows, kind, fraction, seed
):
    table = _class_table(seed, train_counts, val_rows, test_rows)
    _assert_build_matches_oracles(table, kind, fraction, seed)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", dataset.IMBALANCE_KINDS)
def test_single_train_row_classes_keep_their_record_as_train(kind):
    table = _class_table(3, {9: 1, 2: 40, 5: 1, 0: 3})
    split = _split(_imbalanced(table, kind, 3), 0.5, 3)
    assert split.census[5] == split.census[9] == 1
    assert not np.isin(split.labels[split.splits == VAL], [5, 9]).any()
    _assert_build_matches_oracles(table, kind, 0.5, 3)


@pytest.mark.parametrize("kind", ["soft", "strong"])
def test_a_quota_that_keeps_every_row_matches(kind):
    # soft keeps at least 50 rows, strong at least 10: classes this small keep all
    counts = {0: 8, 1: 30, 2: 4, 3: 9} if kind == "soft" else {0: 2, 1: 7, 2: 5, 3: 9}
    table = _class_table(11, counts, val_rows=1)
    imbalanced = _assert_build_matches_oracles(table, kind, 0.3, 11)
    assert imbalanced.census == counts


# ---------------------------------------------------------------------------
# th and mb: one multiply by a per-class factor vector

# A factor of 1.0 leaves a column's bits as they are. Scores never hold a
# signaling NaN (the loaders refuse non-finite values and a product of finite
# and infinite values only makes quiet ones), so NaNs are drawn quiet.
score_cells = st.floats(allow_nan=False) | st.sampled_from(
    [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]
)


def _score_matrix(data, n_classes):
    rows = data.draw(st.integers(0, 5))
    cells = data.draw(st.lists(score_cells, min_size=rows * n_classes,
                               max_size=rows * n_classes))
    return np.array(cells, dtype=np.float64).reshape(rows, n_classes)


def _factor_ctx(class_counts, val_scores=None, val_labels=(), old=()):
    n_classes = len(class_counts)
    if val_scores is None:
        val_scores = np.zeros((0, n_classes))
    return CalibContext(
        train_scores=np.zeros((0, n_classes)), train_labels=np.zeros(0, dtype=np.int64),
        val_scores=val_scores, val_labels=np.asarray(val_labels, dtype=np.int64),
        class_counts=np.asarray(class_counts), old_classes=tuple(old),
        new_classes=tuple(c for c in range(n_classes) if c not in old),
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_threshold_factors_are_bitwise_equal_to_dividing_by_the_prior(data):
    counts = data.draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=8))
    probs = _score_matrix(data, len(counts))
    with np.errstate(over="ignore"):
        out = apply_threshold(fit_threshold(_factor_ctx(counts)), probs.copy())
        assert _same(out, oracle_apply_threshold(counts, probs))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mb_factors_are_bitwise_equal_to_scaling_the_old_columns(data):
    n_classes = data.draw(st.integers(1, 6))
    # unsorted and repeated ids, as `calibrate --old` passes them; may be empty
    old = data.draw(st.lists(st.integers(0, n_classes - 1), max_size=2 * n_classes))
    val_labels = data.draw(st.lists(st.integers(0, n_classes - 1), max_size=12))
    truth = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=len(val_labels),
                               max_size=len(val_labels)))
    val_scores = np.zeros((len(val_labels), n_classes))
    val_scores[np.arange(len(val_labels)), val_labels] = truth
    state = fit_mb(_factor_ctx([1] * n_classes, val_scores, val_labels, old))
    scores = _score_matrix(data, n_classes)
    with np.errstate(over="ignore"):
        out = apply_mb(state, scores.copy())
        assert _same(out, oracle_apply_mb(state.params["ratio"], old, scores))


@pytest.mark.parametrize("old", [(), (1,), (2, 0), (0, 0, 2)])
def test_mb_factors_keep_negative_zero_infinities_and_nan(old):
    scores = np.array([[-0.0, np.inf, -np.inf], [np.nan, -np.nan, 0.0]])
    val_scores = np.array([[0.5, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.5]])
    state = fit_mb(_factor_ctx([1, 1, 1], val_scores, [0, 1, 2], old))
    assert state.params["ratio"] != 1.0 or not old
    assert _same(apply_mb(state, scores.copy()), oracle_apply_mb(state.params["ratio"], old, scores))


def test_mb_means_are_the_figdata_means_at_every_readme_state():
    """mb's mu_old and mu_new are the state's reported group means, bit for bit."""
    fitted = []

    def recording_fit_mb(ctx):
        fitted.append(fit_mb(ctx))
        return fitted[-1]

    with mock.patch.object(calibration, "fit_mb", recording_fit_mb):
        reports, _ = harness.run_experiment(harness.config_from_dict(README_CONFIG))
    assert [r.state_index for r in reports] == [1, 2, 3, 4, 5]
    assert len(fitted) == len(reports)
    figdata = (GOLDEN / "readme" / "figdata.csv").read_text().splitlines()[1:]
    for state, report in zip(fitted, reports):
        if report.state_index == 1:
            assert report.mean_score_old is None and "mu_old" not in state.flags
            continue
        flags = state.flags
        assert _same(flags["mu_old"], report.mean_score_old)
        assert _same(flags["mu_new"], report.mean_score_new)
        assert state.params["ratio"] == flags["mu_new"] / flags["mu_old"]
        row = f"{report.state_index},{flags['mu_old']:.10g},{flags['mu_new']:.10g}"
        assert row == figdata[report.state_index - 2]


# ---------------------------------------------------------------------------
# softmax and Platt's apply: in place after one allocation

finite_scores = st.one_of(
    st.floats(-1e3, 1e3),
    st.sampled_from([-2.5, 0.0, -0.0, 1.0, 7.25]),  # ties
    st.floats(-1e300, -1e3),  # very negative: exp underflows to 0
    st.floats(allow_nan=False, allow_infinity=False),  # s - max may overflow to -inf
)


@st.composite
def score_matrices(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    s = np.array(draw(st.lists(finite_scores, min_size=rows * cols, max_size=rows * cols)))
    s = s.reshape(rows, cols)
    if draw(st.booleans()):
        # one dominant score per row: the others' exps may all round to 0
        s[np.arange(rows), draw(st.lists(st.integers(0, cols - 1), min_size=rows,
                                         max_size=rows))] += draw(st.sampled_from([40.0, 1e3]))
    return s


@settings(max_examples=300, deadline=None)
@given(score_matrices())
@example(np.array([[0.0, 0.0], [-1e308, 1e308], [-800.0, -1e5]]))
def test_softmax_in_place_is_bitwise_equal_to_the_three_line_form(s):
    with np.errstate(over="ignore"):
        assert _same(softmax(s), oracle_softmax(s))
        _assert_softmax_over_its_input_is_bitwise_equal(s)


def _assert_softmax_over_its_input_is_bitwise_equal(s):
    """``softmax(x, out=x)``, which the ECE step runs over a method's own
    scores, rests on numpy's aliasing of ``out`` with an input."""
    x = s.copy()
    assert softmax(x, out=x) is x
    assert _same(x, softmax(s))


def test_in_place_forms_match_at_a_vector_loop_sized_shape():
    # long rows, with remainders, take numpy's vectorised loops
    gen = np.random.default_rng(0)
    s = gen.normal(scale=30.0, size=(257, 131))
    a, c = gen.normal(size=131), gen.normal(size=131)
    assert _same(softmax(s), oracle_softmax(s))
    _assert_softmax_over_its_input_is_bitwise_equal(s)
    state = CalibratorState("pl", {"A": a, "C": c})
    assert _same(apply_platt(state, s.copy()), oracle_apply_platt(a, c, s))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_apply_platt_in_place_is_bitwise_equal_to_the_temporaries(data):
    n_classes = data.draw(st.integers(1, 6))
    params = st.lists(st.floats(-1e3, 1e3), min_size=n_classes, max_size=n_classes)
    a, c = np.array(data.draw(params)), np.array(data.draw(params))
    scores = _score_matrix(data, n_classes)
    with np.errstate(over="ignore", invalid="ignore"):
        out = apply_platt(CalibratorState("pl", {"A": a, "C": c}), scores.copy())
        assert _same(out, oracle_apply_platt(a, c, scores))


# ---------------------------------------------------------------------------
# fit first, then score: each apply overwrites the test scores it is handed,
# and the scores' bias is added in place


def _fitted_score_apply(data):
    """(state, scores): a fitted state of iso, pl, th, mb or fj, and scores."""
    n_classes = data.draw(st.integers(1, 6))
    scores = _score_matrix(data, n_classes)
    method = data.draw(st.sampled_from(["iso", "pl", "th", "mb", "fj"]))
    if method == "iso":
        boundaries, levels = {}, {}
        for c in data.draw(st.sets(st.integers(0, n_classes - 1))):
            cuts = sorted(data.draw(st.lists(st.floats(-1e3, 1e3), max_size=4)))
            boundaries[c] = np.array(cuts, dtype=np.float64)
            levels[c] = np.array(sorted(data.draw(st.lists(
                st.floats(0, 1), min_size=len(cuts) + 1, max_size=len(cuts) + 1))))
        return CalibratorState("iso", {"boundaries": boundaries, "levels": levels}), scores
    params = st.lists(st.floats(-1e3, 1e3), min_size=n_classes, max_size=n_classes)
    if method == "pl":
        a, c = np.array(data.draw(params)), np.array(data.draw(params))
        return CalibratorState("pl", {"A": a, "C": c}), scores
    factors = data.draw(st.lists(st.floats(allow_nan=False) | st.just(-0.0),
                                 min_size=n_classes, max_size=n_classes))
    return CalibratorState(method, {"factors": np.array(factors)}), scores


APPLIES = {"iso": apply_isotonic, "pl": apply_platt, "th": apply_threshold,
           "mb": apply_mb, "fj": apply_fj}


def oracle_pure_apply(state, scores):
    """A score-reading apply before it overwrote its input: a new matrix."""
    if state.method == "iso":
        out = scores.copy()
        for c, b in state.params["boundaries"].items():
            out[:, c] = apply_step_map(b, state.params["levels"][c], scores[:, c])
        return out
    if state.method == "pl":
        return oracle_apply_platt(state.params["A"], state.params["C"], scores)
    return scores * state.params["factors"]


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_each_apply_over_its_input_is_bitwise_equal_to_its_pure_form(data):
    state, scores = _fitted_score_apply(data)
    with np.errstate(over="ignore", invalid="ignore"):
        pure = oracle_pure_apply(state, scores)
        own = scores.copy()
        assert APPLIES[state.method](state, own) is own
        assert _same(own, pure)
        if state.method != "th":  # apply takes th's softmax first
            own = scores.copy()
            assert calibration.apply(state, own) is own
            assert _same(own, pure)


@settings(max_examples=300, deadline=None)
@given(score_matrices(), st.data())
def test_threshold_apply_is_the_factors_over_the_softmax(raw, data):
    counts = data.draw(st.lists(st.integers(1, 10**6), min_size=raw.shape[1],
                                max_size=raw.shape[1]))
    state = fit_threshold(_factor_ctx(counts))
    with np.errstate(over="ignore"):
        pure = apply_threshold(state, softmax(raw))
        own = raw.copy()
        assert calibration.apply(state, own) is own
    assert _same(own, pure)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 12), st.integers(1, 8), st.integers(1, 8),
    st.integers(0, 2**32 - 1), st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_scores_are_bitwise_equal_to_the_matmul_plus_bias(n, d, classes, seed, scale):
    gen = np.random.default_rng(seed)
    model = LinearModel(gen.normal(size=(classes, d)) * scale, gen.normal(size=classes) * scale)
    features = gen.normal(size=(n, d)) * scale
    assert _same(backbone.scores(model, features), features @ model.weights.T + model.biases)


def test_scores_match_the_matmul_plus_bias_at_a_vector_loop_sized_shape():
    # calib's test rows at state 5, and a shape with remainders
    gen = np.random.default_rng(0)
    for n, d, classes in ((1500, 32, 150), (257, 33, 131)):
        model = LinearModel(gen.normal(size=(classes, d)), gen.normal(size=classes))
        features = gen.normal(size=(n, d))
        assert _same(backbone.scores(model, features), features @ model.weights.T + model.biases)


@pytest.mark.parametrize("n, num_classes", [(3137, 150), (700, 90), (12_000, 5)])
def test_fit_platt_blocks_of_2_14_scores_keep_the_bits_of_2_15(n, num_classes):
    # calib's last state is 3137 training rows by 150 classes
    gen = np.random.default_rng(n)
    labels = np.concatenate([np.arange(num_classes), gen.integers(0, num_classes, n - num_classes)])
    gen.shuffle(labels)
    scores = gen.normal(size=(n, num_classes)) + 2.0 * (labels[:, None] == np.arange(num_classes))
    scores[:, ::7] += 1e8  # every seventh fit does not converge
    ctx = CalibContext(scores, labels, scores, labels, np.bincount(labels, minlength=num_classes),
                       (), tuple(range(num_classes)))
    assert PLATT_BLOCK_ELEMENTS == 2**14
    state = fit_platt(ctx)
    with mock.patch.object(calibration, "PLATT_BLOCK_ELEMENTS", 2**15):
        wide = fit_platt(ctx)
    assert _same(state.params["A"], wide.params["A"])
    assert _same(state.params["C"], wide.params["C"])
    assert _same(state.flags["converged"], wide.flags["converged"])
    assert not state.flags["converged"].all()


# ---------------------------------------------------------------------------
# ECE: only the occupied bins are visited


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 300), st.integers(1, 40), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_ece_over_the_occupied_bins_is_bitwise_equal_to_every_bin(m, n, classes, seed):
    gen = np.random.default_rng(seed)
    # some rows on a bin edge: k/m in one column and 1 - k/m in another
    p = gen.dirichlet(np.ones(classes), size=n)
    edge = gen.random(n) < 0.3
    k = gen.integers(0, m + 1, size=edge.sum()) / m
    p[edge] = 0.0
    p[edge, 0] = k
    p[edge, 1 % classes] += 1 - k
    preds, labels = p.argmax(axis=1), gen.integers(0, classes, size=n)
    expected = oracle_ece(p, preds, labels, m)
    assert _same(metrics.ece(p, preds, labels, m), expected)


# ---------------------------------------------------------------------------
# herding


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(1, 6),
    st.data(),
    st.booleans(),
)
def test_herd_order_is_the_prefix_of_the_full_order(n, d, data, rounded):
    values = data.draw(st.lists(st.floats(-10, 10), min_size=n * d, max_size=n * d))
    feats = np.array(values).reshape(n, d)
    if rounded:  # tied rows and tied candidate distances
        feats = np.round(feats / 4)
    q = data.draw(st.integers(0, n + 3))
    assert _same(herd_order(feats, [np.arange(len(feats))], [q]), oracle_herd_order(feats)[:q])


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("q", [0, 1, 29, 30, 31, 500])
def test_herd_order_prefix_at_the_edges(d, q):
    # 30 rows rounded to a few grid points: many exact ties
    feats = np.round(np.random.default_rng(d).normal(size=(30, d)))
    assert _same(herd_order(feats, [np.arange(len(feats))], [q]), oracle_herd_order(feats)[:q])


def test_herd_order_keeps_the_sqrt_that_ties_rounded_distances():
    # both rows lie equally far from the mean; rounding leaves row 1's squared
    # distance an ulp smaller, and the sqrt maps both to one value, so the
    # first pick is the lower index, as in the full order
    feats = np.array([[1.8, 0.3], [-0.1, 1.4]])
    squared = ((feats - feats.mean(axis=0)) ** 2).sum(axis=1)
    assert squared[1] < squared[0] and np.sqrt(squared[1]) == np.sqrt(squared[0])
    assert herd_order(feats, [np.arange(len(feats))], [1]).tolist() == [0]
    assert _same(herd_order(feats, [np.arange(len(feats))], [2]), oracle_herd_order(feats))


def test_screen_keeps_the_rows_the_sqrt_ties():
    # the case above, through the screen every class takes
    feats = np.array([[1.8, 0.3], [-0.1, 1.4]])
    assert _same(herd_order(feats, [np.arange(len(feats))], [2]), oracle_herd_order(feats))
    # were the Gram form exact (no error bound), the tie margin alone must
    # keep row 0, whose squared distance is an ulp larger
    squared = ((feats - feats.mean(axis=0)) ** 2).sum(axis=1)
    assert squared[0] > squared[1]
    assert np.flatnonzero(_screen(squared, 0.0)).tolist() == [0, 1]
    # rows beyond the margin go
    assert np.flatnonzero(_screen(np.array([1.0, 1.0 + 1e-14, np.inf]), 0.0)).tolist() == [0]


# the screen: hypothesis cases at scales and offsets that strain it


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(1, 6),
    st.data(),
    st.sampled_from(["plain", "rounded", "duplicated"]),
    st.integers(-3, 3).map(lambda k: 10.0**k),
    st.sampled_from([0.0, 1e6]),
)
def test_screened_herd_order_is_the_prefix_of_the_full_order(
    n, d, data, shape, scale, offset
):
    values = data.draw(st.lists(st.floats(-10, 10), min_size=n * d, max_size=n * d))
    feats = np.array(values).reshape(n, d)
    if shape == "rounded":  # tied rows and tied candidate distances
        feats = np.round(feats / 4)
    elif shape == "duplicated":
        feats = feats[data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))]
    # a large common offset leaves the Gram form mostly cancellation
    feats = feats * scale + offset
    q = data.draw(st.integers(0, n + 3))
    got = herd_order(feats, [np.arange(len(feats))], [q])
    assert _same(got, oracle_herd_order(feats)[:q])


@pytest.mark.parametrize("seed, offset", [(0, 0.0), (1, 0.0), (2, 3.0), (3, 1e3)])
def test_herd_order_screens_full_size_classes(seed, offset):
    # the shape of a benchmark class: 450 train/val rows of 64 features
    gen = np.random.default_rng(seed)
    feats = gen.normal(size=64) * 0.25 + gen.normal(size=(450, 64)) + offset
    kept = []

    def screen(gram, err):
        keep = _screen(gram, err)
        kept.append(int(keep.sum()))
        return keep

    expected = oracle_herd_order(feats)
    for q in (1, 50, 114, 450):
        with mock.patch.object(memory, "_screen", screen):
            got = herd_order(feats, [np.arange(len(feats))], [q])
        assert _same(got, expected[:q])
    # the screen ran at every step and ruled rows out
    assert len(kept) == 1 + 50 + 114 + 450 and min(kept) < 450


def test_herd_order_never_repeats_a_row_when_distances_overflow():
    # every squared distance is inf here; the full-order loop took row 0 again
    # at step 2, herd_order takes each row once
    feats = np.random.default_rng(0).normal(size=(5, 3)) * 1e200
    with np.errstate(over="ignore"):
        assert oracle_herd_order(feats).tolist()[:2] == [0, 0]
        assert sorted(herd_order(feats, [np.arange(len(feats))], [5]).tolist()) == [0, 1, 2, 3, 4]



def test_herd_order_takes_the_first_nan_as_argmin_does():
    # the class mean overflows to inf, so from step 2 on some candidate
    # distances are inf - inf = NaN; argmin took the first of them, and so
    # does the lockstep step, next to a class whose distances are finite
    feats = np.array([[1.7e308], [1.6e308], [1.5e308], [-1e308], [1.0], [2.0], [4.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        expected = oracle_herd_order(feats[:4])
        got = herd_order(feats, [np.arange(4), np.arange(4, 7)], [4, 3])
    assert expected.tolist() == [0, 1, 2, 3]
    assert got.tolist() == [0, 1, 2, 3] + (4 + oracle_herd_order(feats[4:])).tolist()


# lockstep: several classes in one call


def fraction_herd_order(class_features, count):
    """The greedy definition in exact rational arithmetic, on integer features.

    Returns the picks up to ``count``, stopping before the first step whose
    least exact distance is shared by two rows: there the float code breaks
    the tie by whichever rounds lower, which the definition does not fix.
    """
    rows = [[Fraction(int(v)) for v in r] for r in class_features]
    d = len(rows[0])
    mu = [sum(r[j] for r in rows) / len(rows) for j in range(d)]
    running = [Fraction(0)] * d
    picks = []
    for t in range(1, min(count, len(rows)) + 1):
        dist = {
            i: sum(((running[j] + r[j]) / t - mu[j]) ** 2 for j in range(d))
            for i, r in enumerate(rows) if i not in picks
        }
        least = min(dist.values())
        winners = [i for i, v in dist.items() if v == least]
        if len(winners) > 1:
            break
        picks.append(winners[0])
        running = [a + b for a, b in zip(running, rows[winners[0]])]
    return picks


def _lockstep_case(gen, sizes, d, values):
    """Classes of the given sizes, their rows shuffled into one matrix."""
    feats = [values(gen, (n, d)) for n in sizes]
    perm = gen.permutation(sum(sizes))
    table = np.concatenate(feats)[perm]
    class_rows = np.split(np.argsort(perm), np.cumsum(sizes)[:-1])
    return feats, table, class_rows


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 12), min_size=1, max_size=5),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_lockstep_herd_order_is_the_exact_greedy_order(sizes, d, seed):
    gen = np.random.default_rng(seed)
    feats, table, class_rows = _lockstep_case(
        gen, sizes, d, lambda g, shape: g.integers(-3, 4, size=shape).astype(np.float64)
    )
    counts = [int(gen.integers(0, n + 3)) for n in sizes]  # some above the class size
    got = herd_order(table, class_rows, counts)
    assert len(got) == sum(min(q, n) for q, n in zip(counts, sizes))
    at = 0
    for f, rows, q in zip(feats, class_rows, counts):
        expected = fraction_herd_order(f, q)
        assert got[at : at + len(expected)].tolist() == rows[expected].tolist()
        at += min(q, len(f))


def test_lockstep_herd_order_of_five_classes_of_different_sizes_is_the_exact_order():
    # 1 to 12 rows each, padded to the 12-row class in one stack, some counts
    # above the class size
    gen = np.random.default_rng(0)
    sizes, counts = [1, 4, 7, 12, 9], [1, 6, 5, 12, 30]
    feats, table, class_rows = _lockstep_case(
        gen, sizes, 3, lambda g, shape: g.integers(-9, 10, size=shape).astype(np.float64)
    )
    got = herd_order(table, class_rows, counts)
    expected = [rows[fraction_herd_order(f, q)] for f, rows, q in zip(feats, class_rows, counts)]
    assert [len(e) for e in expected] == [1, 4, 5, 12, 9]  # no exact ties here
    assert got.tolist() == np.concatenate(expected).tolist()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 30), min_size=1, max_size=5),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["plain", "rounded"]),
    st.sampled_from([0.0, 1e6]),
)
def test_lockstep_herd_order_is_each_class_on_its_own(sizes, d, seed, shape, offset):
    # bit for bit the full-order loop of each class alone, ties included
    gen = np.random.default_rng(seed)

    def values(g, size):
        v = g.normal(size=size) * 3
        return (np.round(v) if shape == "rounded" else v) + offset

    feats, table, class_rows = _lockstep_case(gen, sizes, d, values)
    counts = [int(gen.integers(0, n + 3)) for n in sizes]
    got = herd_order(table, class_rows, counts)
    expected = [rows[oracle_herd_order(f)[:q]] for f, rows, q in zip(feats, class_rows, counts)]
    assert _same(got, np.concatenate(expected))


@pytest.mark.parametrize("counts", [[1, 3, 4], [1, 114, 4], [5, 450, 9]])
@pytest.mark.parametrize("extreme", ["overflow", "nan"])
def test_herd_order_pads_each_lane_with_its_own_first_row(counts, extreme):
    # one stack of a 1-row class, a 450 x 64 class and a 4-row class whose
    # norms overflow or are NaN; the 1-row and 4-row lanes are padded to 450
    # rows. With counts [1, 3, 4] the 4-row class is the first lane: a pad of
    # its rows in the 1-row lane would make that lane's Gram row NaN, and the
    # screen keep none of it
    gen = np.random.default_rng(5)
    extreme_rows = gen.normal(size=(4, 64))
    extreme_rows[:, 0] = (
        [1.7e308, 1.6e308, 1.5e308, -1e308] if extreme == "overflow" else [np.nan, 1.0, np.nan, 2.0]
    )
    feats = [np.full((1, 64), 2.0), gen.normal(size=(450, 64)), extreme_rows]
    perm = gen.permutation(455)
    table = np.concatenate(feats)[perm]
    class_rows = np.split(np.argsort(perm), [1, 451])
    with np.errstate(over="ignore", invalid="ignore"):
        got = herd_order(table, class_rows, counts)
        expected = [rows[oracle_herd_order(f)[:q]] for f, rows, q in zip(feats, class_rows, counts)]
    assert _same(got, np.concatenate(expected))


# ---------------------------------------------------------------------------
# train


def _train_case(n, classes, dim, seed):
    gen = np.random.default_rng(seed)
    labels = np.arange(n) % classes
    feats = gen.normal(size=(n, dim)) + labels[:, None]
    splits = np.where(np.arange(n) % 5 == 4, "val", "train")
    model = extend_model(None, classes, dim, seed)
    return model, DatasetTable(feats, labels, splits)


def _same_model(a, b):
    return _same(a.weights, b.weights) and _same(a.biases, b.biases)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 60),
    st.integers(2, 5),
    st.integers(1, 5),
    st.integers(0, 2**16),
    st.sampled_from([1, 3, 7, 32, 100]),
    st.integers(1, 8),
    st.integers(1, 3),
)
def test_train_is_bitwise_equal_to_softmax_plus_loss(
    n, classes, dim, seed, batch_size, epochs, patience
):
    model, table = _train_case(n, classes, dim, seed)
    config = TrainConfig(epochs=epochs, batch_size=batch_size,
                         plateau_patience=patience, seed=seed)
    expected, _ = oracle_train(model, table, config)
    assert _same_model(train(model, table.subset(table.splits == TRAIN), config), expected)


@pytest.mark.parametrize("batch_size", [1, 7, 32])
def test_train_matches_through_plateau_decay(batch_size):
    # with a large step the loss soon stops improving by PLATEAU_TOL,
    # so the learning rate decays (asserted below)
    model, table = _train_case(53, 3, 4, batch_size)
    config = TrainConfig(epochs=30, initial_lr=0.5, batch_size=batch_size,
                         plateau_patience=1, seed=batch_size)
    expected, final_lr = oracle_train(model, table, config)
    assert final_lr < config.initial_lr
    assert _same_model(train(model, table.subset(table.splits == TRAIN), config), expected)


@pytest.mark.parametrize("seed", range(4))
def test_full_batch_step_is_w_minus_lr_times_the_gradient(seed):
    # one full-batch epoch is one step down the mean cross-entropy; the
    # gradient comes from finite differences (forward, step 1e-7), so the
    # step agrees to 1e-6
    optimize = pytest.importorskip("scipy.optimize")
    model, table = _train_case(40, 4, 3, seed)
    part = table.subset(table.splits == TRAIN)
    classes, dim = model.weights.shape
    lr = 0.5

    def mean_loss(theta):
        weights, biases = theta[: classes * dim].reshape(classes, dim), theta[classes * dim :]
        return _oracle_mean_loss(part.features @ weights.T + biases, part.labels)

    theta = np.concatenate([model.weights.ravel(), model.biases])
    step = theta - lr * optimize.approx_fprime(theta, mean_loss, 1e-7)
    config = TrainConfig(epochs=1, initial_lr=lr, batch_size=len(part), seed=seed)
    stepped = train(model, part, config)
    got = np.concatenate([stepped.weights.ravel(), stepped.biases])
    assert np.abs(got - theta).max() > 1e-2  # the step is not negligible
    np.testing.assert_allclose(got, step, rtol=0, atol=1e-6)


# ---------------------------------------------------------------------------
# feature and score CSV loaders

NUM_CLASSES = 3


def _write_features(directory, dim, lines, newline="\n", final=True):
    """A feature CSV holding ``lines`` as its data lines, and its manifest."""
    header = ",".join(["label", "split"] + [f"f{i}" for i in range(dim)])
    features = Path(directory) / "x.csv"
    features.write_bytes((newline.join([header] + lines) + newline * final).encode())
    manifest = Path(directory) / "x.json"
    manifest.write_text(json.dumps({"dim": dim, "classes": NUM_CLASSES, "name": "t"}))
    return features, manifest


def _write_scores(directory, width, lines, newline="\n", final=True):
    header = ",".join(["label"] + [f"s{i}" for i in range(width)])
    scores = Path(directory) / "s.csv"
    scores.write_bytes((newline.join([header] + lines) + newline * final).encode())
    return (scores,)


def _outcome(load, *paths):
    """A loader's arrays as (dtype, shape, bytes), or the message it fails with."""
    try:
        result = load(*paths)
    except FormatError as exc:
        return "error", str(exc)
    if isinstance(result, DatasetTable):
        result = (result.features, result.labels, result.splits)
    return "ok", tuple((a.dtype.str, a.shape, a.tobytes()) for a in result)


def _short(v):
    """repr without the leading zero: '.5', '-.25'."""
    text = repr(v)
    return text.replace("0.", ".", 1) if text.lstrip("-").startswith("0.") else text


CELL_FORMATS = (
    repr,
    lambda v: format(v, ".17g"),
    lambda v: format(v, ".3g"),
    lambda v: format(v, ".6e"),
    lambda v: format(v, "+E"),
    lambda v: format(v, ".0f") + ".",
    _short,
)
cells = st.builds(
    lambda v, fmt: fmt(v),
    st.one_of(st.floats(-1e300, 1e300), st.just(-0.0)),
    st.sampled_from(CELL_FORMATS),
)
file_shapes = dict(
    width=st.integers(1, 6),
    data=st.data(),
    newline=st.sampled_from(["\n", "\r\n"]),
    final=st.booleans(),
    chunk=st.sampled_from([1, 2, 3, 7, dataset.CSV_CHUNK_ROWS]),
)


@settings(max_examples=150, deadline=None)
@given(**file_shapes)
def test_load_features_is_bitwise_equal_to_the_csv_loop(width, data, newline, final, chunk):
    rows = data.draw(st.lists(
        st.tuples(st.integers(0, NUM_CLASSES - 1), st.sampled_from(SPLITS),
                  st.lists(cells, min_size=width, max_size=width)),
        min_size=1, max_size=40,
    ))
    lines, seen = [], set()
    for label, split, values in rows:
        if label not in seen:  # every class needs a train record
            split = TRAIN
            seen.add(label)
        lines.append(",".join([str(label), split, *values]))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(dataset, "CSV_CHUNK_ROWS", chunk):
        paths = _write_features(tmp, width, lines, newline, final)
        expected = _outcome(oracle_load_features, *paths)
        assert expected[0] == "ok"
        assert _outcome(load_features, *paths) == expected
        # the second load reads the sidecar the first one wrote
        assert Path(f"{paths[0]}.cache.npz").is_file()
        assert _outcome(load_features, *paths) == expected


@settings(max_examples=150, deadline=None)
@given(**file_shapes)
def test_read_scores_is_bitwise_equal_to_the_csv_loop(width, data, newline, final, chunk):
    rows = data.draw(st.lists(
        st.tuples(st.integers(0, width - 1), st.lists(cells, min_size=width, max_size=width)),
        min_size=1, max_size=40,
    ))
    lines = [",".join([str(label), *values]) for label, values in rows]
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(dataset, "CSV_CHUNK_ROWS", chunk):
        paths = _write_scores(tmp, width, lines, newline, final)
        expected = _outcome(oracle_read_scores, *paths)
        assert expected[0] == "ok"
        assert _outcome(_read_scores, *paths) == expected


def _write_counts(directory, lines, newline="\n", final=True):
    counts = Path(directory) / "c.csv"
    counts.write_bytes((newline.join(lines) + newline * final).encode())
    return counts


def _integer_text(digits):
    """``digits`` as an integer text: padded, signed and zero-led in the ways int() reads."""
    return st.builds(
        lambda pad, sign, zeros, d: f"{pad}{sign}{zeros}{d}{pad}",
        st.sampled_from(["", " ", "\t"]), st.sampled_from(["", "+"]),
        st.sampled_from(["", "0", "0" * 5000]), digits,
    )


@settings(max_examples=100, deadline=None)
@given(num_classes=st.integers(1, 12), data=st.data(),
       newline=file_shapes["newline"], final=st.booleans(), chunk=file_shapes["chunk"])
def test_read_counts_is_bitwise_equal_to_the_csv_loop(num_classes, data, newline, final, chunk):
    order = data.draw(st.permutations(range(num_classes)))
    counts = _integer_text(st.integers(1, 10**300).map(str))
    lines = [f"{data.draw(_integer_text(st.just(c)))},{data.draw(counts)}" for c in order]
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(dataset, "CSV_CHUNK_ROWS", chunk):
        path = _write_counts(tmp, lines, newline, final)
        expected = oracle_read_counts(path, num_classes)
        assert _read_counts(path, num_classes).tobytes() == expected.tobytes()


WHITESPACE = " \t\n\r\f\v"


@settings(max_examples=300, deadline=None)
@given(
    text=st.builds(
        lambda lead, sign, zeros, digits, trail: lead + sign + zeros + digits + trail,
        st.text(WHITESPACE, max_size=3), st.sampled_from(["", "+", "-"]),
        st.text("0", max_size=6), st.text("0123456789", min_size=1, max_size=20),
        st.text(WHITESPACE, max_size=3),
    ).filter(lambda t: len(t) <= 20),
)
def test_class_id_is_int_of_every_ascii_integer_text_up_to_20_characters(text):
    assert _class_id(text) == int(text)


# name -> (width, faulty lines, index of the line the error must name)
FEATURE_FAULTS = {
    "ragged row": (2, ["1,train,1.0"], 0),
    "empty cell": (2, ["1,train,1.0,"], 0),
    "empty cell at dim 1": (1, ["0,train,"], 0),
    "blank line": (2, [""], 0),
    "non-integer label": (2, ["x,train,1.0,2.0"], 0),
    "label out of range": (2, ["3,train,1.0,2.0"], 0),
    "unknown split": (2, ["1,dev,1.0,2.0"], 0),
    "non-numeric cell": (2, ["1,train,1.0,abc"], 0),
    "hash leading a cell": (2, ["1,train,#1.0,2.0"], 0),
    "hash inside a cell": (2, ["1,train,1.0,2#0"], 0),
    "hash leading the line": (2, ["#1,train,1.0,2.0"], 0),
    "nan": (2, ["1,train,nan,2.0"], 0),
    "inf": (2, ["1,train,1.0,-inf"], 0),
    "1e999": (2, ["1,train,1e999,2.0"], 0),
    "bad value before bad split": (2, ["1,train,abc,2.0", "1,dev,1.0,2.0"], 0),
    "nan before bad label": (2, ["1,train,nan,2.0", "9,train,1.0,2.0"], 1),
}
SCORE_FAULTS = {
    "ragged row": (2, ["1,1.0"], 0),
    "empty cell": (2, ["1,1.0,"], 0),
    "empty cell at one column": (1, ["0,"], 0),
    "blank line": (2, [""], 0),
    "non-integer label": (2, ["x,1.0,2.0"], 0),
    "label out of range": (2, ["2,1.0,2.0"], 0),
    "non-numeric cell": (2, ["1,abc,2.0"], 0),
    "hash in a cell": (2, ["1,1.0,2.0#"], 0),
    "nan": (2, ["1,nan,2.0"], 0),
    "inf": (2, ["1,1.0,inf"], 0),
    "1e999": (2, ["1,-1e999,2.0"], 0),
    "bad value before ragged row": (2, ["1,abc,2.0", "1,2.0"], 0),
    "label out of range before bad value": (2, ["5,1.0,2.0", "1,2.0,abc"], 1),
}
TEST_CHUNK_ROWS = 4
GOOD_LINES = 10
# 3 and 4 sit either side of the first chunk boundary; "end" follows every good line
FAULT_POSITIONS = [3, 4, 5, "end"]


def _faulty_file(write, good_line, width, faults, position, newline, directory):
    lines = [good_line(k, width) for k in range(GOOD_LINES)]
    at = len(lines) if position == "end" else position
    lines[at:at] = faults
    return at, write(directory, width, lines, newline)


def _good_feature_line(k, width):
    return ",".join([str(k % NUM_CLASSES), TRAIN] + [f"{k}.{j}5" for j in range(width)])


def _good_score_line(k, width):
    return ",".join([str(k % width)] + [f"-{k}.{j}5" for j in range(width)])


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("position", FAULT_POSITIONS)
@pytest.mark.parametrize("fault", FEATURE_FAULTS)
def test_load_features_fails_like_the_csv_loop(
    tmp_path, monkeypatch, fault, position, newline
):
    monkeypatch.setattr(dataset, "CSV_CHUNK_ROWS", TEST_CHUNK_ROWS)
    width, faults, named = FEATURE_FAULTS[fault]
    at, paths = _faulty_file(_write_features, _good_feature_line, width, faults,
                             position, newline, tmp_path)
    expected = _outcome(oracle_load_features, *paths)
    assert expected[0] == "error" and f"x.csv: line {at + named + 2}: " in expected[1]
    assert _outcome(load_features, *paths) == expected


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("position", FAULT_POSITIONS)
@pytest.mark.parametrize("fault", SCORE_FAULTS)
def test_read_scores_fails_like_the_csv_loop(tmp_path, monkeypatch, fault, position, newline):
    monkeypatch.setattr(dataset, "CSV_CHUNK_ROWS", TEST_CHUNK_ROWS)
    width, faults, named = SCORE_FAULTS[fault]
    at, paths = _faulty_file(_write_scores, _good_score_line, width, faults,
                             position, newline, tmp_path)
    expected = _outcome(oracle_read_scores, *paths)
    assert expected[0] == "error" and f"s.csv: line {at + named + 2}: " in expected[1]
    assert _outcome(_read_scores, *paths) == expected


# classes 10 and 11 are in range and on no good line
COUNT_CLASSES = GOOD_LINES + 2
# name -> (faulty lines, index of the line the error must name)
COUNT_FAULTS = {
    "one field": (["10"], 0),
    "three fields": (["10,5,5"], 0),
    "non-integer class": (["x,5"], 0),
    "non-integer count": (["10,x"], 0),
    "float count": (["10,1.5"], 0),
    "empty count": (["10,"], 0),
    "hash after a count": (["10,5#"], 0),
    "class out of range": (["12,5"], 0),
    "negative class": (["-1,5"], 0),
    "class listed twice": (["0,9"], 0),
    "400-digit class": (["9" * 400 + ",5"], 0),
    "5000-digit class": (["9" * 5000 + ",5"], 0),
    "400-digit count": (["10," + "9" * 400], 0),
    "5000-digit count": (["10," + "9" * 5000], 0),
    "negative 400-digit count": (["10,-" + "9" * 400], 0),
    "bad count before a class listed twice": (["10,x", "0,9"], 0),
    "class listed twice before a huge count": (["0,9", "10," + "9" * 400], 0),
    "huge count before a class listed twice": (["10," + "9" * 400, "0,9"], 0),
    "huge count of a class out of range": (["12," + "9" * 400], 0),
    "huge count of a 400-digit class": (["9" * 400 + "," + "9" * 400], 0),
}


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("position", FAULT_POSITIONS)
@pytest.mark.parametrize("fault", COUNT_FAULTS)
def test_read_counts_fails_like_the_csv_loop(tmp_path, monkeypatch, fault, position, newline):
    monkeypatch.setattr(dataset, "CSV_CHUNK_ROWS", TEST_CHUNK_ROWS)
    faults, named = COUNT_FAULTS[fault]
    lines = [f"{k},{k + 1}" for k in range(GOOD_LINES)]
    at = len(lines) if position == "end" else position
    lines[at:at] = faults
    path = _write_counts(tmp_path, lines, newline)
    expected = _outcome(oracle_read_counts, path, COUNT_CLASSES)
    assert expected[0] == "error" and f"c.csv: line {at + named + 1}: " in expected[1]
    assert _outcome(_read_counts, path, COUNT_CLASSES) == expected


@pytest.mark.parametrize("rows", ["", "0,5\n", "0,5\n1,-0\n", "0,0\n1,5\n", "0,5\n1,-4\n"],
                         ids=["empty", "missing", "minus-zero", "zero", "negative"])
def test_read_counts_names_a_class_without_a_positive_count_like_the_csv_loop(tmp_path, rows):
    path = tmp_path / "c.csv"
    path.write_text(rows)
    expected = _outcome(oracle_read_counts, path, 2)
    assert expected[0] == "error" and "every class needs a positive count" in expected[1]
    assert _outcome(_read_counts, path, 2) == expected


# deliberate departures from the csv.reader loaders


def test_quoted_fields_are_not_unquoted(tmp_path):
    paths = _write_features(tmp_path, 2, ['0,train,"1.5",2.0'])
    assert oracle_load_features(*paths).features[0, 0] == 1.5
    with pytest.raises(FormatError, match=r"x\.csv: line 2: non-numeric feature value"):
        load_features(*paths)


@pytest.mark.parametrize("cell", ["1_0", "١٠"], ids=["underscore", "arabic-indic"])
def test_floats_beyond_ascii_decimal_exit_3_with_their_line(tmp_path, capsys, cell):
    assert float(cell) == 10.0  # the csv.reader loaders accepted these
    paths = _write_features(tmp_path, 2, ["0,train,1.0,2.0", f"1,train,{cell},2.0"])
    assert oracle_load_features(*paths).features[1, 0] == 10.0
    with pytest.raises(FormatError, match=r"x\.csv: line 3: non-numeric feature value"):
        load_features(*paths)
    (scores,) = _write_scores(tmp_path, 2, ["0,2.0,1.0", f"1,{cell},2.0"])
    assert oracle_read_scores(scores)[0][1, 0] == 10.0
    assert main(["calibrate", "--method", "iso", "--scores", str(scores)]) == 3
    assert "s.csv: line 3: non-numeric value" in capsys.readouterr().err


def test_counts_quoted_fields_exit_3_with_their_line(tmp_path, capsys):
    path = _write_counts(tmp_path, ["0,5", '"1",3'])
    assert oracle_read_counts(path, 2).tolist() == [5.0, 3.0]
    (scores,) = _write_scores(tmp_path, 2, ["0,2.0,1.0", "1,1.0,2.0"])
    assert main(["calibrate", "--method", "th", "--scores", str(scores),
                 "--counts", str(path)]) == 3
    assert "c.csv: line 2: non-integer value" in capsys.readouterr().err


@pytest.mark.parametrize("row", ["1,1_0", "0_1,3"], ids=["count", "class"])
def test_counts_underscore_separators_exit_3_with_their_line(tmp_path, row):
    path = _write_counts(tmp_path, ["0,5", row])
    assert oracle_read_counts(path, 2).tolist() == [5.0, 10.0 if row == "1,1_0" else 3.0]
    with pytest.raises(FormatError, match=r"c\.csv: line 2: non-integer value"):
        _read_counts(path, 2)


def test_counts_blank_lines_exit_3_with_their_line(tmp_path):
    path = _write_counts(tmp_path, ["0,5", "", "1,3"])
    assert oracle_read_counts(path, 2).tolist() == [5.0, 3.0]
    with pytest.raises(FormatError, match=r"c\.csv: line 2: expected class,count"):
        _read_counts(path, 2)


@pytest.mark.parametrize("label", ["0_1", "\u0661"], ids=["underscore", "arabic-indic"])
def test_labels_and_class_ids_beyond_ascii_decimal_exit_3_or_2(tmp_path, capsys, label):
    assert int(label) == 1  # the csv.reader loaders and int() accepted these
    paths = _write_features(tmp_path, 2, ["0,train,1.0,2.0", f"{label},train,1.0,2.0"])
    assert oracle_load_features(*paths).labels[1] == 1
    with pytest.raises(FormatError, match=r"x\.csv: line 3: non-integer label"):
        load_features(*paths)
    (scores,) = _write_scores(tmp_path, 2, ["0,2.0,1.0", f"{label},1.0,2.0"])
    assert oracle_read_scores(scores)[1][1] == 1
    assert main(["calibrate", "--method", "iso", "--scores", str(scores)]) == 3
    assert "s.csv: line 3: non-numeric value" in capsys.readouterr().err
    counts = _write_counts(tmp_path, ["0,5", f"{label},3"])
    assert oracle_read_counts(counts, 2).tolist() == [5.0, 3.0]
    with pytest.raises(FormatError, match=r"c\.csv: line 2: non-integer value"):
        _read_counts(counts, 2)
    assert _oracle_class_id(label, 2) == 1
    (scores,) = _write_scores(tmp_path, 2, ["0,2.0,1.0", "1,1.0,2.0"])
    assert main(["calibrate", "--method", "mb", "--scores", str(scores),
                 "--old", "0", "--new", label]) == 2
    assert "--new: class ids must be comma-separated integers" in capsys.readouterr().err


def test_an_out_of_range_class_id_of_up_to_20_digits_is_printed(tmp_path):
    path = _write_counts(tmp_path, ["0,5", "100,3"])
    with pytest.raises(FormatError, match=r"c\.csv: line 2: class id out of range, too many"):
        oracle_read_counts(path, 2)
    with pytest.raises(FormatError, match=r"c\.csv: line 2: class 100 out of range"):
        _read_counts(path, 2)
