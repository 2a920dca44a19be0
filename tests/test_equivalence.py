"""The fast kernels against the straightforward loops they replaced.

Each oracle below is the plain implementation the fast one replaced:
list-based PAVA, Platt's Newton fit that re-evaluates the likelihood at
every step, the scalar Fisher-Jenks DP, nem's full (n, N, d) difference
tensor, herding that orders every row of a class, SGD that takes the
softmax and the loss with an exp each, the feature and score CSV
loaders that call ``float`` on each ``csv.reader`` cell, and the th and
mb applies that preceded the shared per-class factor multiply. The fast
versions perform the same IEEE operations on the same operands, so
results must match bit for bit (``tobytes()``), not merely to a
tolerance; the loaders must also fail with the same message and line.
"""

import csv
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbcal import dataset, memory, rng
from imbcal.backbone import PLATEAU_TOL, LinearModel, TrainConfig, extend_model, softmax, train
from imbcal.breaks import _check, _result, fisher_jenks
from imbcal.calibration import (
    NEM_CHUNK_ROWS,
    NEM_EPSILON,
    PLATT_GRAD_TOL,
    PLATT_MAX_ITER,
    CalibContext,
    CalibratorState,
    apply_mb,
    apply_nem,
    apply_threshold,
    fit_mb,
    fit_threshold,
    fit_step_map,
    pava,
    platt_fit_binary,
)
from imbcal.cli import _read_scores, main
from imbcal.dataset import SPLITS, TRAIN, DatasetTable, load_features
from imbcal.errors import FormatError
from imbcal.memory import HERD_SCREEN_MIN, _screen, herd_order

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
    part = table.only(split=TRAIN)
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
def test_fit_step_map_is_bitwise_equal(pairs, rounded):
    scores = np.array([s for s, _ in pairs])
    if rounded:  # many equal scores
        scores = np.round(scores, 0)
    targets = np.array([float(y) for _, y in pairs])
    b, l = fit_step_map(scores, targets)
    ob, ol = oracle_fit_step_map(scores, targets)
    assert _same(b, ob) and _same(l, ol)


# ---------------------------------------------------------------------------
# Platt


def _platt_bytes(result):
    a, c, converged = result
    return np.float64(a).tobytes(), np.float64(c).tobytes(), bool(converged)


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
    assert _platt_bytes(platt_fit_binary(scores, pos)) == _platt_bytes(oracle_platt(scores, pos))


@pytest.mark.parametrize("seed", range(4))
def test_platt_non_converged_fits_match(seed):
    # a large common offset leaves the Hessian ill-conditioned, so Newton
    # stalls and the fit returns its best iterate instead of converging
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=40) + 1e8
    pos = np.arange(40) % 3 == 0
    result = platt_fit_binary(scores, pos)
    assert result[2] is False
    assert _platt_bytes(result) == _platt_bytes(oracle_platt(scores, pos))


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


@pytest.mark.parametrize(
    "rows", [1, NEM_CHUNK_ROWS - 1, NEM_CHUNK_ROWS, NEM_CHUNK_ROWS + 1, 2 * NEM_CHUNK_ROWS + 3]
)
def test_apply_nem_is_bitwise_equal_across_chunk_boundaries(rows):
    rng = np.random.default_rng(rows)
    means = rng.normal(size=(7, 11))
    features = rng.normal(size=(rows, 11)) * 3
    out = apply_nem(CalibratorState("nem", {"means": means}), features)
    assert _same(out, oracle_apply_nem(means, features))


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
        out = apply_threshold(fit_threshold(_factor_ctx(counts)), probs)
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
        out = apply_mb(state, scores)
        assert _same(out, oracle_apply_mb(state.params["ratio"], old, scores))


@pytest.mark.parametrize("old", [(), (1,), (2, 0), (0, 0, 2)])
def test_mb_factors_keep_negative_zero_infinities_and_nan(old):
    scores = np.array([[-0.0, np.inf, -np.inf], [np.nan, -np.nan, 0.0]])
    val_scores = np.array([[0.5, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.5]])
    state = fit_mb(_factor_ctx([1, 1, 1], val_scores, [0, 1, 2], old))
    assert state.params["ratio"] != 1.0 or not old
    assert _same(apply_mb(state, scores), oracle_apply_mb(state.params["ratio"], old, scores))


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
    assert _same(herd_order(feats, q), oracle_herd_order(feats)[:q])


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("q", [0, 1, 29, 30, 31, 500])
def test_herd_order_prefix_at_the_edges(d, q):
    # 30 rows rounded to a few grid points: many exact ties
    feats = np.round(np.random.default_rng(d).normal(size=(30, d)))
    assert _same(herd_order(feats, q), oracle_herd_order(feats)[:q])


def test_herd_order_keeps_the_sqrt_that_ties_rounded_distances():
    # both rows lie equally far from the mean; rounding leaves row 1's squared
    # distance an ulp smaller, and the sqrt maps both to one value, so the
    # first pick is the lower index, as in the full order
    feats = np.array([[1.8, 0.3], [-0.1, 1.4]])
    squared = ((feats - feats.mean(axis=0)) ** 2).sum(axis=1)
    assert squared[1] < squared[0] and np.sqrt(squared[1]) == np.sqrt(squared[0])
    assert herd_order(feats, 1).tolist() == [0]
    assert _same(herd_order(feats, 2), oracle_herd_order(feats))


def test_screen_keeps_the_rows_the_sqrt_ties():
    # the case above, screened
    feats = np.array([[1.8, 0.3], [-0.1, 1.4]])
    with mock.patch.object(memory, "HERD_SCREEN_MIN", 0):
        assert _same(herd_order(feats, 2), oracle_herd_order(feats))
    # were the Gram form exact (no error bound), the tie margin alone must
    # keep row 0, whose squared distance is an ulp larger
    squared = ((feats - feats.mean(axis=0)) ** 2).sum(axis=1)
    assert squared[0] > squared[1]
    assert _screen(squared, 0.0).tolist() == [0, 1]
    # rows beyond the margin go
    assert _screen(np.array([1.0, 1.0 + 1e-14, np.inf]), 0.0).tolist() == [0]


# the screen: hypothesis cases with every class screened


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
    with mock.patch.object(memory, "HERD_SCREEN_MIN", 0):
        got = herd_order(feats, q)
    assert _same(got, oracle_herd_order(feats)[:q])


@pytest.mark.parametrize("seed, offset", [(0, 0.0), (1, 0.0), (2, 3.0), (3, 1e3)])
def test_herd_order_screens_full_size_classes(seed, offset):
    # the shape of a benchmark class: 450 train/val rows of 64 features
    gen = np.random.default_rng(seed)
    feats = gen.normal(size=64) * 0.25 + gen.normal(size=(450, 64)) + offset
    assert feats.size >= HERD_SCREEN_MIN
    expected = oracle_herd_order(feats)
    for q in (1, 50, 114, 450):
        assert _same(herd_order(feats, q), expected[:q])


def test_herd_order_never_repeats_a_row_when_distances_overflow():
    # every squared distance is inf here; the full-order loop took row 0 again
    # at step 2, herd_order takes each row once
    feats = np.random.default_rng(0).normal(size=(5, 3)) * 1e200
    with np.errstate(over="ignore"):
        assert oracle_herd_order(feats).tolist()[:2] == [0, 0]
        assert sorted(herd_order(feats, 5).tolist()) == [0, 1, 2, 3, 4]


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
    assert _same_model(train(model, table, config), expected)


@pytest.mark.parametrize("batch_size", [1, 7, 32])
def test_train_matches_through_plateau_decay(batch_size):
    # with a large step the loss soon stops improving by PLATEAU_TOL,
    # so the learning rate decays (asserted below)
    model, table = _train_case(53, 3, 4, batch_size)
    config = TrainConfig(epochs=30, initial_lr=0.5, batch_size=batch_size,
                         plateau_patience=1, seed=batch_size)
    expected, final_lr = oracle_train(model, table, config)
    assert final_lr < config.initial_lr
    assert _same_model(train(model, table, config), expected)


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
