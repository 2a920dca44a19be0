import ast
import dataclasses
import tracemalloc
import warnings
from itertools import takewhile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbcal import backbone, calibration, harness
from imbcal.backbone import TrainConfig, extend_model, scores
from imbcal.calibration import (
    FEATURE_METHODS,
    METHOD_TAGS,
    NEM_EPSILON,
    CalibContext,
    CalibratorState,
    _fj_factors,
    apply_balanced,
    apply_fj,
    apply_isotonic,
    apply_mb,
    apply_nem,
    apply_platt,
    apply_step_map,
    apply_threshold,
    fit,
    fit_balanced,
    fit_fj,
    fit_isotonic,
    fit_mb,
    fit_nem,
    fit_platt,
    fit_step_map,
    fit_threshold,
    pava,
    predict,
)
from imbcal.dataset import DatasetTable
from imbcal.errors import ParameterError
from imbcal.memory import MemoryBuffer
from test_equivalence import oracle_pure_apply

ROOT = Path(__file__).resolve().parent.parent


def make_ctx(train_scores, train_labels, val_scores=None, val_labels=None,
             class_counts=None, old=(), new=None, **kw):
    train_scores = np.asarray(train_scores, dtype=np.float64)
    n_classes = train_scores.shape[1]
    if val_scores is None:
        val_scores, val_labels = train_scores, train_labels
    if class_counts is None:
        class_counts = np.bincount(np.asarray(train_labels), minlength=n_classes)
    if new is None:
        new = tuple(c for c in range(n_classes) if c not in old)
    return CalibContext(
        train_scores=train_scores,
        train_labels=np.asarray(train_labels, dtype=np.int64),
        val_scores=np.asarray(val_scores, dtype=np.float64),
        val_labels=np.asarray(val_labels, dtype=np.int64),
        class_counts=np.asarray(class_counts, dtype=np.int64),
        old_classes=tuple(old),
        new_classes=tuple(new),
        **kw,
    )


def platt_fit(scores, positive):
    """pl's (A, C, converged) for the class whose samples ``positive`` marks."""
    scores = np.asarray(scores, dtype=np.float64)
    state = fit_platt(make_ctx(np.column_stack([scores, scores]), np.where(positive, 0, 1)))
    return state.params["A"][0], state.params["C"][0], state.flags["converged"][0]


def exemplar_table(per_class, capacity=100, split="train"):
    """(table, MemoryBuffer) from a class id -> (m, d) features dict: the
    memory stores every row of the table, class by class."""
    ids = sorted(per_class)
    feats = np.concatenate([per_class[c] for c in ids])
    labels = np.concatenate([np.full(len(per_class[c]), c) for c in ids])
    table = DatasetTable(feats, labels, [split] * len(labels))
    return table, MemoryBuffer(capacity, {c: np.flatnonzero(labels == c) for c in ids})


def memory_kw(per_class, **kw):
    """The table and buffer keywords of a context over ``exemplar_table``."""
    return dict(zip(("table", "buffer"), exemplar_table(per_class, **kw)))


class TestPava:
    def test_already_monotone_is_fixed_point(self):
        v = [0.1, 0.2, 0.8, 0.9]
        assert pava(v).tolist() == v

    def test_single_violation_pools_to_mean(self):
        assert pava([0.3, 0.7, 0.5]).tolist() == [0.3, 0.6, 0.6]

    def test_full_reversal_pools_everything(self):
        out = pava([3.0, 2.0, 1.0])
        assert out.tolist() == [2.0, 2.0, 2.0]

    def test_weights_shift_pooled_level(self):
        out = pava([1.0, 0.0], weights=[3.0, 1.0])
        assert out.tolist() == [0.75, 0.75]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=20))
    def test_output_always_non_decreasing(self, values):
        out = pava(values)
        assert np.all(np.diff(out) >= -1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=8),
           st.integers(min_value=0, max_value=2**16))
    def test_no_monotone_candidate_beats_the_fit(self, values, seed):
        # random monotone sequences never achieve a smaller squared error
        values = np.asarray(values)
        fit = pava(values)
        fit_err = float(((fit - values) ** 2).sum())
        rng = np.random.default_rng(seed)
        for _ in range(50):
            cand = np.sort(rng.uniform(values.min() - 1, values.max() + 1, len(values)))
            cand_err = float(((cand - values) ** 2).sum())
            assert cand_err >= fit_err - 1e-9

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.floats(-10, 10), st.floats(0.01, 100)),
                    min_size=1, max_size=60))
    def test_matches_scipy_isotonic_regression(self, pairs):
        optimize = pytest.importorskip("scipy.optimize")
        values, weights = (np.array(x) for x in zip(*pairs))
        expected = optimize.isotonic_regression(values, weights=weights).x
        assert np.allclose(pava(values, weights), expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("weights", [[1.0, 0.0], [1.0, -2.0]])
    def test_rejects_non_positive_weights(self, weights):
        with pytest.raises(ParameterError):
            pava([1.0, 0.0], weights)


class TestStepMap:
    def test_separable_labels(self):
        b, l = fit_step_map([0.1, 0.2, 0.8, 0.9], [False, False, True, True])
        assert b.tolist() == [0.5]
        assert l.tolist() == [0.0, 1.0]

    def test_inverted_pair_pools(self):
        b, l = fit_step_map([0.3, 0.7], [True, False])
        assert b.tolist() == []
        assert l.tolist() == [0.5]

    def test_duplicate_scores_share_a_level(self):
        b, l = fit_step_map([0.5, 0.5, 0.9], [False, True, True])
        out = apply_step_map(b, l, np.array([0.5, 0.5]))
        assert out[0] == out[1]

    def test_apply_is_right_continuous_step(self):
        b, l = fit_step_map([0.0, 1.0], [False, True])
        assert apply_step_map(b, l, np.array([0.49, 0.51])).tolist() == [0.0, 1.0]


class TestIsotonic:
    def test_calibrated_scores_monotone_in_raw(self):
        rng = np.random.default_rng(0)
        s = rng.normal(size=(60, 3))
        labels = predict(s + rng.normal(scale=0.5, size=s.shape))
        ctx = make_ctx(s, labels)
        state = fit_isotonic(ctx)
        grid = np.linspace(-4, 4, 50)
        for c in range(3):
            cols = np.zeros((50, 3))
            cols[:, c] = grid
            out = apply_isotonic(state, cols)[:, c]
            assert np.all(np.diff(out) >= -1e-12)

    def test_outputs_are_pooled_label_means(self):
        s = np.array([[0.1, 0.0], [0.2, 0.0], [0.8, 0.0], [0.9, 0.0]])
        labels = np.array([1, 1, 0, 0])
        state = fit_isotonic(make_ctx(s, labels))
        assert state.flags["identity_classes"] == []
        out = apply_isotonic(state, np.array([[0.15, 0.0], [0.85, 0.0]]))
        assert out[0, 0] == 0.0 and out[1, 0] == 1.0

    def test_one_sided_classes_keep_the_identity_and_are_flagged(self):
        # class 0 holds every sample, classes 1 and 2 none: none has a map to fit
        s = np.array([[1.0, 0.0, 3.0], [2.0, 0.0, 4.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = fit_isotonic(make_ctx(s, [0, 0], class_counts=[2, 0, 0]))
        assert state.flags["identity_classes"] == [0, 1, 2]
        assert state.params["boundaries"] == {}
        out = apply_isotonic(state, s.copy())
        assert np.array_equal(out, s)


class TestPlatt:
    def test_symmetric_case_crosses_half_at_zero(self):
        s = np.array([-2.0, -1.0, 1.0, 2.0])
        a, c, _ = platt_fit(s, np.array([False, False, True, True]))
        p0 = 1.0 / (1.0 + np.exp(a * 0.0 + c))
        assert p0 == pytest.approx(0.5, abs=1e-6)

    def test_uninformative_scores_give_flat_slope(self):
        rng = np.random.default_rng(5)
        s = rng.normal(size=200)
        labels = rng.integers(0, 2, size=200).astype(bool)
        a, _, _ = platt_fit(s, labels)
        assert abs(a) < 0.5

    def test_calibrated_probability_monotone_in_score(self):
        s = np.concatenate([np.random.default_rng(1).normal(-2, 1, 30),
                            np.random.default_rng(2).normal(2, 1, 30)])
        pos = np.concatenate([np.zeros(30, bool), np.ones(30, bool)])
        a, c, _ = platt_fit(s, pos)
        grid = np.linspace(-5, 5, 40)
        p = 1.0 / (1.0 + np.exp(a * grid + c))
        assert np.all(np.diff(p) >= 0)

    def test_single_class_rejected(self):
        with pytest.raises(ParameterError, match="class 0: need at least one positive"):
            platt_fit(np.array([1.0, 2.0]), np.array([True, True]))

    def test_fit_and_apply_shape(self):
        rng = np.random.default_rng(3)
        s = rng.normal(size=(40, 3))
        labels = rng.integers(0, 3, size=40)
        state = fit_platt(make_ctx(s, labels))
        out = apply_platt(state, s)
        assert out.shape == s.shape
        assert np.all((out > 0) & (out < 1))

    def test_apply_overwrites_its_input_without_a_temporary(self):
        gen = np.random.default_rng(0)
        s = gen.normal(size=(2000, 300))
        state = CalibratorState("pl", {"A": gen.normal(size=300), "C": gen.normal(size=300)})
        tracemalloc.start()
        try:
            out = apply_platt(state, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # numpy's ufunc buffers stay, but no (rows, classes) temporary
        assert out is s
        assert peak < 0.1 * s.nbytes

    @pytest.mark.parametrize("num_classes", [150, 600])
    def test_fit_peak_does_not_grow_with_the_classes(self, num_classes):
        # each block builds its own positives, so no (classes, rows) mask
        # is held: the peak is a block's temporaries, whatever the classes
        gen = np.random.default_rng(0)
        n = 3000
        labels = np.concatenate([np.arange(num_classes), gen.integers(0, num_classes, n - num_classes)])
        s = gen.normal(size=(n, num_classes)) + 2.0 * (labels[:, None] == np.arange(num_classes))
        ctx = make_ctx(s, labels)
        tracemalloc.start()
        try:
            fit_platt(ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * calibration.PLATT_BLOCK_ELEMENTS * 8

    @staticmethod
    def _smoothed_nll(params, s, t):
        # p = 1 / (1 + e^z), so -log p = log(1 + e^z) and -log(1 - p) = log(1 + e^-z)
        z = params[0] * s + params[1]
        return float(np.sum(t * np.logaddexp(0, z) + (1 - t) * np.logaddexp(0, -z)))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_scipy_minimize_on_the_smoothed_nll(self, seed):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 200))
        pos = rng.random(n) < rng.uniform(0.1, 0.9)
        pos[:2] = True, False
        s = rng.normal(size=n) * rng.uniform(0.1, 5) + pos * rng.uniform(0, 3)
        n_pos, n_neg = pos.sum(), (~pos).sum()
        t = np.where(pos, (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (n_neg + 2.0))

        def grad(params):
            r = t - 1.0 / (1.0 + np.exp(params[0] * s + params[1]))
            return np.array([np.sum(s * r), np.sum(r)])

        best = optimize.minimize(lambda params: self._smoothed_nll(params, s, t), [0.0, 0.0],
                                 jac=grad, method="BFGS", options={"gtol": 1e-10})
        a, c, _ = platt_fit(s, pos)
        # no worse than scipy's minimum; its parameters are the less precise
        assert self._smoothed_nll([a, c], s, t) <= best.fun * (1 + 1e-12)
        assert np.allclose([a, c], best.x, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("fit", [fit_isotonic, fit_platt])
def test_iso_and_pl_refuse_a_context_without_training_scores(fit):
    ctx = dataclasses.replace(make_ctx(np.zeros((2, 2)), [0, 1]), train_scores=None)
    with pytest.raises(ParameterError, match="iso and pl need the training scores"):
        fit(ctx)


class TestThreshold:
    def test_hand_example_flips_argmax(self):
        ctx = make_ctx(np.zeros((4, 2)), [0, 0, 0, 1], class_counts=[3, 1])
        out = apply_threshold(fit_threshold(ctx), np.array([[0.6, 0.4]]))
        # 0.6 * 4/3 = 0.8, 0.4 * 4/1 = 1.6
        assert out[0].tolist() == pytest.approx([0.8, 1.6])
        assert predict(out)[0] == 1

    def test_uniform_counts_preserve_argmax(self):
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(4), size=100)
        ctx = make_ctx(np.zeros((4, 4)), [0, 1, 2, 3], class_counts=[5, 5, 5, 5])
        out = apply_threshold(fit_threshold(ctx), probs.copy())
        assert np.array_equal(predict(out), predict(probs))

    def test_count_scale_invariance(self):
        probs = np.random.default_rng(1).dirichlet(np.ones(3), size=20)
        a = make_ctx(np.zeros((3, 3)), [0, 1, 2], class_counts=[2, 4, 6])
        b = make_ctx(np.zeros((3, 3)), [0, 1, 2], class_counts=[20, 40, 60])
        assert np.array_equal(predict(apply_threshold(fit_threshold(a), probs.copy())),
                              predict(apply_threshold(fit_threshold(b), probs.copy())))

    def test_zero_count_rejected(self):
        ctx = make_ctx(np.zeros((2, 2)), [0, 0], class_counts=[2, 0])
        with pytest.raises(ParameterError):
            apply_threshold(fit_threshold(ctx), np.array([[0.5, 0.5]]))

    def test_fit_records_counts(self):
        ctx = make_ctx(np.zeros((3, 2)), [0, 0, 1])
        state = fit_threshold(ctx)
        assert state.params["factors"].tolist() == [1.5, 3.0]


class TestNem:
    def exemplars(self):
        return {0: np.array([[0.0, 0.0], [2.0, 0.0]]), 1: np.array([[10.0, 0.0]])}

    def test_means_are_exact(self):
        ctx = make_ctx(np.zeros((2, 2)), [0, 1], **memory_kw(self.exemplars()))
        state = fit_nem(ctx)
        assert state.params["means"].tolist() == [[1.0, 0.0], [10.0, 0.0]]

    def test_score_is_inverse_distance(self):
        ctx = make_ctx(np.zeros((2, 2)), [0, 1], **memory_kw(self.exemplars()))
        state = fit_nem(ctx)
        out = apply_nem(state, np.array([[1.5, 0.0]]))
        assert out[0, 0] == pytest.approx(1.0 / 0.5, rel=1e-9)

    def test_argmax_is_nearest_mean(self):
        ctx = make_ctx(np.zeros((2, 2)), [0, 1], **memory_kw(self.exemplars()))
        state = fit_nem(ctx)
        out = apply_nem(state, np.array([[2.0, 0.0], [9.0, 0.0]]))
        assert predict(out).tolist() == [0, 1]

    def test_translation_equivariance(self):
        ctx = make_ctx(np.zeros((2, 2)), [0, 1], **memory_kw(self.exemplars()))
        state = fit_nem(ctx)
        shift = np.array([3.0, -4.0])
        shifted = {c: f + shift for c, f in self.exemplars().items()}
        state2 = fit_nem(make_ctx(np.zeros((2, 2)), [0, 1], **memory_kw(shifted)))
        q = np.array([[1.0, 1.0]])
        assert np.allclose(apply_nem(state, q), apply_nem(state2, q + shift))

    def test_missing_class_rejected(self):
        ctx = make_ctx(np.zeros((2, 2)), [0, 1], **memory_kw({0: np.zeros((1, 2))}))
        with pytest.raises(ParameterError):
            fit_nem(ctx)

    def test_missing_memory_rejected(self):
        with pytest.raises(ParameterError, match="need the exemplar memory"):
            fit_nem(make_ctx(np.zeros((2, 2)), [0, 1]))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_scipy_cdist(self, seed):
        distance = pytest.importorskip("scipy.spatial.distance")
        rng = np.random.default_rng(seed)
        n, num_classes, dim = (int(v) for v in rng.integers(1, [150, 12, 20]))
        scale = 10.0 ** rng.uniform(-3, 3)
        means = rng.normal(size=(num_classes, dim)) * scale
        features = rng.normal(size=(n, dim)) * scale
        out = apply_nem(CalibratorState("nem", {"means": means}), features)
        dist = distance.cdist(features, means)
        assert np.allclose(out, 1.0 / (dist + NEM_EPSILON), rtol=1e-12, atol=0)
        assert np.array_equal(predict(out), dist.argmin(axis=1))

    def test_peak_memory_is_the_output_and_a_block(self):
        # no temporary is larger than one block's (rows, N): the peak stays
        # below 1.5 times the (n, N) output, where one block's (rows, N, d)
        # difference tensor alone would be 5.5 times it
        gen = np.random.default_rng(0)
        state = CalibratorState("nem", {"means": gen.normal(size=(500, 256))})
        features = gen.normal(size=(3000, 256))
        tracemalloc.start()
        try:
            out = apply_nem(state, features)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (3000, 500)
        assert peak < 1.5 * out.nbytes


class TestBalanced:
    def test_quota_and_short_class(self):
        rng = np.random.default_rng(0)
        dim, n_classes, capacity = 4, 8, 100
        exemplars = {c: rng.normal(size=(14, dim)) + 3 * c for c in range(n_classes)}
        exemplars[3] = exemplars[3][:5]  # one class stored fewer than the quota
        ctx = make_ctx(np.zeros((n_classes, n_classes)), list(range(n_classes)),
                       **memory_kw(exemplars, capacity=capacity),
                       model=extend_model(None, n_classes, dim, seed=0),
                       train_config=TrainConfig(epochs=2, seed=0))
        state = fit_balanced(ctx)
        used = state.flags["per_class_used"]
        assert all(used[c] == 12 for c in range(n_classes) if c != 3)  # floor(100/8)
        assert used[3] == 5
        out = apply_balanced(state, rng.normal(size=(6, dim)))
        assert out.shape == (6, n_classes)

    def test_each_class_uses_the_train_rows_among_its_quota(self):
        # train fits train-split rows only: val-split exemplars within the
        # quota are not used, and the flag counts what is
        splits = ["train", "val", "train", "val", "val", "train",  # class 0
                  "val", "train", "train",                         # class 1
                  "val", "val", "train", "val", "train", "train"]  # class 2
        labels = np.repeat([0, 1, 2], [6, 3, 6])
        table = DatasetTable(np.random.default_rng(2).normal(size=(15, 3)), labels, splits)
        stored = {0: np.array([5, 1, 0, 3, 2, 4]), 1: np.array([8, 6, 7]),
                  2: np.array([9, 10, 12, 11, 13, 14])}
        quota = 12 // 3
        ctx = make_ctx(np.zeros((3, 3)), [0, 1, 2], table=table,
                       buffer=MemoryBuffer(12, stored), model=extend_model(None, 3, 3, seed=0),
                       train_config=TrainConfig(epochs=2))
        with mock.patch.object(backbone, "train", wraps=backbone.train) as spy:
            state = fit_balanced(ctx)
        used = {c: [r for r in rows[:quota] if splits[r] == "train"]
                for c, rows in stored.items()}
        assert used == {0: [5, 0], 1: [8, 7], 2: [11]}
        assert state.flags["per_class_used"] == {c: len(r) for c, r in used.items()}
        trained_on = spy.call_args.args[1]
        rows = np.concatenate(list(used.values()))
        assert trained_on.features.tobytes() == table.features[rows].tobytes()
        assert trained_on.labels.tolist() == labels[rows].tolist()
        assert set(trained_on.splits.tolist()) == {"train"}

    def test_retrained_layer_separates_easy_exemplars(self):
        rng = np.random.default_rng(1)
        dim = 3
        exemplars = {c: rng.normal(scale=0.2, size=(10, dim)) + 8 * np.eye(dim)[c]
                     for c in range(3)}
        ctx = make_ctx(np.zeros((3, 3)), [0, 1, 2], **memory_kw(exemplars, capacity=30),
                       model=extend_model(None, 3, dim, seed=0),
                       train_config=TrainConfig(epochs=25, seed=0))
        state = fit_balanced(ctx)
        for c in range(3):
            preds = predict(apply_balanced(state, exemplars[c]))
            assert np.mean(preds == c) >= 0.9

    def test_zero_quota_rejected(self):
        # capacity 2 over 3 classes gives floor(2 / 3) = 0 rows per class
        ctx = make_ctx(np.zeros((3, 3)), [0, 1, 2],
                       **memory_kw({c: np.zeros((1, 2)) for c in range(3)}, capacity=2),
                       model=extend_model(None, 3, 2, seed=0), train_config=TrainConfig(epochs=1))
        with pytest.raises(ParameterError):
            fit_balanced(ctx)

    def test_all_val_table_rejected(self):
        val_only = memory_kw({0: np.zeros((1, 2)), 1: np.zeros((1, 2))}, capacity=4, split="val")
        ctx = make_ctx(np.zeros((2, 2)), [0, 1], **val_only,
                       model=extend_model(None, 2, 2, seed=0), train_config=TrainConfig(epochs=1))
        with pytest.raises(ParameterError):
            fit_balanced(ctx)

    def test_missing_capacity_rejected(self):
        table, _ = exemplar_table({0: np.zeros((1, 2)), 1: np.zeros((1, 2))})
        ctx = make_ctx(np.zeros((2, 2)), [0, 1], table=table,  # no buffer, so no capacity
                       model=extend_model(None, 2, 2, seed=0), train_config=TrainConfig())
        with pytest.raises(ParameterError):
            fit_balanced(ctx)


class TestMb:
    def val_ctx(self, old_truth, new_truth):
        """Two classes: 0 is old, 1 is new, with prescribed truth scores."""
        n_old, n_new = len(old_truth), len(new_truth)
        val = np.zeros((n_old + n_new, 2))
        val[:n_old, 0] = old_truth
        val[n_old:, 1] = new_truth
        labels = [0] * n_old + [1] * n_new
        return make_ctx(np.zeros((2, 2)), [0, 1], val_scores=val, val_labels=labels,
                        class_counts=[1, 1], old=(0,), new=(1,))

    def test_ratio_rescales_old_columns_only(self):
        state = fit_mb(self.val_ctx([0.3, 0.3], [0.6, 0.6]))
        assert state.params["ratio"] == pytest.approx(2.0)
        out = apply_mb(state, np.array([[0.3, 0.5]]))
        assert out[0].tolist() == pytest.approx([0.6, 0.5])

    def test_first_state_is_identity(self):
        ctx = make_ctx(np.zeros((2, 2)), [0, 1], old=())
        state = fit_mb(ctx)
        assert state.params["ratio"] == 1.0
        assert "identity" in state.flags
        s = np.random.default_rng(0).normal(size=(5, 2))
        assert np.array_equal(apply_mb(state, s.copy()), s)

    def test_non_positive_old_mean_guards_to_identity(self):
        state = fit_mb(self.val_ctx([-0.2, -0.4], [0.5]))
        assert state.params["ratio"] == 1.0
        assert state.flags["identity"] == "non-positive old-class mean score"

    def test_missing_val_group_guards_to_identity(self):
        ctx = make_ctx(np.zeros((2, 2)), [0, 1],
                       val_scores=np.array([[0.0, 0.4]]), val_labels=[1],
                       class_counts=[1, 1], old=(0,), new=(1,))
        state = fit_mb(ctx)
        assert state.params["ratio"] == 1.0


class TestFj:
    def clustered_ctx(self):
        """Four classes: counts (100, 100, 10, 10); big classes score 0.8,
        small ones 0.4 on their own validation samples."""
        val = np.zeros((8, 4))
        labels = [0, 0, 1, 1, 2, 2, 3, 3]
        for i, lab in enumerate(labels):
            val[i, lab] = 0.8 if lab < 2 else 0.4
        return make_ctx(np.zeros((4, 4)), [0, 1, 2, 3], val_scores=val,
                        val_labels=labels, class_counts=[100, 100, 10, 10])

    def test_single_cluster_is_identity(self):
        ctx = self.clustered_ctx()
        state = fit_fj(ctx)
        assert state.params["factors"].tolist() == [1.0] * 4
        s = np.random.default_rng(0).normal(size=(5, 4))
        assert np.array_equal(apply_fj(state, s.copy()), s)

    def test_two_cluster_factors_are_mean_ratios(self):
        factors = _fj_factors(self.clustered_ctx(), 2)
        # top cluster (counts 100) scores 0.8; small cluster 0.4 -> factor 2
        assert factors.tolist() == pytest.approx([1.0, 1.0, 2.0, 2.0])

    def test_selection_prefers_smallest_l_on_ties(self):
        # validation scores are perfectly separable, so every L achieves
        # the same top-1 and the smallest candidate must win
        state = fit_fj(self.clustered_ctx())
        assert state.params["num_clusters"] == 1

    def test_candidates_capped_by_distinct_counts(self):
        ctx = make_ctx(np.zeros((3, 3)), [0, 1, 2], class_counts=[7, 7, 7])
        state = fit_fj(ctx)
        assert state.params["num_clusters"] == 1

    def test_deterministic(self):
        a = _fj_factors(self.clustered_ctx(), 2)
        b = _fj_factors(self.clustered_ctx(), 2)
        assert np.array_equal(a, b)


class TestPredict:
    def test_row_and_matrix(self):
        assert predict(np.array([0.1, 0.9])) == 1
        assert predict(np.array([[0.1, 0.9], [0.7, 0.2]])).tolist() == [1, 0]

    def test_tie_breaks_to_lowest_index(self):
        assert predict(np.array([0.5, 0.5, 0.2])) == 0

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            predict(np.empty((0, 3)))


def test_fit_and_apply_reject_an_unknown_tag():
    with pytest.raises(ParameterError):
        fit("magic", make_ctx(np.zeros((2, 2)), [0, 1]))
    with pytest.raises(ParameterError):
        calibration.apply(CalibratorState("magic", {}), np.zeros((1, 2)))


def _spans_calibrators():
    """bench/spans.py's CALIBRATORS, tag -> (fit name, apply name), read from its source."""
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["CALIBRATORS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no CALIBRATORS")


def test_the_traced_bench_names_every_calibrator():
    assert sorted(_spans_calibrators()) == sorted(METHOD_TAGS)


@pytest.mark.parametrize("tag, names", sorted(_spans_calibrators().items()))
def test_fit_and_apply_run_a_wrapper_set_on_the_module(monkeypatch, tag, names):
    # the traced bench times each calibrator by setting wrappers of its
    # fit_* and apply_* on the module: fit and apply must call through them
    gen = np.random.default_rng(0)
    table, buffer = exemplar_table({c: gen.normal(size=(10, 4)) + 2 * c for c in range(3)})
    model = extend_model(None, 3, 4, seed=0)
    ctx = make_ctx(scores(model, table.features), table.labels, old=(0,), table=table,
                   buffer=buffer, model=model, train_config=TrainConfig(epochs=2, seed=0))
    called = []
    for name in names:
        def wrapper(*args, _name=name, _original=getattr(calibration, name), **kwargs):
            called.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(calibration, name, wrapper)
    features = gen.normal(size=(5, 4))
    state = calibration.fit(tag, ctx)
    assert called == [names[0]]
    calibration.apply(state, scores(model, features), features)
    assert called == list(names)


def _readme_methods_table():
    """(tag, input) of each row of the README's "Calibration methods" table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = text.split("## Calibration methods\n", 1)[1].lstrip("\n").splitlines()
    rows = list(takewhile(lambda line: line.startswith("|"), lines))[2:]
    return [tuple(cell.strip() for cell in row.split("|")[1:3]) for row in rows]


def test_the_readme_table_lists_every_method_with_what_it_reads():
    rows = _readme_methods_table()
    assert [tag for tag, _ in rows] == list(harness.ALL_METHODS)
    assert tuple(tag for tag, what in rows if what == "features") == FEATURE_METHODS
    assert [tag for tag, what in rows if what == "softmax probs"] == ["th"]
    reads = {tag: row[2] for tag, row in calibration._calibrators().items()}
    assert dict(rows) == {"none": "raw scores", **reads}


def _expected_scores(state, raw, features):
    """A fitted method's calibrated scores, each step into a new matrix."""
    return {
        "none": lambda: raw.copy(),
        "th": lambda: oracle_pure_apply(state, backbone.softmax(raw)),
        "nem": lambda: apply_nem(state, features),
        "bal": lambda: apply_balanced(state, features),
    }.get(state.method, lambda: oracle_pure_apply(state, raw))()


def test_calibrators_leave_their_inputs_alone():
    """Every method fits with every input read-only, and ``apply`` writes
    only into the scores it is handed, with the bits of a form that writes
    each step into a new matrix."""
    gen = np.random.default_rng(0)
    n_classes, dim = 3, 4
    table, buffer = exemplar_table({c: gen.normal(size=(10, dim)) + 2 * c for c in range(n_classes)})
    model = extend_model(None, n_classes, dim, seed=0)
    train_scores = scores(model, table.features)
    ctx = make_ctx(train_scores, table.labels, train_scores.copy(), table.labels.copy(),
                   old=(0,), table=table, buffer=buffer, model=model,
                   train_config=TrainConfig(epochs=2, seed=0))
    features = gen.normal(size=(7, dim))
    raw = scores(model, features)
    inputs = [raw, features, model.weights, model.biases, ctx.train_scores, ctx.train_labels,
              ctx.val_scores, ctx.val_labels, ctx.class_counts, table.features, table.labels,
              table.splits, *buffer.classes.values()]
    for a in inputs:
        a.setflags(write=False)
    before = [a.tobytes() for a in inputs]
    for method in ("none",) + METHOD_TAGS:
        state = fit(method, ctx)
        expected = _expected_scores(state, raw, features)
        assert expected.shape == raw.shape, method
        own = raw.copy()
        out = calibration.apply(state, own, features)
        assert out.tobytes() == expected.tobytes(), method
        if method in FEATURE_METHODS:
            assert own.tobytes() == raw.tobytes(), method
        else:
            assert out is own, method
    assert [a.tobytes() for a in inputs] == before
