import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from imbcal.backbone import LinearModel, TrainConfig, extend_model, scores, softmax, train
from imbcal.dataset import generate_synthetic
from imbcal.errors import ParameterError


class TestExtendModel:
    def test_fresh_model_shape(self):
        m = extend_model(None, 4, 8, seed=0)
        assert m.num_classes == 4 and m.dim == 8
        assert np.all(m.biases == 0)

    def test_old_rows_copied_verbatim(self):
        m1 = extend_model(None, 4, 8, seed=0)
        m2 = extend_model(m1, 2, 8, seed=1)
        assert m2.num_classes == 6
        assert np.array_equal(m2.weights[:4], m1.weights)
        assert np.array_equal(m2.biases[:4], m1.biases)

    def test_same_seed_identical_rows(self):
        a = extend_model(None, 3, 5, seed=7)
        b = extend_model(None, 3, 5, seed=7)
        assert np.array_equal(a.weights, b.weights)

    def test_dim_mismatch(self):
        m = extend_model(None, 2, 4, seed=0)
        with pytest.raises(ParameterError):
            extend_model(m, 2, 5, seed=0)

    def test_extension_preserves_old_class_scores(self):
        m1 = extend_model(None, 3, 6, seed=0)
        m2 = extend_model(m1, 2, 6, seed=1)
        feats = np.random.default_rng(2).normal(size=(10, 6))
        assert np.array_equal(scores(m2, feats)[:, :3], scores(m1, feats))


class TestScores:
    def test_linear_algebra(self):
        m = LinearModel(np.eye(2), np.zeros(2))
        assert scores(m, np.array([[1.0, 0.0]])).tolist() == [[1.0, 0.0]]

    def test_zero_model(self):
        m = LinearModel(np.zeros((3, 2)), np.zeros(3))
        assert np.all(scores(m, np.ones((4, 2))) == 0)

    def test_bias_shift_keeps_argmax(self):
        rng = np.random.default_rng(0)
        W, b = rng.normal(size=(4, 3)), rng.normal(size=4)
        feats = rng.normal(size=(6, 3))
        s1 = scores(LinearModel(W, b), feats)
        s2 = scores(LinearModel(W, b + 5.0), feats)
        assert np.allclose(s2, s1 + 5.0)
        assert np.array_equal(s1.argmax(1), s2.argmax(1))

    def test_linearity_in_features(self):
        rng = np.random.default_rng(1)
        m = LinearModel(rng.normal(size=(3, 4)), rng.normal(size=3))
        f1, f2 = rng.normal(size=(1, 4)), rng.normal(size=(1, 4))
        assert np.allclose(scores(m, f1 + f2), scores(m, f1) + scores(m, f2) - m.biases)

    def test_dim_mismatch(self):
        m = LinearModel(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ParameterError):
            scores(m, np.ones((5, 4)))

    def test_one_dimensional_row_rejected(self):
        m = LinearModel(np.eye(2), np.zeros(2))
        with pytest.raises(ParameterError):
            scores(m, np.array([1.0, 0.0]))


class TestSoftmax:
    def test_symmetry(self):
        assert softmax(np.array([[0.0, 0.0]])).tolist() == [[0.5, 0.5]]

    def test_no_overflow_on_large_scores(self):
        p = softmax(np.array([[1000.0, 0.0]]))
        assert np.isfinite(p).all()
        assert p[0, 0] == pytest.approx(1.0)

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, (5, 4), elements=st.floats(-100, 100)))
    def test_rows_are_distributions(self, s):
        p = softmax(s)
        assert np.all(p >= 0)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)
        # argmax is preserved whenever the winner has a real margin
        # (ulp-level ties can collapse under exp)
        top2 = np.sort(s, axis=1)[:, -2:]
        clear = (top2[:, 1] - top2[:, 0]) > 1e-9
        assert np.array_equal(p.argmax(axis=1)[clear], s.argmax(axis=1)[clear])


class TestTrain:
    def test_separated_blobs_reach_95_percent(self):
        t = generate_synthetic(2, 4, 50, class_separation=6.0, noise_scale=1.0, seed=0)
        model = extend_model(None, 2, 4, seed=0)
        model = train(model, t, TrainConfig(epochs=25, seed=0))
        train_part = t.only(split="train")
        preds = scores(model, train_part.features).argmax(axis=1)
        assert np.mean(preds == train_part.labels) >= 0.95

    def test_single_epoch_finite(self):
        t = generate_synthetic(3, 4, 10, 2.0, 1.0, seed=1)
        model = extend_model(None, 3, 4, seed=0)
        out = train(model, t, TrainConfig(epochs=1, seed=0))
        assert np.isfinite(out.weights).all() and np.isfinite(out.biases).all()

    def test_zero_epochs_forbidden(self):
        with pytest.raises(ParameterError):
            TrainConfig(epochs=0)

    def test_deterministic_given_seed(self):
        t = generate_synthetic(3, 4, 15, 3.0, 1.0, seed=2)
        model = extend_model(None, 3, 4, seed=0)
        cfg = TrainConfig(epochs=5, seed=9)
        a = train(model, t, cfg)
        b = train(model, t, cfg)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.biases, b.biases)

    def test_empty_train_split_rejected(self):
        t = generate_synthetic(2, 4, 5, 3.0, 1.0, seed=0).only(split="test")
        model = extend_model(None, 2, 4, seed=0)
        with pytest.raises(ParameterError):
            train(model, t, TrainConfig())

    def test_out_of_range_labels_rejected(self):
        t = generate_synthetic(3, 4, 5, 3.0, 1.0, seed=0)
        model = extend_model(None, 2, 4, seed=0)
        with pytest.raises(ParameterError):
            train(model, t, TrainConfig())

