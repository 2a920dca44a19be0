import signal
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from imbcal import backbone
from imbcal.errors import ParameterError
from imbcal.metrics import (
    ECE_BINS_DEFAULT,
    ECE_BINS_MAX,
    average_incremental_accuracy,
    ece,
    group_mean_scores,
    top1,
)


def binary_probs(confidences):
    """Two-column rows where column 0 holds the confidence, so pred = 0."""
    c = np.asarray(confidences, dtype=np.float64)
    return np.stack([c, 1.0 - c], axis=1)


def binned_gap(p, preds, labels, m=ECE_BINS_DEFAULT):
    """ECE as sum over bins of |sum of confidences - number correct| / n."""
    conf = p.max(axis=1)
    bins = np.minimum((conf * m).astype(int), m - 1)
    conf_sum = np.bincount(bins, conf, m)
    hits = np.bincount(bins, np.asarray(preds) == np.asarray(labels), m)
    return np.abs(conf_sum - hits).sum() / len(labels)


class TestTop1:
    def test_all_correct(self):
        assert top1([0, 1, 2], [0, 1, 2]) == 100.0

    def test_three_of_four(self):
        assert top1([0, 1, 2, 2], [0, 1, 2, 3]) == 75.0

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            top1([], [])


class TestAverageIncremental:
    def test_drops_first_state(self):
        assert average_incremental_accuracy([70.0, 50.0, 30.0]) == pytest.approx(40.0)

    def test_two_states(self):
        assert average_incremental_accuracy([90.0, 60.0]) == 60.0

    def test_single_state_rejected(self):
        with pytest.raises(ParameterError):
            average_incremental_accuracy([80.0])


class TestEce:
    def test_perfect_confident_classifier_is_zero(self):
        p = binary_probs([1.0] * 8)
        assert ece(p, np.zeros(8, dtype=int), np.zeros(8, dtype=int)) == pytest.approx(0.0, abs=1e-12)

    def test_hand_case_point_three(self):
        # ten samples at confidence 0.9, six correct: |0.9 - 0.6| = 0.3
        p = binary_probs([0.9] * 10)
        preds = np.zeros(10, dtype=int)
        labels = np.array([0] * 6 + [1] * 4)
        assert ece(p, preds, labels) == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize("confs, labels, m, expected", [
        # 0.75 = 3/4 opens bin 3 beside 0.9, apart from 0.6 in bin 2
        ([0.6, 0.75, 0.9], [0, 1, 0], 4, (0.4 + 0.65) / 3),
        # 0.75 = 15/20 opens bin 15 beside 0.76, apart from 0.74 in bin 14
        ([0.74, 0.75, 0.76], [0, 1, 0], 20, (0.26 + 0.51) / 3),
        # 1.0 falls in the last, closed bin, beside 0.8
        ([0.8, 1.0], [0, 1], 4, 0.4),
        ([0.8, 1.0], [0, 1], 20, 0.6),
    ], ids=["b-over-m-at-4", "b-over-m-at-20", "one-at-4", "one-at-20"])
    def test_bin_edges(self, confs, labels, m, expected):
        p = binary_probs(confs)
        preds = np.zeros(len(confs), dtype=int)
        assert ece(p, preds, labels, m=m) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 4, 20, 1000])
    def test_empty_bins_add_nothing(self, m):
        # ten samples at confidence 0.9 in one bin, six correct: |0.9 - 0.6|
        p = binary_probs([0.9] * 10)
        labels = np.array([0] * 6 + [1] * 4)
        assert ece(p, np.zeros(10, dtype=int), labels, m=m) == pytest.approx(0.3, abs=1e-12)

    def test_2_62_bins_visit_only_the_occupied_ones(self):
        # distinct confidences over 2**-62 apart each get a bin of their own
        def stuck(*_):
            raise AssertionError("ece is still visiting bins after 20 s")

        confs = [0.55, 0.6, 0.75, 0.9, 1.0]
        labels = np.array([0, 1, 0, 0, 1])
        previous = signal.signal(signal.SIGALRM, stuck)
        signal.alarm(20)
        try:
            e = ece(binary_probs(confs), np.zeros(5, dtype=int), labels, m=ECE_BINS_MAX)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert ECE_BINS_MAX == 2**62
        assert e == pytest.approx(np.mean(np.abs(np.array(confs) - (labels == 0))), abs=1e-12)

    def test_default_bin_count(self):
        assert ECE_BINS_DEFAULT == 20
        p = binary_probs([0.6, 0.8, 1.0])
        preds = labels = np.zeros(3, dtype=int)
        assert ece(p, preds, labels) == ece(p, preds, labels, m=20)

    def test_sum_over_bins(self):
        rng = np.random.default_rng(0)
        raw = rng.random((50, 5))
        p = raw / raw.sum(axis=1, keepdims=True)
        preds = p.argmax(axis=1)
        labels = rng.integers(0, 5, size=50)
        assert ece(p, preds, labels) == pytest.approx(binned_gap(p, preds, labels), abs=1e-12)

    def test_rows_must_sum_to_one(self):
        with pytest.raises(ParameterError):
            ece(np.array([[0.5, 0.4]]), [0], [0])

    def test_misaligned_lengths(self):
        with pytest.raises(ParameterError):
            ece(binary_probs([0.9, 0.8]), [0], [0, 0])

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, (20,), elements=st.floats(0.5, 1.0)),
           st.integers(min_value=0, max_value=2**16))
    def test_bounded_in_unit_interval(self, confs, seed):
        p = binary_probs(confs)
        labels = np.random.default_rng(seed).integers(0, 2, size=20)
        e = ece(p, np.zeros(20, dtype=int), labels)
        assert 0.0 <= e <= 1.0

    def test_merging_two_runs_with_shared_bins(self):
        # samples all land in one bin, so ECE is |mean conf - accuracy|
        p = binary_probs([0.82, 0.84, 0.81, 0.83])
        labels = np.array([0, 0, 1, 0])
        expected = abs(np.mean([0.82, 0.84, 0.81, 0.83]) - 0.75)
        assert ece(p, np.zeros(4, dtype=int), labels) == pytest.approx(expected, abs=1e-12)

    def test_the_ece_step_allocates_one_score_matrix(self):
        # the harness's ECE step: softmax's one (n, N) matrix, and only
        # (n,) temporaries inside ece
        gen = np.random.default_rng(0)
        s = gen.normal(size=(2000, 300))
        preds, labels = s.argmax(axis=1), gen.integers(0, 300, size=2000)
        tracemalloc.start()
        try:
            ece(backbone.softmax(s), preds, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * s.nbytes


class TestGroupMeanScores:
    def test_split_means(self):
        s = np.array([[3.0, 0.0], [1.0, 0.0], [0.0, 5.0]])
        labels = [0, 0, 1]
        mu_old, mu_new = group_mean_scores(s, labels, ([0], [1]))
        assert mu_old == pytest.approx(2.0)
        assert mu_new == pytest.approx(5.0)

    def test_empty_group_gives_none(self):
        s = np.array([[2.0, 0.0], [0.0, 4.0]])
        mu_old, mu_new = group_mean_scores(s, [0, 1], ([], [0, 1]))
        assert mu_old is None
        assert mu_new == pytest.approx(3.0)

    def test_uses_ground_truth_column(self):
        # label picks the column even when another class scores higher
        s = np.array([[1.0, 9.0]])
        (mu,) = group_mean_scores(s, [0], ([0],))
        assert mu == 1.0

    def test_group_without_samples_gives_none(self):
        s = np.array([[1.0, 2.0]])
        assert group_mean_scores(s, [0], ([0], [1])) == [1.0, None]

    def test_one_mean_per_group_in_order(self):
        s = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 6.0], [4.0, 0.0, 0.0]])
        labels = np.array([0, 1, 2, 0])
        groups = [np.array([2]), (0, 1), range(0), [0]]
        assert group_mean_scores(s, labels, groups) == [6.0, 7.0 / 3.0, None, 2.5]
