"""End-to-end acceptance gate.

Each test prints one PASS line when its criterion holds. The shared
incremental suite (criteria 4-6) runs 10 seeds of a 20-class, 5-state
protocol with strong imbalance and a 40-slot exemplar memory.
"""

import time

import numpy as np
import pytest

from imbcal.backbone import softmax
from imbcal.breaks import brute_force_breaks, fisher_jenks
from imbcal.calibration import (
    CalibContext,
    apply_fj,
    apply_mb,
    apply_threshold,
    fit_fj,
    fit_mb,
    fit_step_map,
    fit_threshold,
    pava,
    predict,
)
from imbcal.harness import ExperimentConfig, SyntheticSpec, run_experiment, write_outputs
from imbcal.memory import MemoryBuffer, admit_and_rebalance, herd_order
from imbcal.metrics import ece

_SUITE_START = time.monotonic()

SUITE_SEEDS = range(10)
SUITE_METHODS = ("none", "iso", "pl", "th", "nem", "bal", "mb", "fj")


def suite_config(s):
    return ExperimentConfig(
        num_states=5,
        memory=40,
        synthetic=SyntheticSpec(classes=20, dim=16, per_class=120,
                                separation=2.5, noise=1.5, test_per_class=30),
        imbalance_kind="strong",
        methods=SUITE_METHODS,
        data_seed=100 + s,
        model_seed=200 + s,
        protocol_seed=300 + s,
    )


@pytest.fixture(scope="module")
def suite():
    """Reports and summaries for all 10 seeds, plus the wall-clock time."""
    start = time.monotonic()
    runs = {s: run_experiment(suite_config(s)) for s in SUITE_SEEDS}
    return runs, time.monotonic() - start


def test_1_breaks_matches_enumeration_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(20260823)
    for i in range(500):
        n = int(rng.integers(2, 13))
        values = rng.integers(0, 101, size=n).astype(float)
        L = int(rng.integers(2, min(4, n) + 1))
        fast = fisher_jenks(values, L)
        slow = brute_force_breaks(values, L)
        assert fast.ssd == slow.ssd, (i, values, L)
        assert fast.boundaries == slow.boundaries, (i, values, L)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"\nPASS criterion 1: 500 break instances match the enumeration oracle "
          f"({elapsed:.2f}s)")


def test_2_isotonic_fit_is_least_squares_optimal():
    fitted = pava([0.1, 0.2, 0.8, 0.9])
    assert fitted.tolist() == [0.1, 0.2, 0.8, 0.9]
    pooled = pava([0.3, 0.7, 0.5])
    assert pooled.tolist() == pytest.approx([0.3, 0.6, 0.6])
    b, l = fit_step_map([0.1, 0.2, 0.8, 0.9], [False, False, True, True])
    assert b.tolist() == [0.5] and l.tolist() == [0.0, 1.0]

    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        values = rng.uniform(-3, 3, size=n)
        fit = pava(values)
        assert np.all(np.diff(fit) >= -1e-12)
        fit_err = float(((fit - values) ** 2).sum())
        lo, hi = values.min() - 1, values.max() + 1
        for _ in range(1000):
            cand = np.sort(rng.uniform(lo, hi, size=n))
            assert float(((cand - values) ** 2).sum()) >= fit_err - 1e-9
    print("\nPASS criterion 2: isotonic fits beat 1000 random monotone "
          "candidates on 200 instances")


def test_3_calibration_error_hand_values():
    conf = np.full(8, 1.0)
    p = np.stack([conf, 1 - conf], axis=1)
    zeros = np.zeros(8, dtype=int)
    assert ece(p, zeros, zeros) == pytest.approx(0.0, abs=1e-12)

    conf = np.full(10, 0.9)
    p = np.stack([conf, 1 - conf], axis=1)
    labels = np.array([0] * 6 + [1] * 4)
    assert ece(p, np.zeros(10, dtype=int), labels) == pytest.approx(0.3, abs=1e-12)

    from imbcal.metrics import ECE_BINS_DEFAULT, ece_from_table, reliability_table

    assert ECE_BINS_DEFAULT == 20
    rng = np.random.default_rng(0)
    raw = rng.random((80, 6))
    probs = raw / raw.sum(axis=1, keepdims=True)
    preds = probs.argmax(axis=1)
    ys = rng.integers(0, 6, size=80)
    table = reliability_table(probs, preds, ys)
    assert ece_from_table(table, 80) == pytest.approx(ece(probs, preds, ys), abs=1e-12)
    print("\nPASS criterion 3: calibration-error hand values and table "
          "recomposition hold to 1e-12")


def test_4_new_classes_outscore_old_ones(suite):
    runs, elapsed = suite
    pairs = biased = 0
    for s in SUITE_SEEDS:
        reports, _ = runs[s]
        for r in reports:
            if r.state_index >= 2:
                pairs += 1
                if r.mean_score_new > r.mean_score_old:
                    biased += 1
    fraction = biased / pairs
    assert fraction >= 0.80, fraction
    assert elapsed < 120.0
    print(f"\nPASS criterion 4: new-class mean score exceeds old-class in "
          f"{fraction:.0%} of {pairs} state checks ({elapsed:.1f}s suite)")


def test_5_prior_correction_recovers_accuracy(suite):
    runs, _ = suite
    gains = []
    within_one = 0
    for s in SUITE_SEEDS:
        _, summary = runs[s]
        th = summary["th"]["avg_top1"]
        gains.append(th - summary["none"]["avg_top1"])
        best = max(summary[m]["avg_top1"] for m in SUITE_METHODS if m != "none")
        if th >= best - 1.0:
            within_one += 1
    assert np.mean(gains) > 0.0, gains
    assert within_one >= 6, within_one
    print(f"\nPASS criterion 5: prior correction gains {np.mean(gains):+.2f} "
          f"top-1 on average and is within 1 point of the best method on "
          f"{within_one}/10 seeds")


def test_6_mean_rescaling_keeps_error_below_prior_correction(suite):
    runs, _ = suite
    th = np.mean([runs[s][1]["th"]["avg_ece"] for s in SUITE_SEEDS])
    mb = np.mean([runs[s][1]["mb"]["avg_ece"] for s in SUITE_SEEDS])
    fj = np.mean([runs[s][1]["fj"]["avg_ece"] for s in SUITE_SEEDS])
    assert mb <= th, (mb, th)
    assert fj <= th, (fj, th)
    print(f"\nPASS criterion 6: mean calibration error mb={mb:.3f} and "
          f"fj={fj:.3f} vs prior correction {th:.3f}")


def test_7_degenerate_fits_never_change_the_argmax():
    rng = np.random.default_rng(99)
    scores = rng.normal(size=(1000, 6))
    labels = rng.integers(0, 6, size=1000)
    base = predict(scores)

    ctx = CalibContext(
        train_scores=scores, train_labels=labels,
        val_scores=scores, val_labels=labels,
        class_counts=np.full(6, 17), old_classes=(), new_classes=tuple(range(6)),
    )
    # mb at the first state is the identity
    mb_state = fit_mb(ctx)
    assert mb_state.params["ratio"] == 1.0
    assert np.array_equal(predict(apply_mb(mb_state, scores)), base)
    # a single cluster rescales every class by the same factor
    fj_state = fit_fj(ctx)
    assert np.array_equal(predict(apply_fj(fj_state, scores)), base)
    # uniform counts scale all probabilities equally
    probs = softmax(scores)
    assert np.array_equal(predict(apply_threshold(fit_threshold(ctx), probs)), predict(probs))
    print("\nPASS criterion 7: identity-parameter calibrators preserve the "
          "argmax on 1000 random rows")


def test_8_memory_respects_capacity_prefix_and_first_pick():
    from imbcal.dataset import DatasetTable

    rng = np.random.default_rng(4)
    B = 12

    classes = range(4)
    feats = np.concatenate([rng.normal(size=(20, 3)) + 5 * c for c in classes])
    labels = np.concatenate([np.full(20, c) for c in classes])
    table = DatasetTable(feats, labels, ["train"] * (20 * len(classes)))

    buf = admit_and_rebalance(MemoryBuffer.empty(B), table, [0, 1])
    stored = {c: table.features[buf.classes[c]] for c in buf.classes}
    buf = admit_and_rebalance(buf, table, [2, 3])
    assert sum(len(s) for s in buf.classes.values()) <= B
    for c in (0, 1):
        kept = table.features[buf.classes[c]]
        assert np.array_equal(kept, stored[c][: len(kept)])

    for _ in range(100):
        feats = rng.normal(size=(int(rng.integers(2, 25)), 4))
        mu = feats.mean(axis=0)
        dists = np.linalg.norm(feats - mu, axis=1)
        first = herd_order(feats, [np.arange(len(feats))], [len(feats)])[0]
        assert dists[first] == pytest.approx(dists.min())
    print("\nPASS criterion 8: memory stays within capacity, truncation keeps "
          "prefixes, and the first exemplar is the mean-closest sample")


def test_9_outputs_are_bit_identical_across_reruns(tmp_path):
    cfg = suite_config(0)
    a, b = tmp_path / "a", tmp_path / "b"
    write_outputs(*run_experiment(cfg), a)
    write_outputs(*run_experiment(suite_config(0)), b)
    for name in ("states.csv", "summary.json", "figdata.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    print("\nPASS criterion 9: rerun outputs are byte-identical")


def test_10_acceptance_suite_finishes_in_time(suite):
    elapsed = time.monotonic() - _SUITE_START
    assert elapsed < 300.0, elapsed
    print(f"\nPASS criterion 10: acceptance suite completed in {elapsed:.1f}s")
