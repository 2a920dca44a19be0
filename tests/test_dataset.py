import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbcal import dataset
from imbcal.dataset import (
    DatasetTable,
    ImbalanceProfile,
    apply_imbalance,
    generate_synthetic,
    largest_remainder,
    load_features,
    plan_states,
    save_features,
    split_train_val,
)
from imbcal.errors import FormatError, ParameterError


class TestGenerateSynthetic:
    def test_nearest_center_classifies_train_perfectly(self):
        t = generate_synthetic(2, 2, 10, class_separation=10.0, noise_scale=0.1, seed=1)
        # without noise the train rows are the blob centers, two per class
        centers = generate_synthetic(2, 2, 2, 10.0, 0.0, seed=1).only(split="train").features[::2]
        train = t.only(split="train")
        dists = np.linalg.norm(train.features[:, None, :] - centers[None], axis=2)
        assert np.array_equal(dists.argmin(axis=1), train.labels)

    @pytest.mark.parametrize("c,count", [(3, 7), (5, 12)])
    def test_census_has_requested_counts(self, c, count):
        t = generate_synthetic(c, 4, count, 5.0, 1.0, seed=9)
        assert t.census == {i: count for i in range(c)}

    def test_same_seed_bit_identical(self):
        a = generate_synthetic(4, 3, 6, 2.0, 0.5, seed=42)
        b = generate_synthetic(4, 3, 6, 2.0, 0.5, seed=42)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.splits, b.splits)

    def test_balanced_test_split(self):
        t = generate_synthetic(3, 2, 8, 5.0, 1.0, seed=0, test_per_class=5)
        test = t.only(split="test")
        _, counts = np.unique(test.labels, return_counts=True)
        assert counts.tolist() == [5, 5, 5]

    def test_min_pairwise_center_distance_equals_separation(self):
        centers = generate_synthetic(6, 4, 2, 3.0, 0.0, seed=5).only(split="train").features[::2]
        d = np.linalg.norm(centers[:, None] - centers[None], axis=2)
        assert d[np.triu_indices(6, k=1)].min() == pytest.approx(3.0)

    @pytest.mark.parametrize("bad", [dict(num_classes=1), dict(dim=1), dict(count_per_class=1)])
    def test_invalid_sizes(self, bad):
        kwargs = dict(num_classes=3, dim=3, count_per_class=5,
                      class_separation=1.0, noise_scale=0.1, seed=0)
        kwargs.update(bad)
        with pytest.raises(ParameterError):
            generate_synthetic(**kwargs)


class TestApplyImbalance:
    def test_soft_class_at_minimum_keeps_all(self):
        t = generate_synthetic(3, 2, 50, 5.0, 1.0, seed=0)
        out = apply_imbalance(t, ImbalanceProfile("soft", seed=7))
        assert all(n == 50 for n in out.census.values())

    def test_soft_counts_in_interval(self):
        t = generate_synthetic(4, 2, 120, 5.0, 1.0, seed=0)
        out = apply_imbalance(t, ImbalanceProfile("soft", seed=3))
        assert all(50 <= n <= 120 for n in out.census.values())

    def test_strong_group_sizes_3_3_2_2(self):
        # with 200 initial records all four retention intervals are disjoint,
        # so group membership is visible from the retained counts
        t = generate_synthetic(10, 2, 200, 5.0, 1.0, seed=0)
        out = apply_imbalance(t, ImbalanceProfile("strong", seed=11))
        counts = sorted(out.census.values())
        groups = [sum(1 for n in counts if lo <= n <= hi)
                  for lo, hi in ((10, 25), (26, 75), (76, 100), (101, 200))]
        assert groups == [3, 3, 2, 2]

    def test_strong_clamps_short_classes(self):
        t = generate_synthetic(10, 2, 8, 5.0, 1.0, seed=0)
        out = apply_imbalance(t, ImbalanceProfile("strong", seed=2))
        assert all(n == 8 for n in out.census.values())

    def test_none_is_identity(self):
        t = generate_synthetic(3, 2, 10, 5.0, 1.0, seed=0)
        assert apply_imbalance(t, ImbalanceProfile("none")) is t

    def test_never_touches_test_records(self):
        t = generate_synthetic(4, 2, 120, 5.0, 1.0, seed=0, test_per_class=9)
        out = apply_imbalance(t, ImbalanceProfile("strong", seed=5))
        assert np.array_equal(out.only(split="test").features, t.only(split="test").features)

    def test_never_increases_counts(self):
        t = generate_synthetic(6, 2, 60, 5.0, 1.0, seed=0)
        out = apply_imbalance(t, ImbalanceProfile("soft", seed=1))
        assert all(out.census[c] <= t.census[c] for c in t.census)

    def test_deterministic(self):
        t = generate_synthetic(6, 2, 90, 5.0, 1.0, seed=0)
        p = ImbalanceProfile("strong", seed=4)
        assert np.array_equal(apply_imbalance(t, p).features, apply_imbalance(t, p).features)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            ImbalanceProfile("medium")


class TestLargestRemainder:
    def test_exact_thousand(self):
        assert largest_remainder(1000, (0.3, 0.3, 0.2, 0.2)) == [300, 300, 200, 200]

    def test_ten(self):
        assert largest_remainder(10, (0.3, 0.3, 0.2, 0.2)) == [3, 3, 2, 2]

    @given(st.integers(min_value=1, max_value=500))
    def test_sums_to_total(self, n):
        assert sum(largest_remainder(n, (0.3, 0.3, 0.2, 0.2))) == n


class TestPlanStates:
    def test_even_division(self):
        t = generate_synthetic(20, 2, 3, 5.0, 1.0, seed=0)
        plan = plan_states(t, 5, 1)
        assert plan.classes_per_state == (4, 4, 4, 4, 4)

    def test_remainder_to_earliest(self):
        t = generate_synthetic(10, 2, 3, 5.0, 1.0, seed=0)
        plan = plan_states(t, 3, 1)
        assert plan.classes_per_state == (4, 3, 3)

    def test_ordering_is_permutation(self):
        t = generate_synthetic(12, 2, 3, 5.0, 1.0, seed=0)
        plan = plan_states(t, 4, 99)
        assert sorted(plan.ordering) == list(range(12))

    def test_fixed_order(self):
        t = generate_synthetic(4, 2, 3, 5.0, 1.0, seed=0)
        plan = plan_states(t, 2, [3, 1, 0, 2])
        assert plan.ordering == (3, 1, 0, 2)
        assert plan.classes_per_state == (2, 2)

    def test_bad_fixed_order(self):
        t = generate_synthetic(4, 2, 3, 5.0, 1.0, seed=0)
        with pytest.raises(ParameterError):
            plan_states(t, 2, [0, 1, 2, 2])

    @pytest.mark.parametrize("k", [0, 13])
    def test_num_states_out_of_range(self, k):
        t = generate_synthetic(12, 2, 3, 5.0, 1.0, seed=0)
        with pytest.raises(ParameterError):
            plan_states(t, k, 1)


class TestSplitTrainVal:
    def test_ten_percent_of_twenty(self):
        t = generate_synthetic(2, 2, 20, 5.0, 1.0, seed=0)
        out = split_train_val(t, 0.1, seed=1)
        for c in (0, 1):
            assert len(out.only(split="val", classes=[c])) == 2
            assert out.census[c] == 18

    def test_singleton_class_gets_no_val(self):
        t = DatasetTable(np.zeros((2, 2)), [0, 1], ["train", "train"])
        with pytest.warns(UserWarning):
            out = split_train_val(t, 0.1, seed=1)
        assert len(out.only(split="val")) == 0

    def test_partition_property(self):
        t = generate_synthetic(3, 2, 17, 5.0, 1.0, seed=0)
        out = split_train_val(t, 0.25, seed=2)
        for c in range(3):
            n_val = len(out.only(split="val", classes=[c]))
            assert n_val == int(np.ceil(0.25 * 17))
            assert out.census[c] + n_val == 17
        assert np.array_equal(out.features, t.features)

    def test_bad_fraction(self):
        t = generate_synthetic(2, 2, 5, 5.0, 1.0, seed=0)
        with pytest.raises(ParameterError):
            split_train_val(t, 1.5, seed=0)


class TestFeatureFiles:
    def test_roundtrip(self, tmp_path):
        t = generate_synthetic(3, 4, 5, 5.0, 1.0, seed=8)
        f, m = tmp_path / "x.csv", tmp_path / "x.json"
        save_features(t, f, m)
        back = load_features(f, m)
        assert np.array_equal(back.features, t.features)
        assert np.array_equal(back.labels, t.labels)
        assert np.array_equal(back.splits, t.splits)

    def test_census_from_rows(self, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text("label,split,f0,f1\n0,train,1.0,2.0\n0,train,3.0,4.0\n1,train,5.0,6.0\n")
        m = tmp_path / "x.json"
        m.write_text('{"dim": 2, "classes": 2, "name": "tiny"}')
        t = load_features(f, m)
        assert t.census == {0: 2, 1: 1}
        assert t.dim == 2

    def test_empty_file(self, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text("")
        m = tmp_path / "x.json"
        m.write_text('{"dim": 2, "classes": 2, "name": "t"}')
        with pytest.raises(FormatError, match="empty"):
            load_features(f, m)

    def test_ragged_row_names_line(self, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text("label,split,f0,f1\n0,train,1.0,2.0\n1,train,3.0\n")
        m = tmp_path / "x.json"
        m.write_text('{"dim": 2, "classes": 2, "name": "t"}')
        with pytest.raises(FormatError, match="line 3"):
            load_features(f, m)

    def test_unknown_split_tag(self, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text("label,split,f0,f1\n0,dev,1.0,2.0\n")
        m = tmp_path / "x.json"
        m.write_text('{"dim": 2, "classes": 1, "name": "t"}')
        with pytest.raises(FormatError, match="split"):
            load_features(f, m)

    def test_non_numeric_cell(self, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text("label,split,f0,f1\n0,train,1.0,oops\n")
        m = tmp_path / "x.json"
        m.write_text('{"dim": 2, "classes": 1, "name": "t"}')
        with pytest.raises(FormatError, match="line 2"):
            load_features(f, m)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_cell_names_line(self, tmp_path, cell):
        f = tmp_path / "x.csv"
        f.write_text(f"label,split,f0,f1\n0,train,1.0,2.0\n1,train,3.0,{cell}\n")
        m = tmp_path / "x.json"
        m.write_text('{"dim": 2, "classes": 2, "name": "t"}')
        with pytest.raises(FormatError, match=r"x\.csv: line 3: non-finite"):
            load_features(f, m)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_imbalance_then_split_preserve_all_invariants(seed):
    t = generate_synthetic(8, 3, 70, 4.0, 1.0, seed=seed, test_per_class=4)
    out = apply_imbalance(t, ImbalanceProfile("strong", seed=seed))
    out = split_train_val(out, 0.1, seed=seed)
    for c in range(8):
        n_train = out.census[c]
        n_val = len(out.only(split="val", classes=[c]))
        assert n_train >= 1 and n_val >= 1
    assert len(out.only(split="test")) == 32
