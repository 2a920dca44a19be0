import json
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbcal import dataset, rng
from imbcal.dataset import (
    DatasetTable,
    apply_imbalance,
    generate_synthetic,
    largest_remainder,
    load_features,
    plan_states,
    save_features,
    split_train_val,
)
from imbcal.errors import FormatError, ParameterError


@pytest.fixture
def no_draw(monkeypatch):
    """Make drawing the class centres, the first draw of a synthetic table, fail."""
    def fail(*args):
        raise AssertionError("data drawn")

    monkeypatch.setattr(dataset, "_centers", fail)


class TestGenerateSynthetic:
    def test_nearest_center_classifies_train_perfectly(self):
        t = generate_synthetic(2, 2, 10, class_separation=10.0, noise_scale=0.1, seed=1)
        # without noise the train rows are the blob centers, two per class
        blobs = generate_synthetic(2, 2, 2, 10.0, 0.0, seed=1)
        centers = blobs.features[blobs.splits == "train"][::2]
        train = t.subset(t.splits == "train")
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
        test = t.subset(t.splits == "test")
        _, counts = np.unique(test.labels, return_counts=True)
        assert counts.tolist() == [5, 5, 5]

    def test_min_pairwise_center_distance_equals_separation(self):
        blobs = generate_synthetic(6, 4, 2, 3.0, 0.0, seed=5)
        centers = blobs.features[blobs.splits == "train"][::2]
        d = np.linalg.norm(centers[:, None] - centers[None], axis=2)
        assert d[np.triu_indices(6, k=1)].min() == pytest.approx(3.0)

    @pytest.mark.parametrize("bad", [dict(num_classes=1), dict(dim=1), dict(count_per_class=1)])
    def test_invalid_sizes(self, bad):
        kwargs = dict(num_classes=3, dim=3, count_per_class=5,
                      class_separation=1.0, noise_scale=0.1, seed=0)
        kwargs.update(bad)
        with pytest.raises(ParameterError):
            generate_synthetic(**kwargs)

    @pytest.mark.parametrize("classes, dim, per_class, test_per_class", [
        (10**25, 3, 15, None),
        (2**40, 2**20, 2**10, None),
        # 2**60 float64 values are 2**63 bytes, one past np.intp's max
        (2**20, 2**20, 2**20 - 1, 1),
    ])
    def test_a_table_past_numpys_largest_array_is_refused_before_any_draw(
        self, no_draw, classes, dim, per_class, test_per_class
    ):
        with pytest.raises(ParameterError, match="exceed numpy's largest array"):
            generate_synthetic(classes, dim, per_class, 1.0, 1.0, seed=0,
                               test_per_class=test_per_class)

    def test_a_table_just_under_numpys_largest_array_is_not_refused(self, no_draw):
        with pytest.raises(AssertionError, match="data drawn"):
            generate_synthetic(2**20, 2**20 - 1, 2**20 - 1, 1.0, 1.0, seed=0, test_per_class=1)


class TestDatasetTable:
    @pytest.mark.parametrize("splits, listed", [
        (["train", "bogus", "test"], "['bogus']"),
        (["zz", "val", "bogus", "zz"], "['bogus', 'zz']"),
    ])
    def test_unknown_split_flags_are_listed_as_strings(self, splits, listed):
        with pytest.raises(ParameterError) as refused:
            DatasetTable(np.zeros((len(splits), 2)), range(len(splits)), splits)
        assert str(refused.value) == f"unknown split flags: {listed}"


def imbalanced(t, kind, seed):
    """``t`` with only the rows apply_imbalance keeps."""
    return t.subset(apply_imbalance(t.labels, t.splits, kind, seed))


def split(t, fraction, seed):
    """``t`` with the split flags split_train_val returns."""
    return DatasetTable(t.features, t.labels, split_train_val(t.labels, t.splits, fraction, seed))


class TestApplyImbalance:
    def test_soft_class_at_minimum_keeps_all(self):
        t = generate_synthetic(3, 2, 50, 5.0, 1.0, seed=0)
        out = imbalanced(t, "soft", 7)
        assert all(n == 50 for n in out.census.values())

    def test_soft_counts_in_interval(self):
        t = generate_synthetic(4, 2, 120, 5.0, 1.0, seed=0)
        out = imbalanced(t, "soft", 3)
        assert all(50 <= n <= 120 for n in out.census.values())

    def test_strong_group_sizes_3_3_2_2(self):
        # with 200 initial records all four retention intervals are disjoint,
        # so group membership is visible from the retained counts
        t = generate_synthetic(10, 2, 200, 5.0, 1.0, seed=0)
        out = imbalanced(t, "strong", 11)
        counts = sorted(out.census.values())
        groups = [sum(1 for n in counts if lo <= n <= hi)
                  for lo, hi in ((10, 25), (26, 75), (76, 100), (101, 200))]
        assert groups == [3, 3, 2, 2]

    def test_strong_clamps_short_classes(self):
        t = generate_synthetic(10, 2, 8, 5.0, 1.0, seed=0)
        out = imbalanced(t, "strong", 2)
        assert all(n == 8 for n in out.census.values())

    def test_none_keeps_every_row(self):
        t = generate_synthetic(3, 2, 10, 5.0, 1.0, seed=0)
        keep = apply_imbalance(t.labels, t.splits, "none", 0)
        assert keep.dtype == bool and keep.shape == (len(t),) and keep.all()

    def test_never_touches_test_records(self):
        t = generate_synthetic(4, 2, 120, 5.0, 1.0, seed=0, test_per_class=9)
        out = imbalanced(t, "strong", 5)
        assert np.array_equal(out.features[out.splits == "test"], t.features[t.splits == "test"])

    def test_never_increases_counts(self):
        t = generate_synthetic(6, 2, 60, 5.0, 1.0, seed=0)
        out = imbalanced(t, "soft", 1)
        assert all(out.census[c] <= t.census[c] for c in t.census)

    def test_deterministic(self):
        t = generate_synthetic(6, 2, 90, 5.0, 1.0, seed=0)
        assert np.array_equal(imbalanced(t, "strong", 4).features,
                              imbalanced(t, "strong", 4).features)

    def test_unknown_kind_rejected(self):
        t = generate_synthetic(3, 2, 10, 5.0, 1.0, seed=0)
        with pytest.raises(ParameterError):
            apply_imbalance(t.labels, t.splits, "medium", 0)


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
        plan = plan_states(t.classes(), 5, 1)
        assert plan.classes_per_state == (4, 4, 4, 4, 4)

    def test_remainder_to_earliest(self):
        t = generate_synthetic(10, 2, 3, 5.0, 1.0, seed=0)
        plan = plan_states(t.classes(), 3, 1)
        assert plan.classes_per_state == (4, 3, 3)

    def test_ordering_is_permutation(self):
        t = generate_synthetic(12, 2, 3, 5.0, 1.0, seed=0)
        plan = plan_states(t.classes(), 4, 99)
        assert sorted(plan.ordering) == list(range(12))

    def test_fixed_order(self):
        t = generate_synthetic(4, 2, 3, 5.0, 1.0, seed=0)
        plan = plan_states(t.classes(), 2, [3, 1, 0, 2])
        assert plan.ordering == (3, 1, 0, 2)
        assert plan.classes_per_state == (2, 2)

    def test_bad_fixed_order(self):
        t = generate_synthetic(4, 2, 3, 5.0, 1.0, seed=0)
        with pytest.raises(ParameterError):
            plan_states(t.classes(), 2, [0, 1, 2, 2])

    @pytest.mark.parametrize("k", [0, 13])
    def test_num_states_out_of_range(self, k):
        t = generate_synthetic(12, 2, 3, 5.0, 1.0, seed=0)
        with pytest.raises(ParameterError):
            plan_states(t.classes(), k, 1)


class TestSplitTrainVal:
    def test_ten_percent_of_twenty(self):
        t = generate_synthetic(2, 2, 20, 5.0, 1.0, seed=0)
        out = split(t, 0.1, seed=1)
        for c in (0, 1):
            assert np.count_nonzero((out.splits == "val") & (out.labels == c)) == 2
            assert out.census[c] == 18

    def test_singleton_class_gets_no_val(self):
        t = DatasetTable(np.zeros((2, 2)), [0, 1], ["train", "train"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = split(t, 0.1, seed=1)
        assert np.count_nonzero(out.splits == "val") == 0
        assert out.census == {0: 1, 1: 1}

    def test_partition_property(self):
        t = generate_synthetic(3, 2, 17, 5.0, 1.0, seed=0)
        out = split(t, 0.25, seed=2)
        for c in range(3):
            n_val = np.count_nonzero((out.splits == "val") & (out.labels == c))
            assert n_val == int(np.ceil(0.25 * 17))
            assert out.census[c] + n_val == 17
        assert np.array_equal(out.features, t.features)

    def test_bad_fraction(self):
        t = generate_synthetic(2, 2, 5, 5.0, 1.0, seed=0)
        with pytest.raises(ParameterError):
            split_train_val(t.labels, t.splits, 1.5, seed=0)


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

    @pytest.mark.parametrize("header, message", [
        ("label,split,f0,g1,f2", "field 4 is 'g1', expected 'f1'"),
        ("split,label,f0,f1,f2", "field 1 is 'split', expected 'label'"),
        ("label,split,f0,f1", "expected 5 fields, got 4"),
    ])
    def test_bad_header_names_the_count_or_first_differing_field(
        self, tmp_path, header, message
    ):
        f = tmp_path / "x.csv"
        f.write_text(f"{header}\n0,train,1.0,2.0,3.0\n")
        m = tmp_path / "x.json"
        m.write_text('{"dim": 3, "classes": 1, "name": "t"}')
        with pytest.raises(FormatError, match=rf"x\.csv: line 1: bad header, {message}"):
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

    @pytest.mark.parametrize("digits", [400, 5000])
    def test_over_long_label_is_out_of_range_unprinted(self, tmp_path, digits):
        # past int()'s 4300-digit limit too, and even after a non-finite value
        f = tmp_path / "x.csv"
        f.write_text("label,split,f0,f1\n0,train,1.0,2.0\n1,train,nan,2.0\n"
                     f"{'9' * digits},train,1.0,2.0\n")
        m = tmp_path / "x.json"
        m.write_text('{"dim": 2, "classes": 2, "name": "t"}')
        with pytest.raises(FormatError) as err:
            load_features(f, m)
        assert str(err.value) == f"{f}: line 4: label out of [0, 2), too many digits"

    @pytest.mark.parametrize("field, row", [
        ("non-integer label", "{},train,1.0,2.0"), ("unknown split tag", "0,{},1.0,2.0"),
    ])
    def test_a_refused_field_is_echoed_in_20_characters(self, tmp_path, field, row):
        f = tmp_path / "x.csv"
        f.write_text("label,split,f0,f1\n" + row.format("x" * 10000) + "\n")
        m = tmp_path / "x.json"
        m.write_text('{"dim": 2, "classes": 1, "name": "t"}')
        with pytest.raises(FormatError) as err:
            load_features(f, m)
        assert str(err.value) == f"{f}: line 2: {field} '{'x' * 20}'…"

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_cell_names_line(self, tmp_path, cell):
        f = tmp_path / "x.csv"
        f.write_text(f"label,split,f0,f1\n0,train,1.0,2.0\n1,train,3.0,{cell}\n")
        m = tmp_path / "x.json"
        m.write_text('{"dim": 2, "classes": 2, "name": "t"}')
        with pytest.raises(FormatError, match=r"x\.csv: line 3: non-finite"):
            load_features(f, m)


class TestClassId:
    @pytest.mark.parametrize("text", ["", " ", "+", "1.0", "1e3", "0x1", "1_0", "\u0661", "1 2"])
    def test_anything_but_sign_and_ascii_digits_is_refused(self, text):
        with pytest.raises(ValueError):
            dataset._class_id(text)

    @pytest.mark.parametrize("text", ["9" * 21, "-" + "9" * 21, "1" + "0" * 5000])
    def test_more_than_20_significant_digits_is_none(self, text):
        assert dataset._class_id(text) is None

    def test_leading_zeros_do_not_count(self):
        assert dataset._class_id(" -" + "0" * 5000 + "7 ") == -7

    def test_a_label_of_21_digits_exits_3_whatever_the_class_count(self, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text(f"label,split,f0\n{10**20},train,1.0\n")
        m = tmp_path / "x.json"
        m.write_text(f'{{"dim": 1, "classes": {10**25}, "name": "t"}}')
        with pytest.raises(FormatError) as err:
            load_features(f, m)
        assert str(err.value) == f"{f}: line 2: label out of [0, {10**25}), too many digits"


def _arrays(table):
    return table.features.tobytes(), table.labels.tobytes(), table.splits.tobytes()


class TestSidecar:
    """``<csv>.cache.npz`` holds a parse keyed by the CSV's SHA-256."""

    @pytest.fixture
    def paths(self, tmp_path):
        f, m = tmp_path / "x.csv", tmp_path / "x.json"
        save_features(generate_synthetic(3, 4, 6, 5.0, 1.0, seed=8, test_per_class=2), f, m)
        return f, m

    @staticmethod
    def sidecar(f):
        return f.parent / (f.name + ".cache.npz")

    @staticmethod
    def count_parses(monkeypatch):
        calls = []
        read_rows = dataset.read_rows

        def counted(*args, **kwargs):
            calls.append(1)
            return read_rows(*args, **kwargs)

        monkeypatch.setattr(dataset, "read_rows", counted)
        return calls

    def test_hit_equals_parse_bitwise(self, paths, monkeypatch):
        parsed = load_features(*paths)
        assert self.sidecar(paths[0]).is_file()
        parses = self.count_parses(monkeypatch)
        hit = load_features(*paths)
        assert parses == []
        assert _arrays(hit) == _arrays(parsed)
        assert hit.splits.dtype == parsed.splits.dtype

    def test_one_changed_byte_forces_a_parse(self, paths, monkeypatch):
        f, m = paths
        load_features(f, m)
        data = bytearray(f.read_bytes())
        i = data.index(b"\r\n", data.index(b"\n") + 1) - 1  # last digit of line 2
        data[i] = ord("1") if data[i] != ord("1") else ord("2")
        f.write_bytes(bytes(data))
        changed = dataset._parse_features(f, 4, 3)
        parses = self.count_parses(monkeypatch)
        assert _arrays(load_features(f, m)) == _arrays(changed)
        assert parses == [1]
        # the rewritten sidecar holds the changed CSV
        assert _arrays(load_features(f, m)) == _arrays(changed)
        assert parses == [1]

    def test_truncated_sidecar_is_parsed_again_and_rewritten(self, paths, monkeypatch):
        parsed = load_features(*paths)
        side = self.sidecar(paths[0])
        whole = side.read_bytes()
        side.write_bytes(whole[: len(whole) // 2])
        parses = self.count_parses(monkeypatch)
        assert _arrays(load_features(*paths)) == _arrays(parsed)
        assert parses == [1]
        assert side.read_bytes() == whole
        assert _arrays(load_features(*paths)) == _arrays(parsed)
        assert parses == [1]

    @pytest.mark.parametrize("fault", [
        "format", "label out of range", "negative label", "split code", "nan", "float32",
        "short row", "no rows", "no train record", "pickled",
    ])
    def test_a_keyed_sidecar_failing_a_check_is_parsed_again(self, paths, monkeypatch, fault):
        parsed = load_features(*paths)
        side = self.sidecar(paths[0])
        with np.load(side) as npz:
            arrays = dict(npz)
        labels, feats = arrays["labels"].copy(), arrays["features"].copy()
        if fault == "format":
            arrays["format"] = np.int64(dataset.SIDECAR_FORMAT + 1)
        elif fault in ("label out of range", "negative label"):
            labels[0] = 3 if fault == "label out of range" else -1
            arrays["labels"] = labels
        elif fault == "split code":
            arrays["splits"] = np.full_like(arrays["splits"], len(dataset.SPLITS))
        elif fault == "nan":
            feats[0, 0] = np.nan
            arrays["features"] = feats
        elif fault == "float32":
            arrays["features"] = feats.astype(np.float32)
        elif fault == "short row":
            arrays["features"] = feats[:, :-1]
        elif fault == "no rows":
            arrays.update(features=feats[:0], labels=labels[:0], splits=arrays["splits"][:0])
        elif fault == "no train record":
            arrays["splits"] = np.where(labels == 2, 2, arrays["splits"]).astype(np.uint8)
        else:
            arrays["labels"] = labels.astype(object)
        np.savez(side, **arrays, allow_pickle=True)
        parses = self.count_parses(monkeypatch)
        assert _arrays(load_features(*paths)) == _arrays(parsed)
        assert parses == [1]

    def test_keyed_sidecar_with_a_label_out_of_range_gives_the_parse_error(self, paths):
        f, m = paths
        lines = f.read_text().splitlines()
        lines[-1] = "2" + lines[-1][1:]
        f.write_text("\n".join(lines) + "\n")
        m.write_text('{"dim": 4, "classes": 4, "name": "t"}')
        load_features(f, m)
        assert self.sidecar(f).is_file()
        m.write_text('{"dim": 4, "classes": 2, "name": "t"}')
        with pytest.raises(FormatError) as refused:
            load_features(f, m)
        self.sidecar(f).unlink()
        with pytest.raises(FormatError) as parsed:
            load_features(f, m)
        assert str(refused.value) == str(parsed.value)
        assert "label 2 out of [0, 2)" in str(parsed.value)

    def test_a_refused_csv_leaves_no_sidecar(self, paths, tmp_path):
        load_features(*paths)
        assert self.sidecar(paths[0]).is_file()
        bad = tmp_path / "bad.csv"
        bad.write_text(paths[0].read_text().replace("train", "dev", 1))
        with pytest.raises(FormatError, match="unknown split tag"):
            load_features(bad, paths[1])
        assert not self.sidecar(bad).exists()

    @pytest.mark.parametrize("target", ["tempfile.mkstemp", "numpy.savez", "os.replace"])
    def test_a_failed_write_returns_the_table_and_leaves_no_file(
        self, paths, tmp_path, monkeypatch, target
    ):
        expected = _arrays(dataset._parse_features(paths[0], 4, 3))
        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            raise OSError("no space left on device")

        monkeypatch.setattr(target, failing)
        assert _arrays(load_features(*paths)) == expected
        assert calls == [1]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv", "x.json"]

    def test_a_csv_rewritten_during_the_parse_gets_no_sidecar(self, paths, monkeypatch):
        f, m = paths
        parse = dataset._parse_features

        def rewriting(*args):
            table = parse(*args)
            f.write_text(f.read_text() + "0,test,1,2,3,4\n")
            return table

        monkeypatch.setattr(dataset, "_parse_features", rewriting)
        load_features(f, m)
        assert not self.sidecar(f).exists()
        monkeypatch.undo()
        load_features(f, m)
        assert self.sidecar(f).is_file()

    def test_importing_imbcal_loads_no_hashlib(self):
        # hashlib loads OpenSSL, a few MB of peak RSS that synthetic runs skip
        code = "import sys, imbcal.cli; print('hashlib' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True, timeout=60)
        assert out.stdout.strip() == "False"

    def test_a_fifo_is_parsed_and_gets_no_sidecar(self, paths, tmp_path):
        f, m = paths
        text = f.read_text()
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)

        def write():
            with open(fifo, "w") as fh:
                fh.write(text)

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        result = []
        reader = threading.Thread(
            target=lambda: result.append(load_features(fifo, m)), daemon=True
        )
        reader.start()
        reader.join(30)
        assert result, "load_features did not return: the pipe was read twice"
        writer.join(30)
        assert _arrays(result[0]) == _arrays(load_features(f, m))
        assert not self.sidecar(fifo).exists()
        assert self.sidecar(f).is_file()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_imbalance_then_split_preserve_all_invariants(seed):
    t = generate_synthetic(8, 3, 70, 4.0, 1.0, seed=seed, test_per_class=4)
    out = imbalanced(t, "strong", seed)
    out = split(out, 0.1, seed=seed)
    for c in range(8):
        n_train = out.census[c]
        n_val = np.count_nonzero((out.splits == "val") & (out.labels == c))
        assert n_train >= 1 and n_val >= 1
    assert np.count_nonzero(out.splits == "test") == 32


RUN_AND_REPORT_NUMPY_MA = """
import sys
from imbcal import cli
if "numpy.ma" in sys.modules:
    print("imported with numpy")
    sys.exit()
config, out, runs = sys.argv[1:]
for k in range(int(runs)):
    status = cli.main(["run", "--config", config, "--out", f"{out}{k}"])
    if status:
        sys.exit(status)
print("numpy.ma" in sys.modules)
"""


def _run_in_a_fresh_process(tmp_path, config, runs=1):
    """Whether ``imbcal run`` on ``config``, ``runs`` times in one fresh
    process, leaves numpy.ma out of sys.modules."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", RUN_AND_REPORT_NUMPY_MA, str(path), str(tmp_path / "out"),
         str(runs)],
        capture_output=True, text=True, env=env, check=True, timeout=120, cwd=tmp_path,
    )
    result = out.stdout.strip().splitlines()[-1]
    if result == "imported with numpy":
        pytest.skip("numpy 1.x imports numpy.ma with numpy itself")
    return result


# importing numpy.ma costs about 15 ms and its memory; plain np.unique,
# np.setdiff1d and np.isin over strings import it under numpy 2
RUN = {"num_states": 2, "memory": 8, "imbalance": "strong", "train": {"epochs": 2},
       "methods": ["none", "iso", "pl", "th", "nem", "bal", "mb", "fj"]}


def test_a_synthetic_run_imports_no_numpy_ma(tmp_path):
    config = dict(RUN, data={"synthetic": {"classes": 6, "dim": 3, "per_class": 12,
                                           "test_per_class": 3}})
    assert _run_in_a_fresh_process(tmp_path, config) == "False"


def test_a_feature_run_imports_no_numpy_ma_parsed_or_cached(tmp_path):
    f, m = tmp_path / "x.csv", tmp_path / "x.json"
    save_features(generate_synthetic(6, 3, 12, 5.0, 1.0, seed=4, test_per_class=3), f, m)
    config = dict(RUN, data={"features": {"features_path": str(f), "manifest_path": str(m)}})
    # the first run parses the CSV and writes the sidecar, the second reads it
    assert _run_in_a_fresh_process(tmp_path, config, runs=2) == "False"
    assert (tmp_path / "x.csv.cache.npz").is_file()


def test_centers_allocate_no_class_by_class_tensor():
    # the (C, C, d) difference tensor of 500 classes in 256-d took 979 MB
    tracemalloc.start()
    try:
        dataset._centers(rng.op_rng(0, rng.SYNTHETIC), 500, 256, 2.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


LARGE_BUILD = """
import json, resource
from imbcal import harness
cfg = harness.ExperimentConfig(
    num_states=20, memory=5000, imbalance_kind="strong",
    synthetic=harness.SyntheticSpec(classes=500, dim=256, per_class=300,
                                    separation=2.5, noise=1.5, test_per_class=30),
)
table, _ = harness._build_table(cfg)
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"rows": len(table), "peak_mb": peak_mb}))
"""


def test_large_table_builds_within_600_mb():
    # the "large" workload's table alone, with no training: 500 classes in
    # 256-d, 300 train and 30 test rows per class, strong imbalance. Its raw
    # features are 338 MB; a fresh process measures the build's own peak.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", LARGE_BUILD], capture_output=True, text=True,
                         env=env, check=True, timeout=300)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["rows"] > 0
    assert result["peak_mb"] <= 600, result
