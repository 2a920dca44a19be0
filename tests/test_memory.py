import numpy as np
import pytest

from imbcal.dataset import TEST, DatasetTable, generate_synthetic
from imbcal.errors import ParameterError
from imbcal.memory import (
    MemoryBuffer,
    admit_and_rebalance,
    class_quotas,
    herd_order,
    memory_dataset,
)


def table_for(class_sizes, dim=3, seed=0):
    """Train-split table with the given per-class record counts."""
    rng = np.random.default_rng(seed)
    feats, labels = [], []
    for c, n in class_sizes.items():
        feats.append(rng.normal(size=(n, dim)) + 10 * c)
        labels.append(np.full(n, c))
    n_total = sum(class_sizes.values())
    return DatasetTable(np.concatenate(feats), np.concatenate(labels), ["train"] * n_total)


def herdable(table, ids):
    """The train and val row ids of the classes ``ids``, in table order: the
    rows a state hands to admission."""
    return np.flatnonzero(np.isin(table.labels, ids) & (table.splits != TEST))


class TestHerdOrder:
    def test_single_sample(self):
        assert herd_order(np.array([[1.0, 2.0]]), [[0]], [1]).tolist() == [0]

    def test_hand_worked_example(self):
        # mean is (1,1); step-1 distances are sqrt(2), 1, 1, sqrt(8) so the
        # tie between indices 1 and 2 breaks low; remaining picks follow
        # the running-mean objective
        feats = np.array([[0, 0], [1, 0], [0, 1], [3, 3]], dtype=float)
        assert herd_order(feats, [np.arange(4)], [4]).tolist() == [1, 2, 3, 0]

    def test_prefix_property(self):
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(12, 4))
        full = herd_order(feats, [np.arange(12)], [12])
        assert full[:5].tolist() == herd_order(feats, [np.arange(12)], [5])[:5].tolist()

    def test_first_pick_minimizes_distance_to_mean(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            feats = rng.normal(size=(rng.integers(2, 20), 3))
            mu = feats.mean(axis=0)
            dists = np.linalg.norm(feats - mu, axis=1)
            first = herd_order(feats, [np.arange(len(feats))], [len(feats)])[0]
            assert dists[first] == pytest.approx(dists.min())

    def test_deterministic_pure(self):
        feats = np.random.default_rng(1).normal(size=(9, 2))
        once = herd_order(feats, [np.arange(9)], [9]).tolist()
        assert once == herd_order(feats, [np.arange(9)], [9]).tolist()

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            herd_order(np.empty((0, 2)), [np.arange(0)], [0])

    def test_negative_count_rejected(self):
        with pytest.raises(ParameterError):
            herd_order(np.ones((3, 2)), [np.arange(3)], [-1])

    def test_one_count_per_class(self):
        with pytest.raises(ParameterError, match="one count per class"):
            herd_order(np.ones((3, 2)), [[0, 1], [2]], [1])

    def test_no_classes_no_picks(self):
        out = herd_order(np.ones((3, 2)), [], [])
        assert out.dtype == np.int64 and out.tolist() == []

    def test_classes_follow_each_other_as_row_ids(self):
        # two classes in interleaved rows: each class's picks are its own row
        # ids, in its herded order, and the first class's come first
        feats = np.array([[0, 0], [9, 9], [1, 0], [9, 8], [0, 1], [3, 3]], dtype=float)
        out = herd_order(feats, [[0, 2, 4, 5], [1, 3]], [4, 1])
        assert out.tolist() == [2, 4, 5, 0, 1]


class TestQuotas:
    def test_floor_plus_remainder(self):
        assert class_quotas(10, [0, 1, 2]) == {0: 4, 1: 3, 2: 3}

    def test_degenerate_capacity_below_class_count(self):
        assert class_quotas(2, [0, 1, 2]) == {0: 1, 1: 1, 2: 0}


class TestAdmitAndRebalance:
    def test_quotas_and_capacity(self):
        table = table_for({0: 8, 1: 8, 2: 8})
        buf = admit_and_rebalance(MemoryBuffer.empty(10), table, herdable(table, [0, 1, 2]))
        assert {c: len(s) for c, s in buf.classes.items()} == {0: 4, 1: 3, 2: 3}
        assert sum(len(s) for s in buf.classes.values()) <= 10

    def test_short_class_stores_what_it_has(self):
        table = table_for({0: 2, 1: 9, 2: 9})
        buf = admit_and_rebalance(MemoryBuffer.empty(12), table, herdable(table, [0, 1, 2]))
        assert len(buf.classes[0]) == 2

    def test_old_classes_truncated_to_prefix(self):
        table = table_for({0: 10, 1: 10, 2: 10, 3: 10})
        buf1 = admit_and_rebalance(MemoryBuffer.empty(8), table, herdable(table, [0, 1]))
        buf2 = admit_and_rebalance(buf1, table, herdable(table, [2, 3]))
        for c in (0, 1):
            kept = buf2.classes[c]
            assert np.array_equal(kept, buf1.classes[c][: len(kept)])
        assert sum(len(s) for s in buf2.classes.values()) <= 8

    def test_readmission_idempotent_quota(self):
        table = table_for({0: 10, 1: 10, 2: 10})
        buf1 = admit_and_rebalance(MemoryBuffer.empty(9), table, herdable(table, [0, 1, 2]))
        # truncating again with the same class set is a fixed point
        sizes = {c: len(s) for c, s in buf1.classes.items()}
        quotas = class_quotas(9, [0, 1, 2])
        assert sizes == quotas

    def test_overlapping_classes_rejected(self):
        table = table_for({0: 4})
        buf = admit_and_rebalance(MemoryBuffer.empty(6), table, herdable(table, [0]))
        with pytest.raises(ParameterError):
            admit_and_rebalance(buf, table, herdable(table, [0]))

    def test_a_capacity_past_every_row_stores_each_class_whole(self):
        table = table_for({0: 5, 1: 9, 2: 7})
        rows = herdable(table, [0, 1, 2])
        huge = admit_and_rebalance(MemoryBuffer.empty(10**30), table, rows)
        whole = admit_and_rebalance(MemoryBuffer.empty(10**9), table, rows)
        assert huge.classes.keys() == whole.classes.keys()
        for c, stored in huge.classes.items():
            assert np.array_equal(stored, whole.classes[c])
            assert len(stored) == np.count_nonzero(table.labels == c)

    def test_capacity_smaller_than_classes(self):
        table = table_for({0: 3, 1: 3, 2: 3})
        buf = admit_and_rebalance(MemoryBuffer.empty(2), table, herdable(table, [0, 1, 2]))
        assert {c: len(s) for c, s in buf.classes.items()} == {0: 1, 1: 1, 2: 0}

    def test_herds_only_the_rows_it_is_handed(self):
        # every third row of a shuffled table, test rows too: admission reads
        # no split and herds each class over its rows in the order given
        t = generate_synthetic(3, 3, 8, 5.0, 1.0, seed=1, test_per_class=4)
        t = t.subset(np.random.default_rng(1).permutation(len(t)))
        rows = np.arange(0, len(t), 3)
        buf = admit_and_rebalance(MemoryBuffer.empty(30), t, rows)
        assert sorted(buf.classes) == [0, 1, 2]
        for c, stored in buf.classes.items():
            own = rows[t.labels[rows] == c]
            assert np.array_equal(stored, herd_order(t.features, [own], [len(own)]))
        assert TEST in t.splits[memory_dataset(buf)]

    def test_rows_are_herd_picks_of_the_class(self):
        t = generate_synthetic(3, 4, 9, 5.0, 1.0, seed=2, test_per_class=5)
        buf = admit_and_rebalance(MemoryBuffer.empty(12), t, herdable(t, [0, 1, 2]))
        for c, rows in buf.classes.items():
            assert np.all(t.labels[rows] == c) and np.all(t.splits[rows] != "test")
            own = t.features[(t.splits != "test") & (t.labels == c)]
            picks = herd_order(own, [np.arange(len(own))], [len(rows)])
            assert np.array_equal(t.features[rows], own[picks])


class TestMemoryDataset:
    def test_empty_buffer(self):
        out = memory_dataset(MemoryBuffer.empty(5))
        assert len(out) == 0 and out.dtype == np.int64

    def test_class_by_class_in_herded_order(self):
        buf = MemoryBuffer(6, {2: np.array([5, 4]), 0: np.array([1, 3, 0])})
        assert memory_dataset(buf).tolist() == [1, 3, 0, 5, 4]

    def test_census_matches_stored_counts(self):
        table = table_for({0: 8, 1: 8, 2: 8})
        buf = admit_and_rebalance(MemoryBuffer.empty(10), table, herdable(table, [0, 1, 2]))
        assert table.subset(memory_dataset(buf)).census == {0: 4, 1: 3, 2: 3}

    def test_val_flags_preserved(self):
        feats = np.arange(12, dtype=float).reshape(6, 2)
        t = DatasetTable(feats, [0] * 6, ["train", "val", "train", "val", "train", "train"])
        buf = admit_and_rebalance(MemoryBuffer.empty(6), t, herdable(t, [0]))
        out = t.splits[memory_dataset(buf)]
        assert sorted(out.tolist()) == ["train"] * 4 + ["val"] * 2
