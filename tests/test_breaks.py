import numpy as np
import pytest

from imbcal.breaks import brute_force_breaks, fisher_jenks
from imbcal.errors import ParameterError


class TestFisherJenks:
    def test_two_obvious_clusters(self):
        r = fisher_jenks([1, 2, 10, 11], 2)
        assert r.boundaries == (2,)
        assert r.ssd == pytest.approx(1.0)
        assert r.assignments.tolist() == [0, 0, 1, 1]

    def test_singleton_clusters(self):
        r = fisher_jenks([5, 1, 9], 3)
        assert r.ssd == 0.0

    def test_tie_breaks_to_smallest_boundary(self):
        r = fisher_jenks([4, 4, 4, 4], 2)
        assert r.boundaries == (1,)
        assert r.ssd == 0.0

    def test_single_cluster(self):
        values = [3.0, 7.0, 5.0]
        r = fisher_jenks(values, 1)
        assert r.boundaries == ()
        assert r.ssd == pytest.approx(np.var(values) * len(values))

    def test_assignments_follow_original_order(self):
        r = fisher_jenks([10, 1, 11, 2], 2)
        assert r.assignments.tolist() == [1, 0, 1, 0]

    @pytest.mark.parametrize("L", [0, 5])
    def test_l_out_of_range(self, L):
        with pytest.raises(ParameterError):
            fisher_jenks([1, 2, 3, 4], L)

    def test_ssd_non_increasing_in_l(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 100, size=10).astype(float)
        ssds = [fisher_jenks(values, L).ssd for L in range(1, 11)]
        assert all(a >= b - 1e-12 for a, b in zip(ssds, ssds[1:]))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        values = rng.integers(0, 50, size=8).astype(float)
        perm = rng.permutation(8)
        a = fisher_jenks(values, 3)
        b = fisher_jenks(values[perm], 3)
        assert a.ssd == b.ssd
        assert a.boundaries == b.boundaries
        assert np.array_equal(a.assignments[perm], b.assignments)


class TestBruteForce:
    def test_agrees_on_hand_example(self):
        a = fisher_jenks([1, 2, 10, 11], 2)
        b = brute_force_breaks([1, 2, 10, 11], 2)
        assert a.ssd == b.ssd and a.boundaries == b.boundaries

    def test_single_cluster_is_n_variance(self):
        values = [2.0, 4.0, 9.0]
        r = brute_force_breaks(values, 1)
        assert r.ssd == pytest.approx(np.var(values) * 3)

    def test_singleton_input(self):
        assert brute_force_breaks([7.0], 1).ssd == 0.0

    def test_size_guard(self):
        with pytest.raises(ParameterError):
            brute_force_breaks(list(range(15)), 2)


def test_oracle_equivalence_random_instances():
    rng = np.random.default_rng(123)
    for _ in range(100):
        n = int(rng.integers(4, 13))
        values = rng.integers(0, 101, size=n).astype(float)
        L = int(rng.integers(2, 5))
        a = fisher_jenks(values, L)
        b = brute_force_breaks(values, L)
        assert a.ssd == b.ssd, (values, L)
        assert a.boundaries == b.boundaries, (values, L)
