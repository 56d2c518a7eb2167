"""Gating-frame and expert-prototype tests.

The equiangular frame has a fully hand-traceable K=3, d=2 instance and a known
optimality property (no configuration of K unit vectors can push the largest
pairwise dot below -1/(K-1)); the latter is cross-checked by random search.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mice.errors import (
    InvalidInputError,
    LabelOutOfRangeError,
    TooManyClustersError,
    ZeroNormError,
)
from mice.numcore import make_rng, row_norms
from mice.prototypes import (
    PrototypeAccumulator,
    analytic_prototype_update,
    max_mahalanobis_centers,
    normalized_prototypes,
)

SQRT3_OVER_2 = 0.8660254037844386  # sqrt(3)/2


def max_offdiag_dot(omega: np.ndarray) -> float:
    gram = omega @ omega.T
    np.fill_diagonal(gram, -np.inf)
    return float(np.max(gram))


class TestDispersedFrame:
    def test_two_clusters_are_antipodal(self):
        omega = max_mahalanobis_centers(2, 3)
        np.testing.assert_array_equal(omega, [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])

    def test_hand_trace_three_in_two_dims(self):
        """Row 1 solves dot((a, b), e1) = -1/2 with unit norm: a = -1/2, b = sqrt(3)/2.
        Row 2 then needs dot against both previous rows equal to -1/2, which flips b.
        """
        omega = max_mahalanobis_centers(3, 2)
        expected = [
            [1.0, 0.0],
            [-0.5, SQRT3_OVER_2],
            [-0.5, -SQRT3_OVER_2],
        ]
        np.testing.assert_allclose(omega, expected, atol=1e-15)

    @pytest.mark.parametrize(
        "k,d", [(2, 2), (3, 2), (3, 8), (4, 3), (5, 4), (8, 7), (8, 16), (17, 16)]
    )
    def test_equiangular_and_unit(self, k, d):
        omega = max_mahalanobis_centers(k, d)
        assert omega.shape == (k, d)
        np.testing.assert_allclose(row_norms(omega), 1.0, atol=1e-12)
        gram = omega @ omega.T
        off = gram[~np.eye(k, dtype=bool)]
        np.testing.assert_allclose(off, -1.0 / (k - 1), atol=1e-10)

    def test_too_many_clusters(self):
        with pytest.raises(TooManyClustersError):
            max_mahalanobis_centers(5, 3)
        # K = d + 1 is the simplex-corner boundary and must still work
        omega = max_mahalanobis_centers(4, 3)
        np.testing.assert_allclose(max_offdiag_dot(omega), -1.0 / 3.0, atol=1e-12)

    def test_single_cluster_rejected(self):
        with pytest.raises(InvalidInputError):
            max_mahalanobis_centers(1, 4)

    def test_rounding_clamp_warns_and_stays_valid(self):
        """(K=6, d=8) hits a radicand a few ulp below zero on the final row."""
        with pytest.warns(RuntimeWarning, match="clamping negative radicand"):
            omega = max_mahalanobis_centers(6, 8)
        np.testing.assert_allclose(row_norms(omega), 1.0, atol=1e-12)
        gram = omega @ omega.T
        off = gram[~np.eye(6, dtype=bool)]
        np.testing.assert_allclose(off, -0.2, atol=1e-10)

    @pytest.mark.parametrize("k,d", [(3, 2), (4, 3)])
    def test_no_configuration_beats_the_frame(self, k, d):
        """Random search oracle: the largest pairwise dot of any K unit vectors
        never drops below -1/(K-1), and the built frame attains that bound."""
        omega = max_mahalanobis_centers(k, d)
        bound = -1.0 / (k - 1)
        np.testing.assert_allclose(max_offdiag_dot(omega), bound, atol=1e-12)

        rng = make_rng(55)
        samples = rng.standard_normal((20_000, k, d))
        samples /= row_norms(samples)[..., np.newaxis]
        gram = samples @ samples.transpose(0, 2, 1)
        mask = ~np.eye(k, dtype=bool)
        best = float(np.min(np.max(gram[:, mask], axis=1)))
        assert best >= bound - 1e-9


class TestAccumulator:
    def test_hand_buckets(self):
        acc = PrototypeAccumulator(2, 2)
        acc.add(np.array([[[1.0, 0.0], [9.0, 9.0]]]), [1])
        acc.add(np.array([[[9.0, 9.0], [1.0, 2.0]]]), [2])
        acc.add(np.array([[[0.0, 2.0], [9.0, 9.0]]]), [1])
        np.testing.assert_array_equal(acc.sums, [[1.0, 2.0], [1.0, 2.0]])
        np.testing.assert_array_equal(acc.counts, [2, 1])

    def test_labels_are_one_indexed(self):
        acc = PrototypeAccumulator(3, 2)
        block = np.zeros((1, 3, 2))
        with pytest.raises(LabelOutOfRangeError):
            acc.add(block, [0])
        with pytest.raises(LabelOutOfRangeError):
            acc.add(block, [4])

    def test_block_shape_checked(self):
        acc = PrototypeAccumulator(3, 2)
        with pytest.raises(InvalidInputError):
            acc.add(np.zeros((2, 2)), 1)
        with pytest.raises(InvalidInputError):  # one unbatched (K, d) block
            acc.add(np.zeros((3, 2)), 1)

    def test_batch_labels_checked_before_any_update(self):
        acc = PrototypeAccumulator(3, 2)
        blocks = np.ones((4, 3, 2))
        with pytest.raises(LabelOutOfRangeError):
            acc.add(blocks, np.array([1, 2, 4, 1]))
        with pytest.raises(InvalidInputError):
            acc.add(blocks, np.array([1, 2, 3]))
        with pytest.raises(InvalidInputError):
            acc.add(blocks, np.array([1.0, 2.0, 3.0, 1.0]))
        with pytest.raises(InvalidInputError):
            acc.add(np.ones((4, 2, 2)), np.array([1, 2, 1, 1]))
        assert not np.any(acc.sums) and not np.any(acc.counts)

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(1, 5),
        sizes=st.lists(st.integers(1, 40), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batch_add_equals_single_adds(self, k, sizes, seed):
        """A batch add gives sums and counts bit-identical to one batch-of-one add per row."""
        rng = make_rng(seed)
        batched = PrototypeAccumulator(k, 3)
        single = PrototypeAccumulator(k, 3)
        for size in sizes:
            scales = 10.0 ** rng.integers(-8, 9, size=(size, 1, 1))  # uneven magnitudes
            blocks = rng.standard_normal((size, k, 3)) * scales
            labels = rng.integers(1, k + 1, size=size)
            batched.add(blocks, labels)
            for i in range(size):
                single.add(blocks[i : i + 1], labels[i : i + 1])
        np.testing.assert_array_equal(batched.sums, single.sums)
        np.testing.assert_array_equal(batched.counts, single.counts)

    @settings(max_examples=100, deadline=None)
    @given(k=st.integers(1, 6), size=st.integers(0, 50), seed=st.integers(0, 2**32 - 1))
    def test_counts_match_add_at(self, k, size, seed):
        """The bincount of a batch's labels adds the counts np.add.at would."""
        rng = make_rng(seed)
        acc = PrototypeAccumulator(k, 2)
        acc.counts[:] = rng.integers(0, 100, size=k)
        expected = acc.counts.copy()
        labels = rng.integers(1, k + 1, size=size)
        np.add.at(expected, labels - 1, 1)
        acc.add(rng.standard_normal((size, k, 2)), labels)
        assert acc.counts.dtype == np.int64
        np.testing.assert_array_equal(acc.counts, expected)

    def test_reset(self):
        acc = PrototypeAccumulator(2, 2)
        acc.add(np.ones((1, 2, 2)), [1])
        acc.reset()
        assert not np.any(acc.sums)
        assert not np.any(acc.counts)

    def test_invalid_sizes(self):
        with pytest.raises(InvalidInputError):
            PrototypeAccumulator(0, 2)


class TestAnalyticUpdate:
    def test_normalized_bucket_means(self):
        acc = PrototypeAccumulator(2, 2)
        acc.add(np.array([[[1.0, 0.0], [0.0, 0.0]]]), [1])
        acc.add(np.array([[[0.0, 2.0], [0.0, 0.0]]]), [1])
        acc.add(np.array([[[0.0, 0.0], [3.0, 4.0]]]), [2])
        mu = analytic_prototype_update(acc, np.eye(2))
        sqrt5 = np.sqrt(5.0)
        np.testing.assert_allclose(mu[0], [1.0 / sqrt5, 2.0 / sqrt5], rtol=1e-15)
        np.testing.assert_allclose(mu[1], [0.6, 0.8], rtol=1e-15)

    def test_empty_bucket_keeps_previous(self):
        acc = PrototypeAccumulator(2, 2)
        acc.add(np.array([[[1.0, 0.0], [0.0, 0.0]]]), [1])
        prev = np.array([[0.0, 1.0], [3.0, 4.0]])
        mu = analytic_prototype_update(acc, prev)
        np.testing.assert_array_equal(mu[0], [1.0, 0.0])
        np.testing.assert_allclose(mu[1], [0.6, 0.8], rtol=1e-15)

    def test_cancelling_bucket_falls_back(self):
        acc = PrototypeAccumulator(1, 2)
        acc.add(np.array([[[1.0, 0.0]]]), [1])
        acc.add(np.array([[[-1.0, 0.0]]]), [1])
        mu = analytic_prototype_update(acc, np.array([[0.0, 2.0]]))
        np.testing.assert_array_equal(mu, [[0.0, 1.0]])

    def test_order_invariance(self):
        rng = make_rng(33)
        blocks = rng.standard_normal((100, 3, 4))
        labels = rng.integers(1, 4, size=100)
        prev = np.eye(3, 4) + 1.0

        acc_fwd = PrototypeAccumulator(3, 4)
        for i in range(100):
            acc_fwd.add(blocks[i : i + 1], labels[i : i + 1])
        acc_rev = PrototypeAccumulator(3, 4)
        for i in range(99, -1, -1):
            acc_rev.add(blocks[i : i + 1], labels[i : i + 1])

        np.testing.assert_array_equal(acc_fwd.counts, acc_rev.counts)
        np.testing.assert_allclose(
            analytic_prototype_update(acc_fwd, prev),
            analytic_prototype_update(acc_rev, prev),
            atol=1e-12,
        )

    def test_shape_mismatch(self):
        acc = PrototypeAccumulator(2, 2)
        with pytest.raises(InvalidInputError):
            analytic_prototype_update(acc, np.zeros((3, 2)))


class TestNormalizedPrototypes:
    def test_rows_unit_and_input_untouched(self):
        mu = np.array([[3.0, 4.0], [0.0, 0.5]])
        out = normalized_prototypes(mu)
        np.testing.assert_allclose(out, [[0.6, 0.8], [0.0, 1.0]], rtol=1e-15)
        np.testing.assert_array_equal(mu, [[3.0, 4.0], [0.0, 0.5]])

    def test_zero_row_rejected(self):
        with pytest.raises(ZeroNormError):
            normalized_prototypes(np.array([[1.0, 0.0], [0.0, 0.0]]))
