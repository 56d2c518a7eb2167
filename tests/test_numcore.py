"""Numeric primitive tests.

Expected values are either hand computations (3-4-5 triangle, log 2 softmax)
or closed-form bounds that hold exactly (logsumexp envelope), the latter also
searched with hypothesis.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mice.errors import ZeroNormError
from mice.numcore import (
    logsumexp_rows,
    make_rng,
    normalize_rows,
    row_norms,
    softmax_rows,
)

finite_vectors = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=12,
)


class TestL2Normalize:
    def test_three_four_five(self):
        np.testing.assert_array_equal(normalize_rows(np.array([[3.0, 4.0]])), [[0.6, 0.8]])

    def test_unit_vector_unchanged(self):
        e1 = np.array([[1.0, 0.0, 0.0]])
        np.testing.assert_array_equal(normalize_rows(e1), e1)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroNormError):
            normalize_rows(np.array([[0.0, 0.0]]))
        with pytest.raises(ZeroNormError):
            normalize_rows(np.array([[1e-13, 0.0]]))

    def test_direction_preserved(self):
        v = np.array([[-2.0, 1.0, 2.0]])
        w = normalize_rows(v)
        np.testing.assert_allclose(w * 3.0, v, atol=1e-15)


class TestLogSumExp:
    def test_single_element(self):
        assert logsumexp_rows(np.array([0.0])) == 0.0
        assert logsumexp_rows(np.array([-3.5])) == -3.5

    def test_two_equal_elements(self):
        a = 1.7
        np.testing.assert_allclose(
            logsumexp_rows(np.array([a, a])), a + math.log(2.0), rtol=1e-15
        )

    def test_empty_rejected(self):
        """An empty row has no logsumexp: it raises instead of returning -inf."""
        with pytest.raises(ValueError):
            logsumexp_rows(np.array([]))
        with pytest.raises(ValueError):
            logsumexp_rows(np.zeros((3, 0)))

    def test_overflow_guard(self):
        out = logsumexp_rows(np.array([[1000.0, 1000.0], [1e300, -1e300]]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out[0], 1000.0 + math.log(2.0), rtol=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(finite_vectors)
    def test_envelope(self, values):
        """max(v) <= LSE(v) <= max(v) + ln(len(v))."""
        v = np.asarray(values)
        out = float(logsumexp_rows(v))
        assert out >= float(np.max(v))
        assert out <= float(np.max(v)) + math.log(len(values)) + 1e-12

    def test_rows_variant_matches_scalar(self):
        """Each row's value equals the max-shifted sum taken one row at a time."""
        rng = make_rng(7)
        a = rng.standard_normal((5, 4, 3)) * 20.0
        out = logsumexp_rows(a)
        for idx in np.ndindex(5, 4):
            m = max(a[idx])
            reference = m + math.log(math.fsum(math.exp(x - m) for x in a[idx]))
            np.testing.assert_allclose(out[idx], reference, rtol=1e-14)


class TestSoftmax:
    def test_symmetric_pair(self):
        np.testing.assert_allclose(softmax_rows(np.array([0.0, 0.0])), [0.5, 0.5], atol=1e-15)

    def test_log_two_case(self):
        """logits (ln 2, 0) put exactly twice the mass on the first entry."""
        out = softmax_rows(np.array([math.log(2.0), 0.0]))
        np.testing.assert_allclose(out, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-14)

    def test_high_temperature_is_uniform(self):
        out = softmax_rows(np.array([13.0, -7.0, 2.0]) / 1e9)
        np.testing.assert_allclose(out, 1.0 / 3.0, atol=1e-6)

    def test_sums_to_one_across_temperatures(self):
        """Row sum stays within 1e-12 of 1 for logits in [-50, 50], temperature 1e-3..1e3."""
        rng = make_rng(17)
        for _ in range(300):
            n = int(rng.integers(1, 12))
            logits = rng.uniform(-50.0, 50.0, size=n)
            temp = float(10.0 ** rng.uniform(-3, 3))
            out = softmax_rows(logits / temp)
            assert np.all(out >= 0.0)
            assert abs(float(np.sum(out)) - 1.0) < 1e-12
            if np.ptp(logits) / temp < 700.0:
                # spread small enough that no entry underflows to zero
                assert np.all(out > 0.0)

    def test_rows_variant_matches_scalar(self):
        rng = make_rng(23)
        a = rng.uniform(-40.0, 40.0, size=(6, 5))
        out = softmax_rows(a)
        for i in range(6):
            e = np.exp(a[i])
            np.testing.assert_allclose(out[i], e / np.sum(e), rtol=1e-13)


class TestRows:
    def test_row_norms(self):
        m = np.array([[3.0, 4.0], [0.0, 2.0]])
        np.testing.assert_array_equal(row_norms(m), [5.0, 2.0])

    def test_normalize_rows_matches_vector_path(self):
        """Each row is divided by its own norm, bit for bit as one row at a time."""
        rng = make_rng(31)
        m = rng.standard_normal((8, 5))
        out = normalize_rows(m)
        for i in range(8):
            np.testing.assert_array_equal(out[i], m[i] / np.sqrt(np.sum(np.square(m[i]))))

    def test_normalize_rows_zero_row(self):
        with pytest.raises(ZeroNormError):
            normalize_rows(np.array([[1.0, 0.0], [0.0, 0.0]]))


class TestSeededRng:
    def test_equal_seeds_equal_streams(self):
        a = make_rng(99).standard_normal(10_000)
        b = make_rng(99).standard_normal(10_000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = make_rng(1).standard_normal(64)
        b = make_rng(2).standard_normal(64)
        assert not np.array_equal(a, b)
