"""Tests for the GEMM workload record."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.dataflow.gemm import GEMMWorkload


class TestConstruction:
    def test_basic_quantities(self):
        gemm = GEMMWorkload("g", m=4, n=6, k=5)
        assert gemm.num_macs == 120
        assert gemm.num_ops == 240
        assert gemm.input_bytes == 4 * 5
        assert gemm.weight_bytes == 5 * 6
        assert gemm.output_bytes == 4 * 6
        assert gemm.total_bytes == 20 + 30 + 24

    def test_bit_scaling_of_bytes(self):
        gemm = GEMMWorkload("g", m=4, n=4, k=4, input_bits=4)
        assert gemm.input_bytes == 4 * 4 * 0.5

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            GEMMWorkload("g", m=0, n=1, k=1)
        with pytest.raises(ValueError):
            GEMMWorkload("g", m=1, n=-2, k=1)

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            GEMMWorkload("g", m=1, n=1, k=1, input_bits=0)

    def test_weight_shape_checked(self):
        with pytest.raises(ValueError):
            GEMMWorkload("g", m=2, n=3, k=4, weight_values=np.zeros((3, 4)))

    def test_input_shape_checked(self):
        with pytest.raises(ValueError):
            GEMMWorkload("g", m=2, n=3, k=4, input_values=np.zeros((4, 2)))

    def test_mask_shape_checked(self):
        with pytest.raises(ValueError):
            GEMMWorkload(
                "g", m=2, n=3, k=4,
                weight_values=np.zeros((4, 3)),
                pruning_mask=np.ones((3, 4), dtype=bool),
            )


class TestDataAwareness:
    def test_sparsity_from_mask(self):
        mask = np.array([[True, False], [False, False]])
        gemm = GEMMWorkload("g", m=1, n=2, k=2,
                            weight_values=np.ones((2, 2)), pruning_mask=mask)
        assert gemm.sparsity == pytest.approx(0.75)

    def test_sparsity_from_zero_weights(self):
        weights = np.array([[0.0, 1.0], [0.0, 2.0]])
        gemm = GEMMWorkload("g", m=1, n=2, k=2, weight_values=weights)
        assert gemm.sparsity == pytest.approx(0.5)

    def test_sparsity_counts_like_the_mean_of_zero_flags(self):
        rng = np.random.default_rng(2024)
        specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf])
        for _ in range(200):
            k, n = (int(d) for d in rng.integers(1, 40, size=2))
            base = rng.normal(size=(k + 3, n + 2))
            hits = rng.random(base.shape) < rng.uniform(0.0, 0.9)
            base[hits] = rng.choice(specials, size=int(hits.sum()))
            views = (
                base[:k, :n],
                np.asfortranarray(base[:k, :n]),
                base[1 : k + 1, 2 : n + 2],
                base.T[:n, :k].T,
            )
            for weights in views:
                gemm = GEMMWorkload("g", m=1, n=n, k=k, weight_values=weights)
                assert gemm.sparsity == float(np.mean(weights == 0.0))

    def test_sparsity_without_values(self):
        assert GEMMWorkload("g", m=1, n=1, k=1).sparsity == 0.0

    def test_effective_weights_apply_mask(self):
        weights = np.ones((2, 2))
        mask = np.array([[True, False], [True, True]])
        gemm = GEMMWorkload("g", m=1, n=2, k=2, weight_values=weights, pruning_mask=mask)
        assert gemm.effective_weights()[0, 1] == 0.0

    def test_normalized_weights_range(self):
        weights = np.array([[2.0, -4.0], [1.0, 0.5]])
        gemm = GEMMWorkload("g", m=1, n=2, k=2, weight_values=weights)
        normalized = gemm.normalized_weights()
        assert np.max(np.abs(normalized)) == pytest.approx(1.0)

    def test_normalized_weights_all_zero(self):
        gemm = GEMMWorkload("g", m=1, n=2, k=2, weight_values=np.zeros((2, 2)))
        np.testing.assert_allclose(gemm.normalized_weights(), 0.0)

    def test_normalized_none_when_absent(self):
        gemm = GEMMWorkload("g", m=1, n=1, k=1)
        assert gemm.normalized_weights() is None
        assert gemm.normalized_inputs() is None

    def test_normalized_inputs(self):
        gemm = GEMMWorkload("g", m=2, n=1, k=2, input_values=np.array([[1.0, -2.0], [0.5, 0.0]]))
        assert np.max(np.abs(gemm.normalized_inputs())) == pytest.approx(1.0)


class TestTransforms:
    def test_with_bits(self):
        gemm = GEMMWorkload("g", m=2, n=2, k=2)
        requantized = gemm.with_bits(4, 4)
        assert requantized.input_bits == 4
        assert requantized.output_bits == 4
        assert gemm.input_bits == 8  # original untouched

    def test_with_bits_preserves_values(self):
        weights = np.ones((2, 2))
        gemm = GEMMWorkload("g", m=2, n=2, k=2, weight_values=weights)
        assert gemm.with_bits(4, 4).weight_values is weights

    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=64),
    )
    def test_macs_property(self, m, n, k):
        assert GEMMWorkload("g", m=m, n=n, k=k).num_macs == m * n * k
