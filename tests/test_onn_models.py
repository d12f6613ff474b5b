"""Tests for the evaluation models, conversion, quantization, pruning and workload extraction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.onn import (
    ONNConversionConfig,
    apply_pruning,
    convert_to_onn,
    extract_workloads,
    magnitude_prune_mask,
    quantization_error,
    quantize_uniform,
)
from repro.onn.convert import ptc_assignment_of
from repro.core.cache import workload_fingerprint
from repro.onn.layers import Conv2d, Flatten, Linear, MultiHeadAttention, ReLU, Sequential
from repro.onn.models import build_bert_base_image, build_mlp, build_vgg8_cifar10
from repro.onn.models.transformer import TransformerEncoder
from repro.onn.prune import sparsity
from repro.onn.quantize import quantize_with_scale
from repro.onn.workload import max_layer_bytes, total_macs


class TestQuantization:
    def test_quantized_values_on_grid(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=100)
        quantized = quantize_uniform(values, bits=4)
        peak = np.max(np.abs(values))
        scale = peak / 7
        codes = quantized / scale
        np.testing.assert_allclose(codes, np.round(codes), atol=1e-9)

    def test_higher_bits_lower_error(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=500)
        assert quantization_error(values, 8) < quantization_error(values, 3)

    def test_error_zero_for_high_precision(self):
        values = np.array([0.5, -0.25, 0.125])
        assert quantization_error(values, 16) < 1e-4

    def test_zero_input(self):
        np.testing.assert_allclose(quantize_uniform(np.zeros(5), 8), np.zeros(5))

    def test_asymmetric_mode(self):
        values = np.array([0.0, 1.0, 2.0])
        quantized = quantize_uniform(values, 2, symmetric=False)
        assert quantized.min() >= 0.0
        assert quantized.max() <= 2.0

    def test_empty_array(self):
        assert quantize_uniform(np.array([]), 8).size == 0

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            quantize_uniform(np.ones(3), 0)

    def test_quantize_with_scale_roundtrip(self):
        values = np.array([0.5, -1.0, 0.25])
        codes, scale = quantize_with_scale(values, 8)
        np.testing.assert_allclose(codes * scale, values, atol=scale)

    @given(st.integers(min_value=2, max_value=10))
    def test_error_bounded_by_half_lsb(self, bits):
        rng = np.random.default_rng(42)
        values = rng.uniform(-1, 1, size=200)
        quantized = quantize_uniform(values, bits)
        lsb = np.max(np.abs(values)) / (2 ** (bits - 1) - 1)
        assert np.max(np.abs(values - quantized)) <= lsb / 2 + 1e-12


def _quantize_uniform_reference(values, bits):
    """The earlier symmetric quantize_uniform, kept as the bit-exact oracle."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return values.copy()
    peak = float(np.max(np.abs(values)))
    if peak == 0.0:
        return np.zeros_like(values)
    levels = max(2 ** (bits - 1) - 1, 1)
    scale = peak / levels
    return np.round(values / scale) * scale


class TestQuantizeUniformBitIdentity:
    SPECIALS = [
        np.zeros(7),
        np.full(5, -0.0),
        np.array([0.0, -0.0, 0.0]),
        np.array([-0.0, 1.5, -2.5, 0.5]),
        np.array([np.nan, 1.0, -2.0]),
        np.array([1.0, np.nan]),
        np.full(3, np.nan),
        np.array([np.inf, 1.0, -3.0]),
        np.array([-np.inf, 0.0]),
        np.array([3.0]),
        np.array([-1e-300, 5e-324, 2e-308]),
        np.arange(-6.0, 7.0),
    ]

    @staticmethod
    def _assert_bit_identical(values, bits):
        with np.errstate(invalid="ignore"):  # NaN/inf inputs warn in both
            expected = _quantize_uniform_reference(values, bits)
            got = quantize_uniform(values, bits)
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bits", [1, 2, 4, 8, 16])
    def test_special_inputs(self, bits):
        for values in self.SPECIALS:
            self._assert_bit_identical(values, bits)

    def test_randomized_against_reference(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            shape = tuple(rng.integers(1, 9, size=rng.integers(1, 4)))
            values = rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 6)
            if rng.random() < 0.3:  # ties on the rounding grid
                values = np.round(values * 4) / 4
            flat = values.reshape(-1)
            for special in (0.0, -0.0, np.nan, np.inf):
                if rng.random() < 0.2:
                    flat[rng.integers(flat.size)] = special
            if values.ndim > 1 and rng.random() < 0.5:
                values = np.asfortranarray(values)
            bits = int(rng.integers(1, 17))
            self._assert_bit_identical(values, bits)

    def test_input_left_unchanged(self):
        values = np.random.default_rng(3).normal(size=(4, 5))
        before = values.copy()
        quantize_uniform(values, 3)
        assert values.tobytes() == before.tobytes()


class TestPruning:
    def test_prune_ratio_respected(self):
        rng = np.random.default_rng(0)
        weights = rng.normal(size=(20, 20))
        mask = magnitude_prune_mask(weights, 0.5)
        assert mask.mean() == pytest.approx(0.5, abs=0.05)

    def test_keeps_largest_magnitudes(self):
        weights = np.array([0.01, 5.0, -4.0, 0.02])
        mask = magnitude_prune_mask(weights, 0.5)
        assert mask[1] and mask[2]
        assert not mask[0] and not mask[3]

    def test_zero_and_full_ratio(self):
        weights = np.ones((3, 3))
        assert magnitude_prune_mask(weights, 0.0).all()
        assert not magnitude_prune_mask(weights, 1.0).any()

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            magnitude_prune_mask(np.ones(4), 1.5)

    def test_apply_pruning_to_layer(self):
        layer = Linear(10, 10, name="fc")
        mask = apply_pruning(layer, 0.3)
        assert layer.pruning_mask is mask
        assert sparsity(mask) == pytest.approx(0.3, abs=0.05)

    def test_apply_pruning_requires_weights(self):
        with pytest.raises(TypeError):
            apply_pruning(object(), 0.5)

    def test_sparsity_of_weights(self):
        assert sparsity(np.array([0.0, 1.0, 0.0, 2.0])) == pytest.approx(0.5)
        assert sparsity(np.array([])) == 0.0


class TestConversion:
    def test_sets_bits_and_ptc(self):
        model = build_mlp((16, 8, 4))
        convert_to_onn(model, ONNConversionConfig(weight_bits=6, default_ptc="tempo"))
        fc1 = model[0]
        assert fc1.weight_bits == 6
        assert fc1.ptc_type == "tempo"

    def test_type_rules_route_layers(self):
        model = build_vgg8_cifar10(width_multiplier=0.05, input_size=16)
        config = ONNConversionConfig(
            ptc_assignment={"conv": "scatter", "linear": "mzi_mesh"}
        )
        convert_to_onn(model, config)
        assignment = ptc_assignment_of(model)
        assert assignment["conv1"] == "scatter"
        assert assignment["fc1"] == "mzi_mesh"

    def test_pruning_applied_during_conversion(self):
        model = build_mlp((32, 16, 8))
        convert_to_onn(model, ONNConversionConfig(prune_ratio=0.5))
        assert model[0].pruning_mask is not None
        assert sparsity(model[0].pruning_mask) > 0.3

    def test_quantization_applied(self):
        model = build_mlp((16, 8))
        original = model[0].weight.copy()
        convert_to_onn(model, ONNConversionConfig(weight_bits=2))
        assert not np.allclose(model[0].weight, original)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ONNConversionConfig(weight_bits=0)
        with pytest.raises(ValueError):
            ONNConversionConfig(prune_ratio=1.0)

    def test_attention_projections_tagged_attention(self):
        model = build_bert_base_image(image_size=32, num_layers=1, num_classes=10)
        config = ONNConversionConfig(
            ptc_assignment={"attention": "lightening_transformer", "linear": "mzi_mesh"}
        )
        convert_to_onn(model, config)
        assignment = ptc_assignment_of(model)
        assert assignment[model.blocks[0].attention.w_q.name] == "lightening_transformer"
        assert assignment[model.head.name] == "mzi_mesh"


class TestModels:
    def test_mlp_forward(self):
        model = build_mlp((12, 6, 3))
        assert model(np.ones(12)).shape == (3,)

    def test_mlp_needs_two_sizes(self):
        with pytest.raises(ValueError):
            build_mlp((4,))

    def test_vgg8_has_eight_weight_layers(self):
        model = build_vgg8_cifar10(width_multiplier=0.1)
        weighted = [m for m in model.modules() if isinstance(m, (Conv2d, Linear))]
        assert len(weighted) == 8

    def test_vgg8_forward_shape(self):
        model = build_vgg8_cifar10(width_multiplier=0.1)
        logits = model(np.random.default_rng(0).normal(size=(3, 32, 32)))
        assert logits.shape == (10,)

    def test_vgg8_input_size_check(self):
        with pytest.raises(ValueError):
            build_vgg8_cifar10(input_size=30)

    def test_transformer_token_count(self):
        model = TransformerEncoder(image_size=32, patch_size=16, num_layers=1,
                                   embed_dim=32, num_heads=4, mlp_dim=64, num_classes=5)
        assert model.num_tokens == (32 // 16) ** 2 + 1

    def test_transformer_forward(self):
        model = TransformerEncoder(image_size=32, patch_size=16, num_layers=2,
                                   embed_dim=32, num_heads=4, mlp_dim=64, num_classes=5)
        logits = model(np.random.default_rng(0).normal(size=(3, 32, 32)))
        assert logits.shape == (5,)

    def test_transformer_patchify_shape_check(self):
        model = TransformerEncoder(image_size=32, patch_size=16, num_layers=1,
                                   embed_dim=16, num_heads=2, mlp_dim=32)
        with pytest.raises(ValueError):
            model.patchify(np.ones((3, 16, 16)))

    def test_bert_base_parameter_count_scale(self):
        model = build_bert_base_image(image_size=32, num_layers=1, num_classes=10)
        # One BERT-Base block is ~7M parameters (attention 4*768^2 + MLP 2*768*3072).
        assert 6e6 < model.blocks[0].num_parameters() < 8.5e6


class TestWorkloadExtraction:
    def test_mlp_workloads(self):
        model = build_mlp((16, 8, 4))
        workloads = extract_workloads(model, np.ones(16))
        assert [w.layer_name for w in workloads] == ["fc1", "fc2"]
        assert total_macs(workloads) == 16 * 8 + 8 * 4

    def test_vgg8_workload_count_and_types(self):
        model = build_vgg8_cifar10(width_multiplier=0.05, input_size=16)
        workloads = extract_workloads(model, np.random.default_rng(0).normal(size=(3, 16, 16)))
        assert len(workloads) == 8
        assert sum(w.layer_type == "conv" for w in workloads) == 6
        assert sum(w.layer_type == "linear" for w in workloads) == 2

    def test_ptc_assignment_propagates(self):
        model = build_vgg8_cifar10(width_multiplier=0.05, input_size=16)
        convert_to_onn(model, ONNConversionConfig(
            ptc_assignment={"conv": "scatter", "linear": "mzi_mesh"}))
        workloads = extract_workloads(model, np.zeros((3, 16, 16)))
        conv_ptcs = {w.ptc_type for w in workloads if w.layer_type == "conv"}
        linear_ptcs = {w.ptc_type for w in workloads if w.layer_type == "linear"}
        assert conv_ptcs == {"scatter"}
        assert linear_ptcs == {"mzi_mesh"}

    def test_attention_workloads_tagged(self):
        model = TransformerEncoder(image_size=32, patch_size=16, num_layers=1,
                                   embed_dim=32, num_heads=2, mlp_dim=64, num_classes=4)
        convert_to_onn(model, ONNConversionConfig(
            ptc_assignment={"attention": "tempo", "linear": "mzi_mesh"}))
        workloads = extract_workloads(model, np.zeros((3, 32, 32)))
        dynamic = [w for w in workloads if w.layer_type == "attention"]
        assert dynamic
        assert all(w.ptc_type == "tempo" for w in dynamic)

    def test_max_layer_bytes(self):
        model = build_mlp((64, 32, 8))
        workloads = extract_workloads(model, np.ones(64))
        assert max_layer_bytes(workloads) == max(w.gemm.total_bytes for w in workloads)
        assert max_layer_bytes([]) == 0.0

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=2, max_value=16), st.integers(min_value=2, max_value=16))
    def test_total_macs_matches_manual_count(self, hidden, out):
        model = build_mlp((8, hidden, out))
        workloads = extract_workloads(model, np.ones(8))
        assert total_macs(workloads) == 8 * hidden + hidden * out


def _small_transformer():
    return TransformerEncoder(image_size=32, patch_size=16, num_layers=1,
                              embed_dim=32, num_heads=4, mlp_dim=64, num_classes=5,
                              rng=np.random.default_rng(7))


def _small_cnn():
    rng = np.random.default_rng(8)
    return Sequential(
        Conv2d(3, 4, 3, padding=1, name="conv1", rng=rng),
        ReLU(),
        Conv2d(4, 6, 3, stride=2, name="conv2", rng=rng),
        Flatten(),
        Linear(6 * 3 * 3, 5, name="fc", rng=rng),
        name="cnn",
    )


class TestOperandSharing:
    """Extracted GEMM records hold read-only views of the layer operands."""

    CASES = [
        (_small_transformer, (3, 32, 32)),
        (_small_cnn, (3, 8, 8)),
    ]

    @staticmethod
    def _weighted_layers(model):
        return [m for m in model.modules() if isinstance(m, (Conv2d, Linear))]

    @pytest.mark.parametrize("build, shape", CASES)
    def test_weight_values_are_readonly_views(self, build, shape):
        model = build()
        x = np.random.default_rng(0).normal(size=shape)
        gemms = {w.gemm.name: w.gemm for w in extract_workloads(model, x)}
        layers = self._weighted_layers(model)
        assert layers
        for layer in layers:
            gemm = gemms[layer.name]
            assert np.shares_memory(gemm.weight_values, layer.weight)
            assert not gemm.weight_values.flags.writeable
            assert not gemm.input_values.flags.writeable
            assert layer.weight.flags.writeable
            with pytest.raises(ValueError):
                gemm.weight_values[0, 0] = 1.0

    @pytest.mark.parametrize("build, shape", CASES)
    def test_pruning_mask_is_readonly_view(self, build, shape):
        model = build()
        for layer in self._weighted_layers(model):
            apply_pruning(layer, 0.5)
        x = np.random.default_rng(0).normal(size=shape)
        gemms = {w.gemm.name: w.gemm for w in extract_workloads(model, x)}
        for layer in self._weighted_layers(model):
            mask = gemms[layer.name].pruning_mask
            assert np.shares_memory(mask, layer.pruning_mask)
            assert not mask.flags.writeable
            assert layer.pruning_mask.flags.writeable

    @pytest.mark.parametrize("build, shape", CASES)
    def test_rebinding_weights_leaves_workloads_unchanged(self, build, shape):
        model = build()
        x = np.random.default_rng(1).normal(size=shape)
        first = extract_workloads(model, x)
        second = extract_workloads(model, x)
        snapshot = [
            (w.gemm.weight_values.copy(), w.gemm.input_values.copy()) for w in first
        ]
        before = [workload_fingerprint(w) for w in first]
        # Conversion rebinds every weight to a quantized copy; pruning rebinds
        # the masks.  Neither may reach into already-extracted records.
        convert_to_onn(model, ONNConversionConfig(weight_bits=3, prune_ratio=0.5))
        for layer in self._weighted_layers(model):
            apply_pruning(layer, 0.25)
        for (weights, inputs), w in zip(snapshot, second):
            np.testing.assert_array_equal(w.gemm.weight_values, weights)
            np.testing.assert_array_equal(w.gemm.input_values, inputs)
        # ``second`` was never fingerprinted: its digest is computed now, after
        # the rebinding, from the views it holds.
        assert [workload_fingerprint(w) for w in second] == before

    def test_attention_reuses_projection_outputs(self):
        attn = MultiHeadAttention(16, 4, name="attn", rng=np.random.default_rng(2))
        x = np.random.default_rng(3).normal(size=(6, 16))
        expected = attn(x)
        calls = {}
        for proj in (attn.w_q, attn.w_k, attn.w_v, attn.w_o):
            def counted(inp, _proj=proj, _forward=proj.forward):
                calls[_proj.name] = calls.get(_proj.name, 0) + 1
                return _forward(inp)

            proj.forward = counted
        gemms, out = attn.extract_gemms(x)
        assert calls == {p.name: 1 for p in (attn.w_q, attn.w_k, attn.w_v, attn.w_o)}
        assert out.tobytes() == expected.tobytes()
        assert len(gemms) == 4 + 2 * 4
