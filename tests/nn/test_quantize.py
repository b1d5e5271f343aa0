"""Uniform quantization tests: round-trip error bounds, payload sizes,
degenerate inputs, property-based reconstruction accuracy."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.quantize import QuantizedArray, dequantize, quantize_uniform, simulate_wire


class TestQuantizeRoundtrip:
    def test_error_bounded_by_half_step(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(100,)) * 5
        q = quantize_uniform(x, num_bits=8)
        err = np.abs(dequantize(q) - x)
        assert err.max() <= q.scale / 2 + 1e-12

    def test_more_bits_less_error(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(500,))
        errors = {}
        for bits in (2, 4, 8, 12):
            err = np.abs(dequantize(quantize_uniform(x, bits)) - x).mean()
            errors[bits] = err
        assert errors[2] > errors[4] > errors[8] > errors[12]

    def test_endpoints_within_one_step(self):
        """Affine quantization reconstructs min/max to within one step
        (the rounded zero-point shifts endpoints by at most scale/2)."""
        x = np.array([-3.0, 0.5, 7.0])
        q = quantize_uniform(x, 8)
        recon = dequantize(q)
        assert recon.min() == pytest.approx(-3.0, abs=q.scale)
        assert recon.max() == pytest.approx(7.0, abs=q.scale)

    def test_shape_preserved(self):
        x = np.zeros((2, 3, 4)) + np.arange(4)
        assert dequantize(quantize_uniform(x, 4)).shape == (2, 3, 4)

    def test_constant_tensor(self):
        x = np.full((5, 5), 3.25)
        recon = dequantize(quantize_uniform(x, 8))
        np.testing.assert_allclose(recon, x)

    def test_zero_tensor(self):
        x = np.zeros(7)
        np.testing.assert_allclose(dequantize(quantize_uniform(x, 8)), x)

    def test_empty_tensor(self):
        x = np.zeros((0, 3))
        q = quantize_uniform(x, 8)
        assert dequantize(q).size == 0

    def test_negative_zero_point_not_mistaken_for_constant(self):
        """Regression: a positive-min tensor can legitimately round to
        zero_point == -1, which the old constant-tensor sentinel hijacked
        (dequantize returned a constant array)."""
        x = np.array([1.0, 12.0])
        q = quantize_uniform(x, 4)
        assert q.zero_point == -1 and not q.constant
        step = (12.0 - 1.0) / 15
        assert np.abs(dequantize(q) - x).max() <= step / 2 + 1e-9

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            quantize_uniform(np.ones(3), 0)
        with pytest.raises(ValueError):
            quantize_uniform(np.ones(3), 17)
        with pytest.raises(ValueError):
            QuantizedArray(np.zeros(1, dtype=np.uint16), 1.0, 0, 32, (1,))

    def test_subnormal_span_is_a_constant(self):
        """A span so small that ``span / levels`` underflows to 0 used to
        divide by it (hypothesis finds ``[0.0, 5e-324]`` every few runs of
        the property below); it round-trips as a constant tensor."""
        x = np.array([0.0, 5e-324])
        q = quantize_uniform(x, 4)
        assert q.constant
        np.testing.assert_allclose(dequantize(q), x, atol=1e-300)

    @given(
        st.lists(st.floats(-100, 100), min_size=2, max_size=50),
        st.sampled_from([4, 8, 12]),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_error_bound(self, values, bits):
        x = np.array(values)
        q = quantize_uniform(x, bits)
        recon = dequantize(q)
        span = x.max() - x.min()
        if span == 0:
            np.testing.assert_allclose(recon, x)
        else:
            step = span / ((1 << bits) - 1)
            assert np.abs(recon - x).max() <= step / 2 + 1e-9


class TestPayload:
    def test_payload_bytes_scale_with_bits(self):
        x = np.zeros(1000) + np.arange(1000)
        b8 = quantize_uniform(x, 8).payload_bytes
        b4 = quantize_uniform(x, 4).payload_bytes
        assert b8 == pytest.approx(1000 + 16)
        assert b4 == pytest.approx(500 + 16)

    def test_constant_tensor_bills_only_parameters(self):
        q = quantize_uniform(np.full((64, 64), 2.5), 8)
        assert q.constant
        assert q.payload_bytes == QuantizedArray.PARAMS_BYTES

    def test_empty_tensor_bills_only_parameters(self):
        q = quantize_uniform(np.zeros((0, 3)), 8)
        assert q.payload_bytes == QuantizedArray.PARAMS_BYTES

    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            x = np.array([1.0, bad, 2.0])
            with pytest.raises(ValueError, match="non-finite"):
                quantize_uniform(x, 8)

    def test_simulate_wire_none_is_identity(self):
        x = np.random.default_rng(0).normal(size=(4, 4))
        np.testing.assert_allclose(simulate_wire(x, None), x)

    def test_simulate_wire_quantizes(self):
        x = np.random.default_rng(0).normal(size=(40,))
        wired = simulate_wire(x, 4)
        assert not np.allclose(wired, x)
        assert len(np.unique(wired)) <= 16


class TestSchemeIntegration:
    def test_pricing_reflects_quantization(self):
        from repro.experiments.scenario import fast_scenario
        from repro.schemes.pricing import LatencyModel

        built = fast_scenario(with_wireless=True).build()
        full = LatencyModel(built.system, built.profile, 16)
        quant = LatencyModel(built.system, built.profile, 16, quantize_bits=8)
        cut = built.scenario.resolved_cut_layer()
        assert quant.smashed_nbytes(cut) < full.smashed_nbytes(cut) / 3

    def test_quantized_gsfl_still_learns(self):
        from dataclasses import replace

        from repro.experiments.runner import make_scheme
        from repro.experiments.scenario import fast_scenario

        scenario = fast_scenario(with_wireless=True)
        scenario.scheme = replace(scenario.scheme, quantize_bits=8)
        built = scenario.build()
        history = make_scheme("GSFL", built).run(3)
        assert history.final_accuracy > 0.2  # chance is 0.1

    def test_quantized_round_is_faster(self):
        from dataclasses import replace

        from repro.experiments.runner import make_scheme
        from repro.experiments.scenario import fast_scenario

        base = fast_scenario(with_wireless=True)
        base.wireless = replace(base.wireless, deterministic_rates=True)
        t_full = make_scheme("GSFL", base.build()).run(1).total_latency_s

        quant = fast_scenario(with_wireless=True)
        quant.wireless = replace(quant.wireless, deterministic_rates=True)
        quant.scheme = replace(quant.scheme, quantize_bits=8)
        t_quant = make_scheme("GSFL", quant.build()).run(1).total_latency_s
        assert t_quant < t_full
