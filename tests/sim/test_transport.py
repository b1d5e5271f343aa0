"""Transport codec battery: round-trip error bounds, wire accounting,
and spec parsing.

The property tests pin the contract the schemes rely on:

* ``intk:K`` round-trips every finite tensor with per-element error at
  most half a quantization step, for every K in [1, 16];
* ``topk:F`` is deterministic, element-preserving, and never keeps a
  smaller magnitude over a larger one;
* an ``intk:K`` payload bills its packed ``K``-bit codes plus the two
  per-tensor parameters;
* :func:`parse_transport` round-trips every canonical codec name and
  rejects malformed specs with a :class:`ValueError` (the CLI's exit-2
  path).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.transport import (
    TOPK_BYTES_PER_ENTRY,
    Float32Codec,
    IntKCodec,
    TopKCodec,
    parse_transport,
)

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, width=32, min_value=-1e6, max_value=1e6
)
float_tensors = st.lists(finite_floats, min_size=1, max_size=64).map(
    lambda vals: np.asarray(vals, dtype=np.float64)
)


class TestIntKRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(x=float_tensors, bits=st.integers(min_value=1, max_value=16))
    def test_error_within_half_step(self, x, bits):
        codec = IntKCodec(bits)
        y = codec.apply(x)
        lo, hi = float(x.min()), float(x.max())
        scale = (hi - lo) / (2**bits - 1) if hi > lo else 0.0
        tol = scale / 2 + 1e-6 * (abs(hi) + abs(lo) + scale + 1)
        assert y.shape == x.shape
        assert np.all(np.abs(y - x.astype(y.dtype)) <= tol)

    @settings(max_examples=50, deadline=None)
    @given(
        value=finite_floats,
        size=st.integers(min_value=1, max_value=32),
        bits=st.integers(min_value=1, max_value=16),
    )
    def test_constant_tensor_is_exact(self, value, size, bits):
        x = np.full(size, value, dtype=np.float64)
        np.testing.assert_array_equal(IntKCodec(bits).apply(x), x)

    def test_all_negative_tensor_round_trips(self):
        """Negative zero-point: lo < hi < 0 must still bound the error."""
        x = np.linspace(-8.0, -1.0, 37)
        y = IntKCodec(8).apply(x)
        scale = (x.max() - x.min()) / 255
        assert np.all(np.abs(y - x) <= scale / 2 + 1e-9)

    def test_empty_tensor_passes_through(self):
        x = np.zeros((0,), dtype=np.float64)
        assert IntKCodec(8).apply(x).size == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        x = np.array([1.0, bad, 3.0])
        with pytest.raises(ValueError, match="non-finite"):
            IntKCodec(8).apply(x)

    @pytest.mark.parametrize("bits", [0, 17, -1])
    def test_bit_width_validated(self, bits):
        with pytest.raises(ValueError, match="num_bits"):
            IntKCodec(bits)

    def test_more_bits_less_error(self):
        x = np.random.default_rng(1).normal(size=(500,))
        errors = [np.abs(IntKCodec(bits).apply(x) - x).mean() for bits in (2, 4, 8, 12)]
        assert errors == sorted(errors, reverse=True) and len(set(errors)) == 4

    def test_endpoints_within_one_step(self):
        """Affine quantization reconstructs min/max to within one step
        (the rounded zero-point shifts endpoints by at most scale/2)."""
        x = np.array([-3.0, 0.5, 7.0])
        y = IntKCodec(8).apply(x)
        step = 10.0 / 255
        assert y.min() == pytest.approx(-3.0, abs=step)
        assert y.max() == pytest.approx(7.0, abs=step)

    def test_shape_preserved(self):
        x = np.zeros((2, 3, 4)) + np.arange(4)
        assert IntKCodec(4).apply(x).shape == (2, 3, 4)
        assert IntKCodec(8).apply(np.zeros((0, 3))).shape == (0, 3)

    def test_zero_tensor(self):
        np.testing.assert_array_equal(IntKCodec(8).apply(np.zeros(7)), np.zeros(7))

    def test_negative_zero_point_not_mistaken_for_constant(self):
        """Regression: a positive-min tensor can legitimately round to
        zero point -1 (``[1.0, 12.0]`` at 4 bits), which an old
        constant-tensor sentinel hijacked, rebuilding a constant array."""
        x = np.array([1.0, 12.0])
        step = (12.0 - 1.0) / 15
        assert int(np.round(-1.0 / step)) == -1
        y = IntKCodec(4).apply(x)
        assert y[0] != y[1]
        assert np.abs(y - x).max() <= step / 2 + 1e-9

    def test_subnormal_span_is_a_constant(self):
        """A span so small that ``span / levels`` underflows to 0 used to
        divide by it (hypothesis found ``[0.0, 5e-324]``); it round-trips
        as a constant tensor at the minimum."""
        x = np.array([0.0, 5e-324])
        np.testing.assert_array_equal(IntKCodec(4).apply(x), [0.0, 0.0])

    def test_quantizes_to_at_most_two_to_the_k_levels(self):
        x = np.random.default_rng(0).normal(size=(40,))
        y = IntKCodec(4).apply(x)
        assert not np.allclose(y, x)
        assert len(np.unique(y)) <= 16

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_keeps_the_input_dtype(self, dtype):
        x = np.linspace(-1.0, 2.0, 11).astype(dtype)
        assert IntKCodec(8).apply(x).dtype == dtype
        assert IntKCodec(8).apply(np.full(3, 2.5, dtype=dtype)).dtype == dtype


class TestIntKWireAccounting:
    @settings(max_examples=100, deadline=None)
    @given(
        size=st.integers(min_value=0, max_value=10**7),
        bits=st.integers(min_value=1, max_value=16),
    )
    def test_codes_pack_with_under_a_byte_of_slack(self, size, bits):
        """The packed codes hold every ``bits``-bit code and waste less
        than one byte; the parameters ride on top."""
        packed = IntKCodec(bits).wire_bytes(size) - IntKCodec.PARAMS_BYTES
        assert 8 * packed - 8 < size * bits <= 8 * packed

    def test_zero_scalars_bills_parameters_only(self):
        assert IntKCodec(8).wire_bytes(0) == IntKCodec.PARAMS_BYTES == 16

    def test_int8_is_one_byte_per_scalar_plus_params(self):
        assert IntKCodec(8).wire_bytes(1000) == 1000 + IntKCodec.PARAMS_BYTES

    def test_payload_bytes_scale_with_bits(self):
        assert IntKCodec(4).wire_bytes(1000) == 500 + IntKCodec.PARAMS_BYTES

    def test_sub_byte_codes_pack(self):
        # 10 scalars at 4 bits = 5 packed bytes
        assert IntKCodec(4).wire_bytes(10) == 5 + IntKCodec.PARAMS_BYTES

    def test_codec_compute_scales_with_payload(self):
        codec = IntKCodec(8)
        assert codec.encode_flops(0) == codec.decode_flops(0) == 0.0
        assert codec.encode_flops(100) > codec.decode_flops(100) > 0.0


class TestTopK:
    @settings(max_examples=100, deadline=None)
    @given(
        x=float_tensors,
        fraction=st.floats(min_value=0.05, max_value=1.0),
    )
    def test_sparsification_contract(self, x, fraction):
        codec = TopKCodec(float(fraction))
        y = codec.apply(x)
        k = codec.kept(x.size)
        # Element-preserving: every output is either zero or the input.
        assert np.all((y == 0) | (y == x))
        assert np.count_nonzero(y) <= k
        # No dropped magnitude exceeds a kept one.
        dropped = np.abs(x[(y == 0) & (x != 0)])
        if dropped.size and np.count_nonzero(y):
            assert dropped.max() <= np.abs(y[y != 0]).min()
        # Deterministic replay.
        np.testing.assert_array_equal(y, codec.apply(x))

    def test_full_fraction_is_identity(self):
        x = np.arange(-5.0, 5.0)
        np.testing.assert_array_equal(TopKCodec(1.0).apply(x), x)

    def test_keeps_at_least_one_entry(self):
        codec = TopKCodec(0.01)
        assert codec.kept(3) == 1
        y = codec.apply(np.array([0.1, -7.0, 2.0]))
        np.testing.assert_array_equal(y, [0.0, -7.0, 0.0])

    def test_wire_bytes(self):
        codec = TopKCodec(0.1)
        assert codec.wire_bytes(1000) == 100 * TOPK_BYTES_PER_ENTRY
        assert codec.wire_bytes(0) == 0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            TopKCodec(0.5).apply(np.array([1.0, np.nan]))

    @pytest.mark.parametrize("fraction", [0.0, -0.1, 1.5])
    def test_fraction_validated(self, fraction):
        with pytest.raises(ValueError, match="fraction"):
            TopKCodec(fraction)


class TestParseTransport:
    @pytest.mark.parametrize(
        "spec", ["float32", "int8", "intk:4", "intk:16", "topk:0.1", "topk:1"]
    )
    def test_canonical_names_round_trip(self, spec):
        codec = parse_transport(spec)
        assert parse_transport(codec.name).name == codec.name

    @pytest.mark.parametrize("alias", ["fp32", "none", "", "FLOAT32"])
    def test_identity_aliases(self, alias):
        codec = parse_transport(alias)
        assert not codec.lossy and codec.name == "float32"

    def test_none_means_identity(self):
        assert not parse_transport(None).lossy

    def test_codec_instance_passes_through(self):
        codec = IntKCodec(5)
        assert parse_transport(codec) is codec

    def test_intk_eight_canonicalizes_to_int8(self):
        assert parse_transport("intk:8").name == "int8"

    @pytest.mark.parametrize(
        "spec", ["gzip", "intk", "intk:zero", "intk:0", "intk:17", "topk:x", "topk:0"]
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_transport(spec)

    def test_identity_wire_is_raw_float32(self):
        assert Float32Codec().wire_bytes(250) == 1000

    def test_identity_apply_passes_through(self):
        x = np.random.default_rng(0).normal(size=(4, 4))
        assert Float32Codec().apply(x) is x

    def test_apply_state_round_trips_float_tensors_only(self):
        state = {
            "w": np.linspace(-1.0, 1.0, 9),
            "count": np.array([3], dtype=np.int64),
        }
        out = IntKCodec(2).apply_state(state)
        assert out["count"] is state["count"]
        assert not np.array_equal(out["w"], state["w"])  # lossy at 2 bits
        # The identity codec skips the walk entirely.
        assert Float32Codec().apply_state(state) is state


class TestSchemeIntegration:
    def test_pricing_reflects_quantization(self):
        from repro.experiments.scenario import fast_scenario
        from repro.schemes.pricing import LatencyModel
        from repro.wireless.system import WirelessSystem

        built = fast_scenario(with_wireless=True).build()
        system = WirelessSystem(built.wireless)
        full = LatencyModel(system, built.profile, 16)
        quant = LatencyModel(system, built.profile, 16, transport="int8")
        cut = built.scenario.resolved_cut_layer()
        assert quant.smashed_nbytes(cut) < full.smashed_nbytes(cut) / 3

    def test_quantized_gsfl_still_learns(self):
        from dataclasses import replace

        from repro.experiments.runner import make_scheme
        from repro.experiments.scenario import fast_scenario

        scenario = fast_scenario(with_wireless=True)
        scenario.scheme = replace(scenario.scheme, transport="int8")
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
        quant.scheme = replace(quant.scheme, transport="int8")
        t_quant = make_scheme("GSFL", quant.build()).run(1).total_latency_s
        assert t_quant < t_full
