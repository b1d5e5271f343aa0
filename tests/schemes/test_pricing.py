"""LatencyModel pricing tests.

Compute demands are read through their analytic lower bound, transmit
demands through their nominal (static-share) duration — the views the
schemes' stages and round timings use.
"""

from __future__ import annotations

import pytest

from repro.experiments.scenario import fast_scenario
from repro.schemes.pricing import LatencyModel
from repro.sim.runtime import demand_lower_bound_s as compute_s
from repro.sim.runtime import demand_nominal_s as transmit_s
from repro.wireless.system import WirelessSystem


@pytest.fixture(scope="module")
def built():
    from dataclasses import replace

    scenario = fast_scenario(with_wireless=True)
    scenario.wireless = replace(scenario.wireless, deterministic_rates=True)
    return scenario.build()


@pytest.fixture(scope="module")
def pricing(built):
    return LatencyModel(WirelessSystem(built.wireless), built.profile, batch_size=16)


class TestDisabledMode:
    def test_all_zero_without_system(self):
        p = LatencyModel(None, None, batch_size=8)
        assert not p.enabled
        assert compute_s(p.client_forward_demand(0, 1)) == 0.0
        assert transmit_s(p.uplink_smashed_demand(0, 1, 1e6)) == 0.0
        assert p.smashed_nbytes(1) == 0
        assert p.full_model_nbytes() == 0
        assert compute_s(p.aggregation_demand(5, 1000)) == 0.0
        assert p.dataset_nbytes(10) == 0

    def test_partial_args_rejected(self, built):
        with pytest.raises(ValueError):
            LatencyModel(WirelessSystem(built.wireless), None, 8)

    @pytest.mark.parametrize("spec", ["intk:0", "intk:17", "topk:0", "topk:1.5", "gzip"])
    def test_transport_validated(self, built, spec):
        with pytest.raises(ValueError):
            LatencyModel(WirelessSystem(built.wireless), built.profile, 8, transport=spec)


class TestComputePricing:
    def test_client_slower_than_server(self, pricing):
        cut = 2
        client = compute_s(pricing.client_forward_demand(0, cut))
        # same FLOPs on the edge server of the fleet
        server_equiv = (
            pricing.profile.client_forward_flops(cut) * pricing.batch_size
            / pricing.system.fleet.server.flops_per_second
        )
        assert client > server_equiv

    def test_backward_costs_more_than_forward(self, pricing):
        backward = compute_s(pricing.client_backward_demand(0, 2))
        assert backward > compute_s(pricing.client_forward_demand(0, 2))

    def test_full_step_exceeds_split_client_step(self, pricing):
        full = compute_s(pricing.client_full_step_demand(0))
        split = compute_s(pricing.client_forward_demand(0, 1)) + compute_s(
            pricing.client_backward_demand(0, 1)
        )
        assert full > split

    def test_aggregation_scales_with_participants(self, pricing):
        assert compute_s(pricing.aggregation_demand(10, 1000)) == pytest.approx(
            10 * compute_s(pricing.aggregation_demand(1, 1000)), rel=1e-9
        )


class TestTransmissionPricing:
    def test_more_bandwidth_is_faster(self, pricing):
        slow = transmit_s(pricing.uplink_smashed_demand(0, 2, 1e6))
        fast = transmit_s(pricing.uplink_smashed_demand(0, 2, 10e6))
        assert fast < slow

    def test_smashed_bytes_scale_with_batch(self, built):
        p8 = LatencyModel(WirelessSystem(built.wireless), built.profile, batch_size=8)
        p16 = LatencyModel(WirelessSystem(built.wireless), built.profile, batch_size=16)
        assert p16.smashed_nbytes(2) == 2 * p8.smashed_nbytes(2)

    def test_broadcast_gated_by_weakest_client(self, pricing, built):
        clients = list(range(built.wireless.num_clients))
        broadcast = transmit_s(pricing.broadcast_model_demand(clients, 10_000, 1e6))
        singles = [
            transmit_s(pricing.downlink_model_demand(c, 10_000, 1e6)) for c in clients
        ]
        assert broadcast == pytest.approx(max(singles), rel=0.35)

    def test_dataset_bytes(self, pricing, built):
        per_sample = 1
        import numpy as np

        per_sample = int(np.prod(built.profile.input_shape)) + 1
        assert pricing.dataset_nbytes(10) == 10 * per_sample * 4

    def test_zero_byte_transfers_free(self, pricing):
        assert transmit_s(pricing.uplink_model_demand(0, 0, 1e6)) == 0.0
        assert transmit_s(pricing.downlink_model_demand(0, 0, 1e6)) == 0.0


class TestCodecWork:
    """``encode`` / ``decode`` are the one place coded payloads are priced
    as compute: nothing under the identity codec, one activity on the
    owning device under a lossy one."""

    def test_identity_codec_prices_no_codec_work(self, pricing):
        assert pricing.encode(0, 1000, "smashed") == []
        assert pricing.decode(None, 1000, "model") == []

    def test_lossy_codec_prices_work_on_the_owning_device(self, built):
        p = LatencyModel(WirelessSystem(built.wireless), built.profile, 16, transport="int8")
        (encode,) = p.encode(3, 1000, "smashed")
        assert (encode.phase, encode.actor, encode.detail) == ("encode", "client-3", "smashed")
        assert encode.demand.client == 3
        assert encode.demand.flops == p.codec.encode_flops(1000)
        (decode,) = p.decode(None, 1000, "gradient")
        assert (decode.phase, decode.actor, decode.demand.client) == (
            "decode", "edge-server", None
        )
        assert decode.demand.flops == p.codec.decode_flops(1000)
        (broadcast,) = p.encode(None, 10, "model broadcast", actor="access-point")
        assert broadcast.actor == "access-point" and broadcast.demand.client is None

    def test_nothing_to_code_is_free(self, built):
        (activity,) = LatencyModel(
            WirelessSystem(built.wireless), built.profile, 16, transport="topk:0.5"
        ).encode(0, 0, "model")
        assert activity.demand == 0.0

    def test_unpriced_lossy_codec_keeps_zero_duration_activities(self):
        p = LatencyModel(None, None, 8, transport="int8")
        assert [(a.phase, a.demand) for a in p.encode(0, 100, "x") + p.decode(1, 100, "x")] == [
            ("encode", 0.0), ("decode", 0.0)
        ]


class TestCodedPayloadSizes:
    def test_identity_wire_is_the_raw_payload(self, pricing, built):
        assert pricing.smashed_nbytes(2) == built.profile.smashed_bytes(2, 16)
        raw = built.profile.client_model_bytes(2)
        assert pricing.model_wire_nbytes(raw) == raw

    def test_int8_wire_is_one_byte_per_scalar_plus_parameters(self, built):
        p = LatencyModel(WirelessSystem(built.wireless), built.profile, 16, transport="int8")
        scalars = p.smashed_scalars(2)
        assert scalars == built.profile.smashed_bytes(2, 16) // 4
        assert p.smashed_nbytes(2) == scalars + 16
        assert p.model_wire_nbytes(4000) == 1000 + 16

    def test_empty_model_payload_ships_nothing(self, built):
        """No parameter header for a payload of nothing."""
        p = LatencyModel(WirelessSystem(built.wireless), built.profile, 16, transport="int8")
        assert p.model_wire_nbytes(0) == 0
