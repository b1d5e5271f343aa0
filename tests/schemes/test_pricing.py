"""LatencyModel pricing tests."""

from __future__ import annotations

import pytest

from repro.experiments.scenario import fast_scenario
from repro.schemes.pricing import LatencyModel


@pytest.fixture(scope="module")
def built():
    from dataclasses import replace

    scenario = fast_scenario(with_wireless=True)
    scenario.wireless = replace(scenario.wireless, deterministic_rates=True)
    return scenario.build()


@pytest.fixture(scope="module")
def pricing(built):
    return LatencyModel(built.system, built.profile, batch_size=16)


class TestDisabledMode:
    def test_all_zero_without_system(self):
        p = LatencyModel(None, None, batch_size=8)
        assert not p.enabled
        assert p.client_forward_s(0, 1) == 0.0
        assert p.uplink_smashed_s(0, 1, 1e6) == 0.0
        assert p.smashed_nbytes(1) == 0
        assert p.full_model_nbytes() == 0
        assert p.aggregation_s(5, 1000) == 0.0
        assert p.dataset_nbytes(10) == 0

    def test_partial_args_rejected(self, built):
        with pytest.raises(ValueError):
            LatencyModel(built.system, None, 8)

    @pytest.mark.parametrize("spec", ["intk:0", "intk:17", "topk:0", "topk:1.5", "gzip"])
    def test_transport_validated(self, built, spec):
        with pytest.raises(ValueError):
            LatencyModel(built.system, built.profile, 8, transport=spec)


class TestComputePricing:
    def test_client_slower_than_server(self, pricing):
        cut = 2
        client = pricing.client_forward_s(0, cut)
        # same FLOPs on the server side of the facade
        server_equiv = pricing.system.server_compute_seconds(
            pricing.profile.client_forward_flops(cut) * pricing.batch_size
        )
        assert client > server_equiv

    def test_backward_costs_more_than_forward(self, pricing):
        assert pricing.client_backward_s(0, 2) > pricing.client_forward_s(0, 2)

    def test_full_step_exceeds_split_client_step(self, pricing):
        full = pricing.client_full_step_s(0)
        split = pricing.client_forward_s(0, 1) + pricing.client_backward_s(0, 1)
        assert full > split

    def test_aggregation_scales_with_participants(self, pricing):
        assert pricing.aggregation_s(10, 1000) == pytest.approx(
            10 * pricing.aggregation_s(1, 1000), rel=1e-9
        )


class TestTransmissionPricing:
    def test_more_bandwidth_is_faster(self, pricing):
        slow = pricing.uplink_smashed_s(0, 2, 1e6)
        fast = pricing.uplink_smashed_s(0, 2, 10e6)
        assert fast < slow

    def test_smashed_bytes_scale_with_batch(self, built):
        p8 = LatencyModel(built.system, built.profile, batch_size=8)
        p16 = LatencyModel(built.system, built.profile, batch_size=16)
        assert p16.smashed_nbytes(2) == 2 * p8.smashed_nbytes(2)

    def test_broadcast_gated_by_weakest_client(self, pricing, built):
        clients = list(range(built.system.num_clients))
        broadcast = pricing.broadcast_model_s(clients, 10_000, 1e6)
        singles = [pricing.downlink_model_s(c, 10_000, 1e6) for c in clients]
        assert broadcast == pytest.approx(max(singles), rel=0.35)

    def test_dataset_bytes(self, pricing, built):
        per_sample = 1
        import numpy as np

        per_sample = int(np.prod(built.profile.input_shape)) + 1
        assert pricing.dataset_nbytes(10) == 10 * per_sample * 4

    def test_zero_byte_transfers_free(self, pricing):
        assert pricing.uplink_model_s(0, 0, 1e6) == 0.0
        assert pricing.downlink_model_s(0, 0, 1e6) == 0.0
