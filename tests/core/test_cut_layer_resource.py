"""Cut-layer analysis and inter-group bandwidth optimizer tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.core.cut_layer import analyze_cuts
from repro.core.resource import (
    GroupWorkload,
    equal_bandwidth_split,
    minmax_bandwidth_split,
)


@pytest.fixture(scope="module")
def profile():
    model = nn.Sequential(
        nn.Conv2d(3, 8, 3, padding=1, seed=0),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Conv2d(8, 16, 3, padding=1, seed=1),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Flatten(),
        nn.Linear(16 * 4 * 4, 10, seed=2),
    )
    return nn.profile_model(model, (3, 16, 16))


class TestAnalyzeCuts:
    def test_covers_all_valid_cuts(self, profile):
        cuts = analyze_cuts(profile)
        assert [c.cut_layer for c in cuts] == list(range(1, profile.num_layers))

    def test_client_flops_monotone_in_cut(self, profile):
        cuts = analyze_cuts(profile)
        fwd = [c.client_forward_flops for c in cuts]
        assert fwd == sorted(fwd)

    def test_client_plus_server_constant(self, profile):
        for c in analyze_cuts(profile):
            assert (
                c.client_forward_flops + c.server_forward_flops
                == profile.total_forward_flops
            )
            assert (
                c.client_model_bytes + c.server_model_bytes
                == profile.total_param_bytes
            )

    def test_pooling_cut_shrinks_smashed_payload(self, profile):
        cuts = {c.cut_layer: c for c in analyze_cuts(profile)}
        # cut after pool (layer 3) carries 4x less than cut before it
        assert cuts[3].smashed_bytes_per_sample < cuts[2].smashed_bytes_per_sample


class TestBandwidthOptimizer:
    def test_equal_split(self):
        shares = equal_bandwidth_split(12e6, 4)
        assert shares == [3e6] * 4

    def test_equal_split_validation(self):
        with pytest.raises(ValueError):
            equal_bandwidth_split(0, 3)

    @staticmethod
    def _linear_workloads(costs, compute=0.0):
        """latency = compute + cost / bandwidth (idealized linear links)."""
        return [
            GroupWorkload(i, lambda b, c=c: compute + c / b) for i, c in enumerate(costs)
        ]

    def test_minmax_equal_costs_gives_equal_shares(self):
        workloads = self._linear_workloads([1e7, 1e7, 1e7])
        shares, t = minmax_bandwidth_split(workloads, 9e6)
        assert sum(shares) == pytest.approx(9e6, rel=1e-6)
        assert max(shares) - min(shares) < 0.02 * 9e6

    def test_minmax_skewed_costs_equalize_latency(self):
        workloads = self._linear_workloads([1e7, 3e7])
        shares, t = minmax_bandwidth_split(workloads, 8e6)
        lat = [w.latency_fn(b) for w, b in zip(workloads, shares)]
        assert abs(lat[0] - lat[1]) / max(lat) < 0.05
        # the heavy group should get ~3x the bandwidth
        assert shares[1] / shares[0] == pytest.approx(3.0, rel=0.1)

    def test_minmax_beats_equal_split(self):
        workloads = self._linear_workloads([1e7, 4e7])
        shares, t_opt = minmax_bandwidth_split(workloads, 10e6)
        t_eq = max(w.latency_fn(5e6) for w in workloads)
        assert t_opt <= t_eq + 1e-9

    def test_minmax_single_group_gets_everything(self):
        workloads = self._linear_workloads([1e7])
        shares, _ = minmax_bandwidth_split(workloads, 5e6)
        assert shares[0] == pytest.approx(5e6, rel=1e-6)

    def test_minmax_respects_total(self):
        rng = np.random.default_rng(0)
        workloads = self._linear_workloads(rng.uniform(1e6, 5e7, size=6), compute=0.1)
        shares, _ = minmax_bandwidth_split(workloads, 20e6)
        assert sum(shares) <= 20e6 * (1 + 1e-9)

    def test_empty_workloads_rejected(self):
        with pytest.raises(ValueError):
            minmax_bandwidth_split([], 1e6)
