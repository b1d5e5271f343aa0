"""split_local_round engine tests: activity structure and wire semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.data.dataset import ArrayDataset, DataLoader
from repro.nn.split import split_model
from repro.schemes.pricing import LatencyModel
from repro.schemes.split_common import split_local_round


@pytest.fixture
def setup(small_cnn, small_dataset):
    split = split_model(small_cnn, 2)
    loader = DataLoader(small_dataset, batch_size=8, seed=0)
    c_opt = nn.SGD(split.client.parameters(), lr=0.05)
    s_opt = nn.SGD(split.server.parameters(), lr=0.05)
    return split, loader, c_opt, s_opt


class TestActivityStructure:
    def test_activities_per_step(self, setup):
        split, loader, c_opt, s_opt = setup
        _, activities = split_local_round(
            client_id=0,
            split=split,
            client_opt=c_opt,
            server_opt=s_opt,
            loader=loader,
            loss_fn=nn.CrossEntropyLoss(),
            local_steps=3,
            pricing=LatencyModel(None, None, 8),
            bandwidth_hz=1e6,
        )
        # 5 activities per batch: fwd, up, server, down, bwd
        assert len(activities) == 3 * 5
        phases = [a.phase for a in activities[:5]]
        assert phases == [
            "client_compute",
            "uplink_smashed",
            "server_compute",
            "downlink_gradient",
            "client_compute",
        ]

    def test_zero_priced_without_system(self, setup):
        split, loader, c_opt, s_opt = setup
        _, activities = split_local_round(
            0, split, c_opt, s_opt, loader, nn.CrossEntropyLoss(), 2,
            LatencyModel(None, None, 8), 1e6,
        )
        assert all(a.duration_s == 0.0 for a in activities)

    def test_loss_decreases_over_rounds(self, setup):
        split, loader, c_opt, s_opt = setup
        losses = []
        for _ in range(8):
            loss, _ = split_local_round(
                0, split, c_opt, s_opt, loader, nn.CrossEntropyLoss(), 4,
                LatencyModel(None, None, 8), 1e6,
            )
            losses.append(loss)
        assert losses[-1] < losses[0]


class TestWireQuantization:
    def test_quantization_changes_training(self, small_cnn, small_dataset):
        """With an intk transport, the server trains on lossy activations,
        so the parameter trajectory must diverge from float32."""

        def run(transport):
            model = nn.Sequential(
                nn.Conv2d(2, 3, 3, padding=1, seed=1),
                nn.ReLU(),
                nn.MaxPool2d(2),
                nn.Flatten(),
                nn.Linear(3 * 4 * 4, 5, seed=2),
            )
            split = split_model(model, 2)
            loader = DataLoader(small_dataset, batch_size=8, seed=0)
            c_opt = nn.SGD(split.client.parameters(), lr=0.05)
            s_opt = nn.SGD(split.server.parameters(), lr=0.05)
            pricing = LatencyModel(None, None, 8, transport=transport)
            split_local_round(
                0, split, c_opt, s_opt, loader, nn.CrossEntropyLoss(), 2,
                pricing, 1e6,
            )
            return model.state_dict()

        full = run("float32")
        quant = run("intk:4")
        assert any(not np.allclose(full[k], quant[k]) for k in full)

    def test_high_bit_quantization_stays_close(self, small_dataset):
        """16-bit wire should barely perturb the trajectory."""

        def run(transport):
            model = nn.Sequential(
                nn.Flatten(), nn.Linear(2 * 8 * 8, 16, seed=3), nn.ReLU(),
                nn.Linear(16, 5, seed=4),
            )
            split = split_model(model, 2)
            loader = DataLoader(small_dataset, batch_size=8, seed=0)
            c_opt = nn.SGD(split.client.parameters(), lr=0.05)
            s_opt = nn.SGD(split.server.parameters(), lr=0.05)
            pricing = LatencyModel(None, None, 8, transport=transport)
            loss, _ = split_local_round(
                0, split, c_opt, s_opt, loader, nn.CrossEntropyLoss(), 2,
                pricing, 1e6,
            )
            return loss

        assert run("intk:16") == pytest.approx(run("float32"), rel=0.05)
