"""Layer/module tests: registration, shapes, FLOPs, state dicts, modes."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn.tensor import Tensor


class TestModuleRegistration:
    def test_parameters_discovered_recursively(self, small_cnn):
        names = [n for n, _ in small_cnn.named_parameters()]
        assert "0.weight" in names and "0.bias" in names
        assert "4.weight" in names and "4.bias" in names
        assert len(names) == 4

    def test_num_parameters(self):
        layer = nn.Linear(10, 4, seed=0)
        assert layer.num_parameters() == 10 * 4 + 4

    def test_train_eval_propagates(self, small_cnn):
        small_cnn.eval()
        assert all(not m.training for m in small_cnn.modules())
        small_cnn.train()
        assert all(m.training for m in small_cnn.modules())


class TestStateDict:
    def test_roundtrip_preserves_outputs(self, small_cnn, image_batch):
        x, _ = image_batch
        before = small_cnn(Tensor(x)).data.copy()
        state = small_cnn.state_dict()
        for p in small_cnn.parameters():
            p.data = p.data + 1.0  # perturb
        small_cnn.load_state_dict(state)
        after = small_cnn(Tensor(x)).data
        np.testing.assert_allclose(before, after)

    def test_state_dict_copies_are_independent(self, small_cnn):
        state = small_cnn.state_dict()
        key = next(iter(state))
        state[key] += 100.0
        fresh = small_cnn.state_dict()
        assert not np.allclose(state[key], fresh[key])

    def test_missing_key_raises(self, small_cnn):
        state = small_cnn.state_dict()
        state.pop("0.weight")
        with pytest.raises(KeyError, match="0.weight"):
            small_cnn.load_state_dict(state)

    def test_shape_mismatch_raises(self, small_cnn):
        state = small_cnn.state_dict()
        state["0.weight"] = np.zeros((1, 1))
        with pytest.raises(ValueError, match="shape"):
            small_cnn.load_state_dict(state)

    def test_buffers_travel_in_state_dict(self):
        bn = nn.BatchNorm1d(4)
        state = bn.state_dict()
        assert "running_mean" in state and "running_var" in state


class TestLinear:
    def test_forward_matches_manual(self):
        layer = nn.Linear(3, 2, seed=0)
        x = np.random.default_rng(0).normal(size=(5, 3))
        out = layer(Tensor(x)).data
        expected = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(out, expected)

    def test_no_bias(self):
        layer = nn.Linear(3, 2, bias=False, seed=0)
        assert layer.bias is None
        assert layer.num_parameters() == 6

    def test_output_shape_validates_features(self):
        layer = nn.Linear(3, 2, seed=0)
        with pytest.raises(ValueError):
            layer.output_shape((5,))
        assert layer.output_shape((3,)) == (2,)

    def test_flops(self):
        assert nn.Linear(10, 20, seed=0).flops((10,)) == 2 * 10 * 20

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            nn.Linear(0, 4)

    def test_deterministic_init_per_seed(self):
        a = nn.Linear(8, 8, seed=3)
        b = nn.Linear(8, 8, seed=3)
        np.testing.assert_allclose(a.weight.data, b.weight.data)


class TestConvPoolLayers:
    def test_conv_output_shape(self):
        conv = nn.Conv2d(3, 8, 3, padding=1, seed=0)
        assert conv.output_shape((3, 16, 16)) == (8, 16, 16)

    def test_conv_flops_formula(self):
        conv = nn.Conv2d(2, 4, 3, seed=0)
        # output 6x6, macs = 2*3*3 per pixel per out-channel
        assert conv.flops((2, 8, 8)) == 2 * (2 * 9) * 4 * 6 * 6

    def test_pool_shapes(self):
        assert nn.MaxPool2d(2).output_shape((4, 8, 8)) == (4, 4, 4)
        assert nn.MaxPool2d(3, stride=1).output_shape((4, 8, 8)) == (4, 6, 6)

    @pytest.mark.parametrize("kernel, stride", [(0, None), (-1, None), (2, 0), (2, -1)])
    def test_pool_geometry_validation(self, kernel, stride):
        """Checked at construction, as ``Conv2d`` does: ``stride=0`` used to
        raise ZeroDivisionError at the first forward, ``stride=-1`` a
        conv-size error there."""
        with pytest.raises(ValueError, match="geometry"):
            nn.MaxPool2d(kernel, stride=stride)

    def test_conv_geometry_validation(self):
        with pytest.raises(ValueError):
            nn.Conv2d(1, 1, kernel_size=0)
        with pytest.raises(ValueError):
            nn.Conv2d(0, 1, 3)


class TestSequential:
    def test_slicing_shares_parameters(self, small_cnn):
        head = small_cnn[:2]
        assert head[0] is small_cnn[0]

    def test_len_iter_getitem(self, small_cnn):
        assert len(small_cnn) == 5
        assert isinstance(small_cnn[0], nn.Conv2d)
        assert len(list(iter(small_cnn))) == 5

    def test_forward_chains(self):
        seq = nn.Sequential(nn.Linear(4, 3, seed=0), nn.ReLU(), nn.Linear(3, 2, seed=1))
        out = seq(Tensor(np.ones((2, 4))))
        assert out.shape == (2, 2)


class TestProfile:
    def test_profile_tracks_shapes_and_totals(self, small_cnn):
        prof = nn.profile_model(small_cnn, (2, 8, 8))
        assert prof.num_layers == 5
        assert prof.layers[0].output_shape == (3, 8, 8)
        assert prof.layers[-1].output_shape == (5,)
        assert prof.total_params == small_cnn.num_parameters()
        assert prof.total_forward_flops > 0

    def test_split_queries_partition_totals(self, small_cnn):
        prof = nn.profile_model(small_cnn, (2, 8, 8))
        for cut in range(1, 5):
            assert (
                prof.client_forward_flops(cut) + prof.server_forward_flops(cut)
                == prof.total_forward_flops
            )
            assert prof.client_params(cut) + prof.server_params(cut) == prof.total_params

    def test_smashed_shape_and_bytes(self, small_cnn):
        prof = nn.profile_model(small_cnn, (2, 8, 8))
        assert prof.smashed_shape(1) == (3, 8, 8)
        assert prof.smashed_bytes(1, batch_size=2) == 3 * 8 * 8 * 2 * 4

    def test_invalid_cut_raises(self, small_cnn):
        prof = nn.profile_model(small_cnn, (2, 8, 8))
        with pytest.raises(ValueError):
            prof.smashed_shape(0)
        with pytest.raises(ValueError):
            prof.client_params(5)

    def test_summary_renders(self, small_cnn):
        prof = nn.profile_model(small_cnn, (2, 8, 8))
        text = prof.summary()
        assert "Conv2d" in text and "total params" in text
