"""Split-model machinery and serialization tests.

The central invariant: the split-learning handshake (client forward →
smashed upload → server forward/backward → gradient download → client
backward) produces bit-identical parameter gradients to uncut end-to-end
backprop.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.nn.serialize import WIRE_BYTES_PER_SCALAR, state_num_scalars, unpack_state
from repro.nn.split import split_model
from repro.nn.tensor import Tensor
from tests.reference.aggregation import pack_state


def clear_grads(model):
    for param in model.parameters():
        param.zero_grad()


class TestSplitModel:
    def test_valid_cut_range(self, small_cnn):
        with pytest.raises(ValueError):
            split_model(small_cnn, 0)
        with pytest.raises(ValueError):
            split_model(small_cnn, 5)
        split_model(small_cnn, 1)
        split_model(small_cnn, 4)

    def test_requires_sequential(self):
        with pytest.raises(TypeError):
            split_model(nn.Linear(3, 3, seed=0), 1)

    def test_halves_share_parameters_with_original(self, small_cnn):
        sm = split_model(small_cnn, 2)
        originals = {id(p) for p in small_cnn.parameters()}
        halves = {id(p) for p in sm.client.parameters()} | {
            id(p) for p in sm.server.parameters()
        }
        assert halves == originals

    @pytest.mark.parametrize("cut", [1, 2, 3, 4])
    def test_split_gradients_match_end_to_end(self, small_cnn, image_batch, cut):
        x, y = image_batch
        loss_fn = nn.CrossEntropyLoss()
        sm = split_model(small_cnn, cut)

        clear_grads(small_cnn)
        smashed = sm.client.forward_to_smashed(x)
        _, sg, _ = sm.server.forward_backward(smashed, y, loss_fn)
        sm.client.backward_from_gradient(sg)
        split_grads = {n: p.grad.copy() for n, p in small_cnn.named_parameters()}

        clear_grads(small_cnn)
        loss_fn(small_cnn(Tensor(x)), y).backward()
        full_grads = {n: p.grad.copy() for n, p in small_cnn.named_parameters()}

        for name in full_grads:
            np.testing.assert_allclose(
                split_grads[name], full_grads[name], atol=1e-12, err_msg=name
            )

    def test_full_forward_matches_uncut(self, small_cnn, image_batch):
        x, _ = image_batch
        sm = split_model(small_cnn, 3)
        np.testing.assert_allclose(
            sm.full_forward(x).data, small_cnn(Tensor(x)).data, atol=1e-12
        )

    def test_backward_before_forward_raises(self, small_cnn):
        sm = split_model(small_cnn, 2)
        with pytest.raises(RuntimeError, match="forward"):
            sm.client.backward_from_gradient(np.zeros((1, 3, 8, 8)))

    def test_gradient_shape_mismatch_raises(self, small_cnn, image_batch):
        x, _ = image_batch
        sm = split_model(small_cnn, 2)
        sm.client.forward_to_smashed(x)
        with pytest.raises(ValueError, match="shape"):
            sm.client.backward_from_gradient(np.zeros((1, 1)))

    def test_smashed_batch_metadata(self, small_cnn, image_batch):
        """The activations a client sends have the shape the profile prices
        the payload from, at every cut, and carry no graph."""
        x, _ = image_batch
        profile = nn.profile_model(small_cnn, x.shape[1:])
        for cut in range(1, len(small_cnn)):
            smashed = split_model(small_cnn, cut).client.forward_to_smashed(x)
            assert type(smashed.values) is np.ndarray
            assert smashed.values.shape == (len(x), *profile.smashed_shape(cut))
            assert smashed.values.size * WIRE_BYTES_PER_SCALAR == profile.smashed_bytes(
                cut, len(x)
            )

    def test_train_eval_mode_propagates(self, small_cnn):
        """The halves hold the model's own layers, so a mode switch on the
        model reaches both, and one on a half reaches only its layers."""
        sm = split_model(small_cnn, 2)
        client, server = list(sm.client.layers), list(sm.server.layers)
        assert all(a is b for a, b in zip(client + server, small_cnn, strict=True))
        small_cnn.eval()
        assert not any(layer.training for layer in client + server)
        sm.client.train()
        assert all(layer.training for layer in client)
        assert not any(layer.training for layer in server)

    def test_split_training_reduces_loss(self, small_cnn, small_dataset):
        """End-to-end split SGD actually learns."""
        loss_fn = nn.CrossEntropyLoss()
        sm = split_model(small_cnn, 2)
        c_opt = nn.SGD(sm.client.parameters(), lr=0.05)
        s_opt = nn.SGD(sm.server.parameters(), lr=0.05)
        x, y = small_dataset.arrays()
        first = last = None
        for step in range(40):
            smashed = sm.client.forward_to_smashed(x)
            s_opt.zero_grad()
            loss, sg, _ = sm.server.forward_backward(smashed, y, loss_fn)
            s_opt.step()
            c_opt.zero_grad()
            sm.client.backward_from_gradient(sg)
            c_opt.step()
            if step == 0:
                first = loss
            last = loss
        assert last < first * 0.6


class TestSerialization:
    def test_scalar_count(self, small_cnn):
        state = small_cnn.state_dict()
        n = state_num_scalars(state)
        assert n == small_cnn.num_parameters()
        assert nn.profile_model(small_cnn, (2, 8, 8)).total_param_bytes == (
            WIRE_BYTES_PER_SCALAR * n
        )

    def test_pack_unpack_roundtrip(self, small_cnn):
        state = small_cnn.state_dict()
        restored = unpack_state(pack_state(state), state)
        assert_same_state(state, restored)

    def test_unpack_size_mismatch(self, small_cnn):
        state = small_cnn.state_dict()
        with pytest.raises(ValueError):
            unpack_state(np.zeros(3), state)

    @given(st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=15, deadline=None)
    def test_pack_unpack_property(self, rows, cols):
        rng = np.random.default_rng(rows * 31 + cols)
        template = {
            "w": rng.normal(size=(rows, cols)),
            "b": rng.normal(size=(cols,)),
        }
        vec = pack_state(template)
        assert vec.size == rows * cols + cols
        restored = unpack_state(vec, template)
        assert_same_state(template, restored)


def assert_same_state(a, b):
    """Same keys in the same order, each entry of the same shape and
    bitwise equal (a broadcast never passes)."""
    assert list(a) == list(b)
    for key in a:
        assert np.asarray(a[key]).shape == np.asarray(b[key]).shape, key
        np.testing.assert_array_equal(a[key], b[key])
