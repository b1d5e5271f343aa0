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
from repro.nn.serialize import (
    activation_nbytes,
    clone_state,
    model_nbytes,
    pack_state,
    state_nbits,
    state_num_scalars,
    states_allclose,
    unpack_state,
)
from repro.nn.split import split_model
from repro.nn.tensor import Tensor


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

        small_cnn.zero_grad()
        smashed = sm.client.forward_to_smashed(x)
        _, sg, _ = sm.server.forward_backward(smashed, y, loss_fn)
        sm.client.backward_from_gradient(sg)
        split_grads = {n: p.grad.copy() for n, p in small_cnn.named_parameters()}

        small_cnn.zero_grad()
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
        x, _ = image_batch
        sm = split_model(small_cnn, 1)
        smashed = sm.client.forward_to_smashed(x)
        assert smashed.batch_size == 4

    def test_train_eval_mode_propagates(self, small_cnn):
        sm = split_model(small_cnn, 2)
        sm.eval()
        assert not small_cnn[0].training
        sm.train()
        assert small_cnn[0].training

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
    def test_scalar_and_byte_counts(self, small_cnn):
        state = small_cnn.state_dict()
        n = state_num_scalars(state)
        assert n == small_cnn.num_parameters()
        assert model_nbytes(small_cnn) == 4 * n
        assert state_nbits(state) == 32 * n

    def test_activation_bytes(self):
        assert activation_nbytes((3, 8, 8), batch_size=2) == 3 * 8 * 8 * 2 * 4

    def test_pack_unpack_roundtrip(self, small_cnn):
        state = small_cnn.state_dict()
        vec = pack_state(state)
        restored = unpack_state(vec, state)
        assert states_allclose(state, restored)

    def test_unpack_size_mismatch(self, small_cnn):
        state = small_cnn.state_dict()
        with pytest.raises(ValueError):
            unpack_state(np.zeros(3), state)

    def test_pack_empty_state(self):
        assert pack_state({}).size == 0

    def test_clone_state_is_deep(self, small_cnn):
        state = small_cnn.state_dict()
        cloned = clone_state(state)
        key = next(iter(state))
        cloned[key] += 1.0
        assert not np.allclose(cloned[key], state[key])

    def test_states_allclose_detects_key_mismatch(self):
        assert not states_allclose({"a": np.ones(2)}, {"b": np.ones(2)})

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
        assert states_allclose(template, restored)
