"""The layout contract of ``repro.nn``: every 4-D activation and gradient an
op produces is C-contiguous ``(N, C, H, W)``.

Nothing *computes* wrongly on a transposed view — numpy hides the strides —
it just gets several times slower: ReLU's ``grad * mask``, pooling's window
passes and BatchNorm's reductions all walk memory in the order of the
array they are handed, and a conv that returns its GEMM product as an
NHWC-memory view (as it did until the layout change) makes every one of
them stride through it.  So the contract is guarded here, on the real
models, rather than discovered in a benchmark: a future op that returns a
transposed view fails with its own name.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.models.cnn import deepthin_cnn, micro_cnn
from repro.nn import functional as F
from repro.nn.split import split_model
from repro.nn.tensor import Tensor
from tests.reference.nn_ops import ref_conv2d

#: ops whose backward closure receives a 4-D gradient in these models
SPATIAL_OPS = {"conv2d", "max_pool2d", "batch_norm", "relu"}

MODELS = [(deepthin_cnn, 20, 8), (micro_cnn, 16, 3)]
IDS = ["deepthin", "micro_cnn"]


def guard_ops(monkeypatch) -> set[str]:
    """From now on, assert every op output that is 4-D is C-contiguous as
    the op produces it, and arm every spatial op's closure to assert the
    same of the gradient it is handed.  Returns the set of ops seen, filled
    in as they run."""
    seen: set[str] = set()
    from_op = Tensor._from_op

    def guarded(data, inputs, op, backward):
        out = from_op(data, inputs, op, backward)
        # Elementwise ops inherit their input's layout: blame the op that
        # introduced the view, not the ones downstream of it.  An input no
        # op of the graph produced (a parameter, the batch) is a leaf.
        blamed = [("leaf", t) for t in inputs if t.node is None and strided(t)]
        if strided(out) and not any(strided(t) for t in inputs):
            blamed.append((op, out))
        if blamed:
            name, t = blamed[0]
            raise AssertionError(
                f"{name} produced a non-contiguous {t.shape} "
                f"activation (strides {t.data.strides})"
            )
        if op in SPATIAL_OPS and out.node is not None:
            out.node.backward = checked(out.node.backward, op)
        seen.add(op)
        return out

    monkeypatch.setattr(Tensor, "_from_op", staticmethod(guarded))
    return seen


def strided(node: Tensor) -> bool:
    return node.ndim == 4 and not node.data.flags.c_contiguous


def checked(closure, op: str):
    def guarded(grad: np.ndarray, *sinks) -> None:
        assert grad.flags.c_contiguous, (
            f"{op} was handed a non-contiguous {grad.shape} gradient "
            f"(strides {grad.strides})"
        )
        closure(grad, *sinks)

    return guarded


def batch(size: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(size)
    return rng.normal(size=(16, 3, size, size)), rng.integers(0, 43, size=16)


@pytest.mark.parametrize("build, size, cut", MODELS, ids=IDS)
def test_split_step_keeps_the_contract(build, size, cut, monkeypatch):
    """Client forward → server forward/backward → client backward, as
    ``ServerHalf.forward_backward`` and ``ClientHalf.backward_from_gradient``
    run them, with every op of both graphs guarded."""
    split = split_model(build(image_size=size, seed=1), cut)
    x, y = batch(size)
    ops = guard_ops(monkeypatch)
    smashed = split.client.forward_to_smashed(x)
    assert smashed.values.flags.c_contiguous

    cut_input = Tensor(smashed.values, requires_grad=True)
    loss = nn.CrossEntropyLoss()(split.server.layers(cut_input), y)
    loss.backward()
    assert cut_input.grad.flags.c_contiguous

    split.client.backward_from_gradient(cut_input.grad.copy())
    assert SPATIAL_OPS - {"batch_norm"} <= ops
    assert all(p.grad is not None for p in split.client.parameters())


@pytest.mark.parametrize("build, size, cut", MODELS, ids=IDS)
def test_unsplit_step_keeps_the_contract(build, size, cut, monkeypatch):
    model = build(image_size=size, seed=1)
    x, y = batch(size)
    ops = guard_ops(monkeypatch)
    loss = nn.CrossEntropyLoss()(model(Tensor(x)), y)
    loss.backward()
    assert ("batch_norm" in ops) == (build is deepthin_cnn)
    assert all(p.grad is not None for p in model.parameters())


def test_guard_names_the_op_that_breaks_the_contract(monkeypatch):
    """The guard has teeth: the pre-contract conv (frozen in
    ``tests/reference/nn_ops.py``) returns an NHWC-memory view and is caught,
    by name, as it produces the view."""
    monkeypatch.setattr(F, "conv2d", ref_conv2d)
    model = micro_cnn(image_size=16, seed=1)
    x, _ = batch(16)
    guard_ops(monkeypatch)
    with pytest.raises(AssertionError, match="conv2d produced a non-contiguous"):
        model(Tensor(x))
