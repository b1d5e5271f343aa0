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
from test_kernel_parity import ref_conv2d

#: ops whose backward closure receives a 4-D gradient in these models
SPATIAL_OPS = {"conv2d", "max_pool2d", "batch_norm", "relu"}

MODELS = [(deepthin_cnn, 20, 8), (micro_cnn, 16, 3)]
IDS = ["deepthin", "micro_cnn"]


def guard_graph(root: Tensor) -> set[str]:
    """Walk the graph under ``root`` (call before ``backward()``): assert
    every 4-D node is C-contiguous, and arm every spatial op's closure to
    assert the same of the gradient it is handed.  Returns the ops seen."""
    seen: dict[int, Tensor] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    for node in seen.values():
        # Elementwise ops inherit their input's layout: blame the op that
        # introduced the view, not the ones downstream of it.
        if strided(node) and not any(strided(parent) for parent in node._parents):
            raise AssertionError(
                f"{node._op or 'leaf'} produced a non-contiguous {node.shape} "
                f"activation (strides {node.data.strides})"
            )
        if node._op in SPATIAL_OPS and node._closure is not None:
            node._closure = checked(node._closure, node._op)
    return {node._op for node in seen.values()}


def strided(node: Tensor) -> bool:
    return node.ndim == 4 and not node.data.flags.c_contiguous


def checked(closure, op: str):
    def guarded(grad: np.ndarray) -> None:
        assert grad.flags.c_contiguous, (
            f"{op} was handed a non-contiguous {grad.shape} gradient "
            f"(strides {grad.strides})"
        )
        closure(grad)

    return guarded


def batch(size: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(size)
    return rng.normal(size=(16, 3, size, size)), rng.integers(0, 43, size=16)


@pytest.mark.parametrize("build, size, cut", MODELS, ids=IDS)
def test_split_step_keeps_the_contract(build, size, cut):
    """Client forward → server forward/backward → client backward, as
    ``ServerHalf.forward_backward`` and ``ClientHalf.backward_from_gradient``
    run them, with a guard on each of the two graphs."""
    split = split_model(build(image_size=size, seed=1), cut)
    x, y = batch(size)
    smashed = split.client.forward_to_smashed(x)
    assert smashed.values.flags.c_contiguous

    cut_input = Tensor(smashed.values, requires_grad=True)
    loss = nn.CrossEntropyLoss()(split.server.layers(cut_input), y)
    server_ops = guard_graph(loss)
    loss.backward()
    assert cut_input.grad.flags.c_contiguous

    client_ops = guard_graph(split.client._last_output)
    split.client.backward_from_gradient(cut_input.grad.copy())
    assert SPATIAL_OPS - {"batch_norm"} <= server_ops | client_ops
    assert all(p.grad is not None for p in split.client.parameters())


@pytest.mark.parametrize("build, size, cut", MODELS, ids=IDS)
def test_unsplit_step_keeps_the_contract(build, size, cut):
    model = build(image_size=size, seed=1)
    x, y = batch(size)
    loss = nn.CrossEntropyLoss()(model(Tensor(x)), y)
    ops = guard_graph(loss)
    loss.backward()
    assert ("batch_norm" in ops) == (build is deepthin_cnn)
    assert all(p.grad is not None for p in model.parameters())


def test_guard_names_the_op_that_breaks_the_contract(monkeypatch):
    """The guard has teeth: the pre-contract conv (frozen in
    ``test_kernel_parity.py``) returns an NHWC-memory view and is caught,
    by name, before any gradient flows."""
    monkeypatch.setattr(F, "conv2d", ref_conv2d)
    model = micro_cnn(image_size=16, seed=1)
    x, y = batch(16)
    loss = nn.CrossEntropyLoss()(model(Tensor(x)), y)
    with pytest.raises(AssertionError, match="conv2d produced a non-contiguous"):
        guard_graph(loss)
