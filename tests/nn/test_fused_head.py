"""The fused dense head against the composed chains it replaced.

``F.linear`` used to be three autograd nodes (``transpose`` → ``matmul`` →
``add``) and ``CrossEntropyLoss`` five (``log_softmax`` → ``getitem`` →
``sum`` → ``neg`` → ``mul``).  Each is now one node.  The composed
versions live on, frozen, as the reference in ``tests/reference/nn_ops.py``
(``src/`` keeps one code path).

Unlike the BatchNorm fusion nothing reassociates: a fused node evaluates
the numpy expressions of its chain in the chain's order on operands of the
same layout, so the fence is equality of every byte — values, dtype and
the sign of zeros — on the output and on every gradient.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.tensor import Node, Tensor, no_grad
from tests.conftest import numeric_gradient
from tests.reference import assert_same
from tests.reference.nn_ops import composed_cross_entropy, composed_linear

# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

DTYPES = [np.float32, np.float64]
IDS = ["f32", "f64"]

#: ``(input shape, out_features)`` of every dense layer the four benchmark
#: workloads run — the fleet MLP at batch 4, the micro_cnn and DeepThin
#: heads at batch 16 — and the evaluation batch of 256
LINEAR_SHAPES = [
    ((4, 192), 64),
    ((4, 64), 32),
    ((4, 32), 10),
    ((16, 256), 10),
    ((16, 800), 43),
    ((256, 192), 64),
    ((256, 800), 43),
]
#: the logits those heads hand the loss
LOGIT_SHAPES = [(4, 10), (16, 10), (16, 43), (256, 43)]


def shape_id(value) -> str:
    return str(value).replace(" ", "")


def graph_size(root: Tensor) -> int:
    """Nodes that carry a backward closure under ``root``."""
    seen: dict[int, Node] = {}
    stack = [root.node]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(p for p in node.parents if isinstance(p, Node))
    return sum(node.backward is not None for node in seen.values())


def run_linear(linear, in_shape, out_features, dtype, bias=True, x_dtype=None):
    """One forward/backward; returns output and the three gradients."""
    rng = np.random.default_rng([*in_shape, out_features])
    with nn.default_dtype(dtype):
        weight = nn.Parameter(rng.normal(size=(out_features, in_shape[-1])))
        b = nn.Parameter(rng.normal(size=out_features)) if bias else None
    with nn.default_dtype(x_dtype or dtype):
        x = Tensor(rng.normal(size=in_shape), requires_grad=True)
        out = linear(x, weight, b)
        out.backward(rng.normal(size=out.shape))
    return out.data, x.grad, weight.grad, None if b is None else b.grad


def fused_cross_entropy(logits: Tensor, targets: np.ndarray, reduction: str = "mean") -> Tensor:
    return nn.CrossEntropyLoss(reduction)(logits, targets)


def run_loss(loss, shape, dtype, reduction):
    rng = np.random.default_rng([*shape, len(reduction)])
    with nn.default_dtype(dtype):
        logits = Tensor(rng.normal(scale=3.0, size=shape), requires_grad=True)
        targets = rng.integers(0, shape[1], size=shape[0])
        value = loss(logits, targets, reduction)
        value.backward()
    return value.data, logits.grad


# ----------------------------------------------------------------------
# fused vs composed
# ----------------------------------------------------------------------


@pytest.mark.parametrize("dtype", DTYPES, ids=IDS)
@pytest.mark.parametrize("in_shape, out_features", LINEAR_SHAPES, ids=shape_id)
def test_linear_matches_composed_reference(in_shape, out_features, dtype):
    got = run_linear(F.linear, in_shape, out_features, dtype)
    want = run_linear(composed_linear, in_shape, out_features, dtype)
    assert_same(got, want)
    assert got[0].dtype == np.dtype(dtype)


@pytest.mark.parametrize("dtype", DTYPES, ids=IDS)
def test_linear_without_bias(dtype):
    got = run_linear(F.linear, (4, 64), 32, dtype, bias=False)
    want = run_linear(composed_linear, (4, 64), 32, dtype, bias=False)
    assert_same(got, want)


@pytest.mark.parametrize(
    "in_shape", [(32,), (3, 5, 32), (2, 3, 4, 32)], ids=["1d", "3d", "4d"]
)
@pytest.mark.parametrize("dtype", DTYPES, ids=IDS)
def test_linear_on_nd_input(in_shape, dtype):
    """Any input rank: a vector (outer-product weight gradient) and batched
    matmuls (weight and bias gradients summed over the leading axes)."""
    got = run_linear(F.linear, in_shape, 10, dtype)
    want = run_linear(composed_linear, in_shape, 10, dtype)
    assert_same(got, want)
    assert got[2].shape == (10, 32)


def test_linear_float64_input_on_float32_parameters():
    """numpy promotes the product to float64; each gradient comes back in
    its own tensor's dtype, rounded once."""
    got = run_linear(F.linear, (4, 64), 32, np.float32, x_dtype=np.float64)
    want = run_linear(composed_linear, (4, 64), 32, np.float32, x_dtype=np.float64)
    assert_same(got, want)
    assert [a.dtype for a in got] == [np.float64, np.float64, np.float32, np.float32]


@pytest.mark.parametrize("reduction", ["mean", "sum"])
@pytest.mark.parametrize("dtype", DTYPES, ids=IDS)
@pytest.mark.parametrize("shape", LOGIT_SHAPES, ids=shape_id)
def test_cross_entropy_matches_composed_reference(shape, dtype, reduction):
    got = run_loss(fused_cross_entropy, shape, dtype, reduction)
    want = run_loss(composed_cross_entropy, shape, dtype, reduction)
    assert_same(got, want)
    assert got[0].shape == () and got[0].dtype == np.dtype(dtype)


def test_cross_entropy_under_an_upstream_gradient():
    """The loss as an interior node: a non-unit gradient arrives from above."""
    grads = []
    for loss in (fused_cross_entropy, composed_cross_entropy):
        rng = np.random.default_rng(3)
        logits = Tensor(rng.normal(size=(16, 43)), requires_grad=True)
        (loss(logits, rng.integers(0, 43, size=16)) * 2.5).backward()
        grads.append(logits.grad)
    assert_same(grads[0], grads[1])


@pytest.mark.parametrize("dtype", DTYPES, ids=IDS)
def test_mlp_head_step_matches_composed_reference(dtype, monkeypatch):
    """Linear → ReLU → Linear → cross-entropy, as the fleet's server half
    runs it, with every fused node swapped for its chain."""

    def step(loss_fn):
        rng = np.random.default_rng(11)
        with nn.default_dtype(dtype):
            model = nn.Sequential(nn.Linear(64, 32, seed=1), nn.ReLU(), nn.Linear(32, 10, seed=2))
            x = Tensor(rng.normal(size=(4, 64)), requires_grad=True)
            loss = loss_fn(model(x), rng.integers(0, 10, size=4))
            loss.backward()
        return [loss.data, x.grad] + [p.grad for p in model.parameters()]

    got = step(nn.CrossEntropyLoss())
    monkeypatch.setattr(F, "linear", composed_linear)
    want = step(composed_cross_entropy)
    assert_same(got, want)


# ----------------------------------------------------------------------
# the nodes on their own terms
# ----------------------------------------------------------------------


def test_linear_gradcheck():
    rng = np.random.default_rng(5)
    weight = nn.Parameter(rng.normal(size=(3, 5)))
    bias = nn.Parameter(rng.normal(size=3))
    x = Tensor(rng.normal(size=(2, 4, 5)), requires_grad=True)
    readout = Tensor(rng.normal(size=(2, 4, 3)))

    def loss() -> Tensor:
        return ((F.linear(x, weight, bias) ** 3) * readout).sum()

    loss().backward()
    for name, tensor in {"x": x, "weight": weight, "bias": bias}.items():
        numeric = numeric_gradient(lambda: float(loss().item()), tensor.data)
        np.testing.assert_allclose(tensor.grad, numeric, rtol=1e-6, atol=1e-6, err_msg=name)


@pytest.mark.parametrize("reduction", ["mean", "sum"])
def test_loss_gradcheck(reduction):
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    targets = rng.integers(0, 4, size=5)
    loss_fn = nn.CrossEntropyLoss(reduction)
    loss_fn(x, targets).backward()
    numeric = numeric_gradient(lambda: float(loss_fn(x, targets).item()), x.data)
    np.testing.assert_allclose(x.grad, numeric, rtol=1e-6, atol=1e-6)


def test_each_call_is_one_node():
    rng = np.random.default_rng(0)
    layer = nn.Linear(6, 3, seed=0)
    x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    targets = rng.integers(0, 3, size=4)

    out = layer(x)
    assert out.node.op == "linear"
    assert out.node.parents == (x, layer.weight, layer.bias)
    assert F.linear(x, layer.weight).node.parents == (x, layer.weight)

    loss = nn.CrossEntropyLoss()(out, targets)
    assert loss.node.op == "cross_entropy" and loss.node.parents == (out.node,)
    assert graph_size(loss) == 2
    composed = composed_cross_entropy(composed_linear(x, layer.weight, layer.bias), targets)
    assert graph_size(composed) == 8


def test_under_no_grad_nothing_is_kept():
    rng = np.random.default_rng(0)
    layer = nn.Linear(6, 3, seed=0)
    x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    with no_grad():
        out = layer(x)
        loss = nn.CrossEntropyLoss()(out, rng.integers(0, 3, size=4))
    for tensor in (out, loss):
        assert not tensor.requires_grad
        assert tensor.node is None


def test_frozen_weight_still_passes_the_gradient_on():
    layer = nn.Linear(6, 3, seed=0)
    layer.weight.requires_grad = False
    x = Tensor(np.random.default_rng(0).normal(size=(4, 6)), requires_grad=True)
    layer(x).sum().backward()
    assert layer.weight.grad is None
    np.testing.assert_array_equal(layer.bias.grad, np.full(3, 4.0))
    np.testing.assert_array_equal(x.grad, np.tile(layer.weight.data.sum(axis=0), (4, 1)))
