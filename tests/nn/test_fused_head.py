"""The fused dense head against the composed chains it replaced.

``F.linear`` used to be three autograd nodes (``transpose`` → ``matmul`` →
``add``) and ``CrossEntropyLoss`` five (``log_softmax`` → ``getitem`` →
``sum`` → ``neg`` → ``mul``; ``NLLLoss`` the last four).  Each is now one
node.  The composed versions live on *here*, frozen, as the reference
(``src/`` keeps one code path — the ``test_batchnorm_fused.py`` pattern).

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
from repro.nn.tensor import Tensor, no_grad
from tests.conftest import numeric_gradient

# ----------------------------------------------------------------------
# Frozen references: ``F.linear``, ``CrossEntropyLoss.__call__`` and
# ``NLLLoss.__call__`` as of the commit before the fused nodes (argument
# validation aside).  Do not "modernise" them.
# ----------------------------------------------------------------------


def composed_linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    out = x @ weight.transpose()
    if bias is not None:
        out = out + bias
    return out


def composed_nll(log_probs: Tensor, targets: np.ndarray, reduction: str = "mean") -> Tensor:
    targets = np.asarray(targets)
    batch = np.arange(targets.shape[0])
    picked = log_probs[batch, targets]
    loss = -(picked.sum())
    if reduction == "mean":
        loss = loss * (1.0 / targets.shape[0])
    return loss


def composed_cross_entropy(logits: Tensor, targets: np.ndarray, reduction: str = "mean") -> Tensor:
    return composed_nll(logits.log_softmax(axis=1), targets, reduction)


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


def assert_same_bytes(got: np.ndarray, want: np.ndarray, name: str) -> None:
    assert got.dtype == want.dtype, name
    assert got.shape == want.shape, name
    assert got.tobytes() == want.tobytes(), name


def graph_size(root: Tensor) -> int:
    """Nodes that carry a backward closure under ``root``."""
    seen: dict[int, Tensor] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return sum(node._closure is not None for node in seen.values())


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


def fused_nll(log_probs: Tensor, targets: np.ndarray, reduction: str = "mean") -> Tensor:
    return nn.NLLLoss(reduction)(log_probs, targets)


def run_loss(loss, shape, dtype, reduction, from_log_probs=False):
    rng = np.random.default_rng([*shape, len(reduction)])
    with nn.default_dtype(dtype):
        logits = Tensor(rng.normal(scale=3.0, size=shape), requires_grad=True)
        targets = rng.integers(0, shape[1], size=shape[0])
        x = logits.log_softmax(axis=1) if from_log_probs else logits
        value = loss(x, targets, reduction)
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
    for name, g, w in zip(["out", "dx", "dweight", "dbias"], got, want):
        assert_same_bytes(g, w, name)
    assert got[0].dtype == np.dtype(dtype)


@pytest.mark.parametrize("dtype", DTYPES, ids=IDS)
def test_linear_without_bias(dtype):
    got = run_linear(F.linear, (4, 64), 32, dtype, bias=False)
    want = run_linear(composed_linear, (4, 64), 32, dtype, bias=False)
    for name, g, w in zip(["out", "dx", "dweight"], got, want):
        assert_same_bytes(g, w, name)


@pytest.mark.parametrize(
    "in_shape", [(32,), (3, 5, 32), (2, 3, 4, 32)], ids=["1d", "3d", "4d"]
)
@pytest.mark.parametrize("dtype", DTYPES, ids=IDS)
def test_linear_on_nd_input(in_shape, dtype):
    """Any input rank: a vector (outer-product weight gradient) and batched
    matmuls (weight and bias gradients summed over the leading axes)."""
    got = run_linear(F.linear, in_shape, 10, dtype)
    want = run_linear(composed_linear, in_shape, 10, dtype)
    for name, g, w in zip(["out", "dx", "dweight", "dbias"], got, want):
        assert_same_bytes(g, w, name)
    assert got[2].shape == (10, 32)


def test_linear_float64_input_on_float32_parameters():
    """numpy promotes the product to float64; each gradient comes back in
    its own tensor's dtype, rounded once."""
    got = run_linear(F.linear, (4, 64), 32, np.float32, x_dtype=np.float64)
    want = run_linear(composed_linear, (4, 64), 32, np.float32, x_dtype=np.float64)
    for name, g, w in zip(["out", "dx", "dweight", "dbias"], got, want):
        assert_same_bytes(g, w, name)
    assert [a.dtype for a in got] == [np.float64, np.float64, np.float32, np.float32]


@pytest.mark.parametrize("reduction", ["mean", "sum"])
@pytest.mark.parametrize("dtype", DTYPES, ids=IDS)
@pytest.mark.parametrize("shape", LOGIT_SHAPES, ids=shape_id)
def test_cross_entropy_matches_composed_reference(shape, dtype, reduction):
    got = run_loss(fused_cross_entropy, shape, dtype, reduction)
    want = run_loss(composed_cross_entropy, shape, dtype, reduction)
    assert_same_bytes(got[0], want[0], "loss")
    assert_same_bytes(got[1], want[1], "dlogits")
    assert got[0].shape == () and got[0].dtype == np.dtype(dtype)


@pytest.mark.parametrize("reduction", ["mean", "sum"])
@pytest.mark.parametrize("dtype", DTYPES, ids=IDS)
@pytest.mark.parametrize("shape", LOGIT_SHAPES, ids=shape_id)
def test_nll_matches_composed_reference(shape, dtype, reduction):
    """Fed by an ordinary ``log_softmax`` node, as a user would."""
    got = run_loss(fused_nll, shape, dtype, reduction, from_log_probs=True)
    want = run_loss(composed_nll, shape, dtype, reduction, from_log_probs=True)
    assert_same_bytes(got[0], want[0], "loss")
    assert_same_bytes(got[1], want[1], "dlogits")


def test_cross_entropy_under_an_upstream_gradient():
    """The loss as an interior node: a non-unit gradient arrives from above."""
    grads = []
    for loss in (fused_cross_entropy, composed_cross_entropy):
        rng = np.random.default_rng(3)
        logits = Tensor(rng.normal(size=(16, 43)), requires_grad=True)
        (loss(logits, rng.integers(0, 43, size=16)) * 2.5).backward()
        grads.append(logits.grad)
    assert_same_bytes(grads[0], grads[1], "dlogits")


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
    for i, (g, w) in enumerate(zip(got, want)):
        assert_same_bytes(g, w, f"array {i}")


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
@pytest.mark.parametrize("loss_cls", [nn.CrossEntropyLoss, nn.NLLLoss])
def test_loss_gradcheck(loss_cls, reduction):
    """For ``NLLLoss`` the input is differentiated as free log-probabilities."""
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    targets = rng.integers(0, 4, size=5)
    loss_fn = loss_cls(reduction)
    loss_fn(x, targets).backward()
    numeric = numeric_gradient(lambda: float(loss_fn(x, targets).item()), x.data)
    np.testing.assert_allclose(x.grad, numeric, rtol=1e-6, atol=1e-6)


def test_each_call_is_one_node():
    rng = np.random.default_rng(0)
    layer = nn.Linear(6, 3, seed=0)
    x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    targets = rng.integers(0, 3, size=4)

    out = layer(x)
    assert out._op == "linear"
    assert out._parents == (x, layer.weight, layer.bias)
    assert F.linear(x, layer.weight)._parents == (x, layer.weight)

    loss = nn.CrossEntropyLoss()(out, targets)
    assert loss._op == "cross_entropy" and loss._parents == (out,)
    assert graph_size(loss) == 2
    composed = composed_cross_entropy(composed_linear(x, layer.weight, layer.bias), targets)
    assert graph_size(composed) == 8

    log_probs = out.log_softmax(axis=1)
    nll = nn.NLLLoss()(log_probs, targets)
    assert nll._op == "nll" and nll._parents == (log_probs,)


def test_under_no_grad_nothing_is_kept():
    rng = np.random.default_rng(0)
    layer = nn.Linear(6, 3, seed=0)
    x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    with no_grad():
        out = layer(x)
        loss = nn.CrossEntropyLoss()(out, rng.integers(0, 3, size=4))
        nll = nn.NLLLoss()(out.log_softmax(axis=1), rng.integers(0, 3, size=4))
    for node in (out, loss, nll):
        assert not node.requires_grad
        assert node._backward is None
        assert node._parents == ()


def test_frozen_weight_still_passes_the_gradient_on():
    layer = nn.Linear(6, 3, seed=0)
    layer.weight.requires_grad = False
    x = Tensor(np.random.default_rng(0).normal(size=(4, 6)), requires_grad=True)
    layer(x).sum().backward()
    assert layer.weight.grad is None
    np.testing.assert_array_equal(layer.bias.grad, np.full(3, 4.0))
    np.testing.assert_array_equal(x.grad, np.tile(layer.weight.data.sum(axis=0), (4, 1)))
