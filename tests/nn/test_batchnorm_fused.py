"""The fused BatchNorm node against the composed one it replaced.

``_BatchNorm.forward`` used to build batch normalisation out of ~12
generic autograd nodes (sum, mul, sub, pow, reshape, ...).  It is now one
node in training mode and one per-channel scale-and-shift in eval mode.
The composed version lives on, frozen, as the reference in
``tests/reference/nn_ops.py`` (``src/`` keeps one code path);
``tests/nn/test_kernel_parity.py`` also runs it in its DeepThin
whole-model step.

The two are the same function but not the same float program: the fused
node reduces ``Σ(x-μ)²`` and ``Σ g·x̂`` with one ``einsum`` pass each where
the composed graph materialised the product and summed it pairwise, and it
evaluates ``dx`` from the closed form instead of accumulating three partial
gradients into ``x``.  That reassociation is the *only* numeric change, so
the fence is a stated bound, not ``==``: normwise error ≤ 1e-12 in float64
and ≤ 1e-5 in float32 on the output and on every gradient.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn.norm import _BatchNorm
from repro.nn.tensor import Tensor, no_grad
from tests.conftest import numeric_gradient
from tests.reference.nn_ops import BOUND, composed_batchnorm_forward, relative_error

# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

DTYPES = [np.float32, np.float64]
#: the BatchNorm inputs the four benchmark workloads produce — DeepThin's
#: two BN layers at the train batch (16), the last partial evaluation batch
#: (88) and a full evaluation batch (256) — plus a ``BatchNorm1d`` batch
SHAPES = [
    (n, c, size, size) for c, size in [(16, 20), (32, 10)] for n in (16, 88, 256)
] + [(64, 12)]


def make_layer(shape: tuple[int, ...], rng: np.random.Generator) -> _BatchNorm:
    """A layer with non-trivial affine parameters and running statistics."""
    bn = (nn.BatchNorm2d if len(shape) == 4 else nn.BatchNorm1d)(shape[1], momentum=0.3)
    dtype = bn.gamma.dtype
    bn.gamma.data = rng.uniform(0.5, 1.5, size=shape[1]).astype(dtype)
    bn.beta.data = rng.normal(size=shape[1]).astype(dtype)
    bn._update_buffer("running_mean", rng.normal(size=shape[1]))
    bn._update_buffer("running_var", rng.uniform(0.5, 2.0, size=shape[1]))
    return bn


def run(forward, shape, dtype, training: bool, steps: int = 1):
    """``steps`` forward/backward passes; returns the last output, the three
    gradients and the running statistics."""
    rng = np.random.default_rng(list(shape))
    with nn.default_dtype(dtype):
        bn = make_layer(shape, rng)
        bn.train(training)
        for _ in range(steps):
            for param in bn.parameters():
                param.zero_grad()
            x = Tensor(rng.normal(loc=0.7, scale=1.8, size=shape), requires_grad=True)
            upstream = rng.normal(size=shape).astype(dtype)
            out = forward(bn, x)
            out.backward(upstream)
    return out.data, x.grad, bn.gamma.grad, bn.beta.grad, bn.running_mean, bn.running_var


# ----------------------------------------------------------------------
# fused vs composed
# ----------------------------------------------------------------------


@pytest.mark.parametrize("dtype", DTYPES, ids=["f32", "f64"])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_training_step_matches_composed_reference(shape, dtype):
    got = run(_BatchNorm.forward, shape, dtype, training=True)
    want = run(composed_batchnorm_forward, shape, dtype, training=True)
    for name, g, w in zip(["out", "dx", "dgamma", "dbeta", "mean", "var"], got, want):
        assert relative_error(g, w) <= BOUND[dtype], name
    assert got[0].flags.c_contiguous and got[1].flags.c_contiguous


@pytest.mark.parametrize("dtype", DTYPES, ids=["f32", "f64"])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_eval_matches_composed_reference(shape, dtype):
    """Eval mode normalises with the running statistics and leaves them
    alone; gradients still reach ``x``, ``gamma`` and ``beta``."""
    got = run(_BatchNorm.forward, shape, dtype, training=False)
    want = run(composed_batchnorm_forward, shape, dtype, training=False)
    for name, g, w in zip(["out", "dx", "dgamma", "dbeta"], got, want):
        assert relative_error(g, w) <= BOUND[dtype], name
    np.testing.assert_array_equal(got[4], want[4])
    np.testing.assert_array_equal(got[5], want[5])


@pytest.mark.parametrize("dtype", DTYPES, ids=["f32", "f64"])
@pytest.mark.parametrize("shape", [(16, 16, 20, 20), (64, 12)], ids=["2d", "1d"])
def test_running_statistics_after_three_steps(shape, dtype):
    got = run(_BatchNorm.forward, shape, dtype, training=True, steps=3)
    want = run(composed_batchnorm_forward, shape, dtype, training=True, steps=3)
    assert got[4].dtype == want[4].dtype == np.dtype(dtype)
    assert relative_error(got[4], want[4]) <= BOUND[dtype]
    assert relative_error(got[5], want[5]) <= BOUND[dtype]
    # and they moved: momentum 0.3 for three steps from the seeded values
    assert not np.allclose(got[5], run(_BatchNorm.forward, shape, dtype, True, steps=1)[5])


# ----------------------------------------------------------------------
# the node on its own terms
# ----------------------------------------------------------------------


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("shape", [(4, 3, 2, 3), (6, 3)], ids=["2d", "1d"])
def test_gradcheck(shape, training):
    """Central differences in float64 (the suite's default dtype) on a
    non-linear readout, so the gradient through the batch statistics
    matters."""
    rng = np.random.default_rng(5)
    bn = make_layer(shape, rng)
    bn.train(training)
    frozen = (bn.running_mean, bn.running_var)
    x_data = rng.normal(size=shape)
    weights = rng.normal(size=shape)

    def loss() -> Tensor:
        bn._update_buffer("running_mean", frozen[0])
        bn._update_buffer("running_var", frozen[1])
        return ((bn(x) ** 3) * Tensor(weights)).sum()

    x = Tensor(x_data, requires_grad=True)
    loss().backward()
    analytic = {"x": x.grad, "gamma": bn.gamma.grad, "beta": bn.beta.grad}
    arrays = {"x": x.data, "gamma": bn.gamma.data, "beta": bn.beta.data}
    for name, array in arrays.items():
        numeric = numeric_gradient(lambda: float(loss().item()), array)
        np.testing.assert_allclose(analytic[name], numeric, rtol=1e-6, atol=1e-6, err_msg=name)


def test_single_element_channel_is_finite():
    """``N·H·W == 1``: the batch variance is 0, ``x̂`` is 0, the output is
    ``beta`` and no gradient reaches ``x``; the unbiased-variance update
    divides by ``max(n - 1, 1)``, not by zero."""
    bn = nn.BatchNorm2d(3)
    bn.beta.data = np.array([0.5, -1.0, 2.0])
    x = Tensor(np.array([3.0, -4.0, 0.0]).reshape(1, 3, 1, 1), requires_grad=True)
    out = bn(x)
    out.backward(np.ones((1, 3, 1, 1)))
    np.testing.assert_array_equal(out.data.reshape(-1), bn.beta.data)
    np.testing.assert_array_equal(x.grad, np.zeros((1, 3, 1, 1)))
    np.testing.assert_array_equal(bn.gamma.grad, np.zeros(3))
    np.testing.assert_array_equal(bn.beta.grad, np.ones(3))
    np.testing.assert_allclose(bn.running_mean, 0.1 * np.array([3.0, -4.0, 0.0]))
    np.testing.assert_allclose(bn.running_var, np.full(3, 0.9))


def test_training_forward_is_one_node():
    bn = nn.BatchNorm2d(4)
    x = Tensor(np.random.default_rng(0).normal(size=(2, 4, 3, 3)), requires_grad=True)
    out = bn(x)
    assert out.node.op == "batch_norm"
    assert out.node.parents == (x, bn.gamma, bn.beta)


def test_train_mode_forward_under_no_grad_updates_stats_and_keeps_nothing():
    """Scoring a model that was left in training mode still moves the
    running statistics (as before), but must not retain ``x̂`` in a closure
    no backward will ever call."""
    bn = nn.BatchNorm2d(4)
    x = Tensor(np.random.default_rng(0).normal(loc=2.0, size=(8, 4, 3, 3)))
    with no_grad():
        out = bn(x)
    assert np.all(bn.running_mean > 0.1)
    assert not out.requires_grad
    assert out.node is None


@pytest.mark.parametrize("dtype", DTYPES, ids=["f32", "f64"])
@pytest.mark.parametrize("shape", [(16, 16, 20, 20), (64, 12)], ids=["2d", "1d"])
def test_eval_scale_and_shift_is_one_node_with_the_two_node_bits(shape, dtype):
    """Eval mode applies its per-channel scale and shift as one node that
    adds the shift in place (one activation-sized temporary less per layer
    and evaluation batch); nothing reassociates, so output and gradients are
    those of ``x * scale + shift``, byte for byte."""

    def two_nodes(self: _BatchNorm, x: Tensor) -> Tensor:
        shape_ = self._param_shape(x.ndim)
        scale = self.gamma.reshape(*shape_) * Tensor(
            1.0 / np.sqrt(self.running_var + self.eps).reshape(shape_)
        )
        shift = self.beta.reshape(*shape_) - Tensor(self.running_mean.reshape(shape_)) * scale
        return x * scale + shift

    got = run(_BatchNorm.forward, shape, dtype, training=False)
    want = run(two_nodes, shape, dtype, training=False)
    for name, g, w in zip(["out", "dx", "dgamma", "dbeta"], got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name

    bn = make_layer(shape, np.random.default_rng(0)).eval()
    x = Tensor(np.ones(shape), requires_grad=True)
    out = bn(x)
    assert out.node.op == "scale_shift" and out.node.parents[0] is x
    with no_grad():
        out = bn(x)
    assert out.node is None
