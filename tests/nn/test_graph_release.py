"""A graph keeps only what backward reads, and backward releases it as it
walks it.

Each op records a ``Node`` whose closure captures only the arrays its
backward reads, so an activation that merely fed the next op dies with that
op's forward.  ``Tensor.backward`` pops nodes off the topological order and
drops each node's closure, parent links and gradient as soon as the closure
has run, so a patch matrix, saved activation or interior gradient is gone
before the layers upstream allocate their own.  Inside ``conv2d``'s
backward the patch matrix is released once the weight gradient is formed,
before ``gcols`` and ``col2im`` allocate, and the pooling backwards write
each window's gradient straight into its view of the input gradient.  Only
lifetimes change: the kernel parity, fused-node and golden-history suites
hold every byte.

This file pins the lifetimes themselves: a DeepThin client half holds none
of the activations it only passed on, an op upstream of a conv sees the
conv's patch matrix and closure already freed, a DeepThin training step's
traced peak stays near the graph it must hold, the ``.grad`` contract is
the one callers always had, and a second pass through a released graph
raises instead of returning a silently wrong gradient.
"""

from __future__ import annotations

import hashlib
import tracemalloc
import weakref

import numpy as np
import pytest

from repro import nn
from repro.data.gtsrb import SyntheticGTSRB
from repro.experiments.scenario import paper_scenario
from repro.models.registry import build_model
from repro.nn import functional as F
from repro.nn.split import split_model
from repro.nn.tensor import Tensor
from repro.schemes.split_common import split_step_math


def _probe(x: Tensor, on_backward) -> Tensor:
    """Identity op whose backward calls ``on_backward()`` before passing
    the gradient on."""

    def _bw(grad: np.ndarray, to_x) -> None:
        on_backward()
        to_x._accumulate(grad)

    return Tensor._from_op(x.data.copy(), (x,), "probe", _bw)


class TestReleaseDuringBackward:
    def test_upstream_op_sees_downstream_conv_released(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
        weight = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        seen: list[tuple[object, object, object]] = []
        hidden = _probe(x, lambda: seen.append((closure(), patches(), patch_base())))
        out = F.conv2d(hidden, weight, padding=1)

        # The patch matrix is the (C_in*kh*kw, N*oh*ow) array the closure holds.
        cells = [cell.cell_contents for cell in out.node.backward.__closure__]
        (cols,) = [
            c for c in cells if isinstance(c, np.ndarray) and c.shape == (3 * 9, 2 * 36)
        ]
        closure, patches = weakref.ref(out.node.backward), weakref.ref(cols)
        patch_base = weakref.ref(cols.base if cols.base is not None else cols)
        del cells, cols

        out.sum().backward()
        assert seen == [(None, None, None)]
        assert x.grad is not None and weight.grad is not None

    def test_conv_drops_its_patch_matrix_before_col2im(self, rng, monkeypatch):
        x = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
        weight = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        out = F.conv2d(x, weight, padding=1)
        (cols,) = [
            cell.cell_contents
            for cell in out.node.backward.__closure__
            if isinstance(cell.cell_contents, np.ndarray)
            and cell.cell_contents.shape == (3 * 9, 2 * 36)
        ]
        patches = weakref.ref(cols.base if cols.base is not None else cols)
        del cols
        alive_at_col2im: list[bool] = []
        col2im = F.col2im

        def probed_col2im(*args, **kwargs):
            alive_at_col2im.append(patches() is not None)
            return col2im(*args, **kwargs)

        monkeypatch.setattr(F, "col2im", probed_col2im)
        out.sum().backward()
        assert alive_at_col2im == [False]
        assert x.grad is not None and weight.grad is not None

    def test_interior_gradient_is_gone_before_its_parent_runs(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        interior_grads: list[object] = []
        hidden = _probe(x, lambda: interior_grads.append(doubled.node.grad))
        doubled = hidden * 2.0
        (doubled.relu() * 3.0).sum().backward()
        assert interior_grads == [None]


class TestGradContract:
    def test_leaves_keep_grad_interior_nodes_drop_it(self, rng):
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        x = Tensor(rng.normal(size=(5, 4)))
        hidden = (x @ w).relu()
        scaled = hidden * 2.0
        loss = scaled.sum()
        loss.backward()
        assert w.grad is not None and w.grad.shape == w.shape
        assert x.grad is None  # does not require grad
        assert hidden.grad is None and scaled.grad is None
        assert loss.grad == 1.0  # the root keeps its seed
        for tensor in (hidden, scaled, loss):
            node = tensor.node
            assert node.parents == () and node.backward is None and node.grad is None


class TestReleasedGraph:
    def test_second_backward_raises_and_names_the_op(self):
        w = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        y = (w * w).sum()
        y.backward()
        with pytest.raises(RuntimeError, match="'sum'"):
            y.backward()
        np.testing.assert_array_equal(w.grad, [4.0, 6.0])
        assert y.grad == 1.0

    def test_backward_from_a_released_interior_node_raises(self):
        w = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        squared = w * w
        squared.sum().backward()
        with pytest.raises(RuntimeError, match="'mul'"):
            squared.backward(np.ones(2))
        np.testing.assert_array_equal(w.grad, [4.0, 6.0])

    def test_graph_sharing_a_released_node_raises(self):
        w = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        squared = w * w
        squared.sum().backward()
        with pytest.raises(RuntimeError, match="'mul'"):
            (squared * 2.0).sum().backward()

    def test_leaf_backward_accumulates_as_before(self):
        w = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        w.backward(np.ones(2))
        w.backward(np.ones(2))
        np.testing.assert_array_equal(w.grad, [2.0, 2.0])

    def test_tensor_without_grad_stays_a_no_op(self):
        t = Tensor(np.array([1.0]))
        t.backward()
        t.backward()
        assert t.grad is None
        u = t * 2.0  # an op output that does not require grad
        u.backward()
        u.backward()
        assert u.grad is None


@pytest.fixture(scope="module")
def deepthin_batch():
    """One paper-preset training batch, built in the CLI's float32."""
    with nn.default_dtype(np.float32):
        train, _ = SyntheticGTSRB(paper_scenario().dataset).train_test()
        xb, yb = train.take(np.arange(paper_scenario().scheme.batch_size))
    return xb, yb


def _traced_step_peak(step) -> float:
    """MiB a warm ``step`` asks for above what was alive when it started.

    Tracing starts before a warm-up step so that the arrays the measured
    step frees (the previous step's gradients, replaced parameters and
    velocities) were traced when they were allocated and count as freed.
    """
    tracemalloc.start()
    try:
        step()
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        step()
        return (tracemalloc.get_traced_memory()[1] - before) / 2**20
    finally:
        tracemalloc.stop()


class TestDeepThinStepPeak:
    """The paper's model at batch 16 in float32.  Before backward released
    the graph as it walked it, these steps peaked at 6.44 (split) and 7.03
    (unsplit) MiB; with release but with graph links that pinned every op
    input, at 4.79 and 4.72 MiB.  Now that a node keeps only what its
    backward reads, they peak at 3.47 and 3.35 MiB."""

    def test_split_step_peak(self, deepthin_batch):
        xb, yb = deepthin_batch
        hp = paper_scenario().scheme
        with nn.default_dtype(np.float32):
            split = split_model(build_model("deepthin"), paper_scenario().cut_layer)
            client_opt, server_opt = (
                nn.SGD(half.parameters(), lr=hp.lr)
                for half in (split.client, split.server)
            )
            loss_fn = nn.CrossEntropyLoss()
            peak = _traced_step_peak(
                lambda: split_step_math(split, client_opt, server_opt, xb, yb, loss_fn, None)
            )
        assert peak <= 3.8, peak  # 3.47 measured

    def test_unsplit_step_peak(self, deepthin_batch):
        xb, yb = deepthin_batch
        hp = paper_scenario().scheme
        with nn.default_dtype(np.float32):
            model = build_model("deepthin")
            opt = nn.SGD(model.parameters(), lr=hp.lr)
            loss_fn = nn.CrossEntropyLoss()

            def step() -> None:
                opt.zero_grad()
                loss_fn(model(Tensor(xb)), yb).backward()
                opt.step()

            peak = _traced_step_peak(step)
        assert peak <= 3.7, peak  # 3.35 measured


class TestClientGraphLifetimes:
    """What a DeepThin client half holds across the server's turn: each node
    keeps only the arrays its backward reads, so the conv output feeding
    BatchNorm, the BatchNorm output feeding ReLU and the pooled output
    feeding the next conv die with the forward that consumed them."""

    #: sha256 of the client parameter gradients below, as computed when the
    #: graph still pinned every activation until backward reached it
    CLIENT_GRADS_SHA256 = (
        "3457d26cd2cd6b39fc0a3f99dc1cbadf499033fffc12ada0ca00845bf65ca54b"
    )

    def test_consumed_activations_die_before_the_server_step(
        self, deepthin_batch, monkeypatch
    ):
        xb, yb = deepthin_batch
        with nn.default_dtype(np.float32):
            split = split_model(build_model("deepthin"), paper_scenario().cut_layer)
            layers = split.client.layers
            assert [type(layers[i]).__name__ for i in (0, 1, 3)] == [
                "Conv2d", "BatchNorm2d", "MaxPool2d"
            ]
            outputs: dict[int, weakref.ref] = {}
            for index in (0, 1, 3):
                def probe(x, forward=layers[index].forward, index=index):
                    out = forward(x)
                    outputs[index] = weakref.ref(out.data)
                    return out

                monkeypatch.setattr(layers[index], "forward", probe)
            smashed = split.client.forward_to_smashed(xb)
            assert sorted(outputs) == [0, 1, 3]
            alive = [index for index, ref in outputs.items() if ref() is not None]
            assert alive == []

            _, smashed_grad, _ = split.server.forward_backward(
                smashed, yb, nn.CrossEntropyLoss()
            )
            split.client.backward_from_gradient(smashed_grad)
        grads = b"".join(p.grad.tobytes() for p in split.client.parameters())
        assert hashlib.sha256(grads).hexdigest() == self.CLIENT_GRADS_SHA256
