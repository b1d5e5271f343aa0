"""Convolution / max-pooling functional op tests, including
finite-difference gradient checks through the patch matrix and col2im."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.tensor import Tensor
from tests.conftest import numeric_gradient


def im2col(x, kernel_h, kernel_w, stride, padding):
    """Receptive fields as rows: the transpose of the K-major patch matrix
    that ``conv2d`` hands to BLAS."""
    return F._im2col_t(x, kernel_h, kernel_w, stride, padding).T


class TestIm2Col:
    def test_shapes(self):
        x = np.arange(2 * 3 * 5 * 5, dtype=np.float64).reshape(2, 3, 5, 5)
        cols = im2col(x, 3, 3, stride=1, padding=0)
        assert cols.shape == (2 * 3 * 3, 3 * 3 * 3)

    def test_stride_and_padding_shapes(self):
        x = np.zeros((1, 2, 6, 6))
        cols = im2col(x, 3, 3, stride=2, padding=1)
        out = F.conv_output_size(6, 3, 2, 1)
        assert cols.shape == (out * out, 2 * 9)

    def test_values_match_naive_extraction(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 1, 4, 4))
        cols = im2col(x, 2, 2, stride=1, padding=0)
        # first patch is x[0,0,:2,:2]
        np.testing.assert_allclose(cols[0], x[0, 0, :2, :2].reshape(-1))
        # last patch is x[0,0,2:,2:]
        np.testing.assert_allclose(cols[-1], x[0, 0, 2:, 2:].reshape(-1))

    def test_col2im_is_adjoint_of_im2col(self):
        """<im2col(x), y> == <x, col2im(y)> — the defining adjoint identity."""
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 6, 6))
        cols = im2col(x, 3, 3, stride=2, padding=1)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        back = F.col2im(y, x.shape, 3, 3, stride=2, padding=1)
        rhs = float((x * back).sum())
        assert abs(lhs - rhs) < 1e-9

    def test_conv_output_size_errors_on_degenerate(self):
        with pytest.raises(ValueError):
            F.conv_output_size(2, 5, 1, 0)


class TestConv2dGradients:
    def setup_method(self):
        self.rng = np.random.default_rng(5)

    def _gradcheck(self, stride, padding):
        x_data = self.rng.normal(size=(2, 2, 5, 5))
        w_data = self.rng.normal(size=(3, 2, 3, 3)) * 0.5
        b_data = self.rng.normal(size=(3,))

        x = Tensor(x_data.copy(), requires_grad=True)
        w = Tensor(w_data.copy(), requires_grad=True)
        b = Tensor(b_data.copy(), requires_grad=True)
        F.conv2d(x, w, b, stride=stride, padding=padding).sum().backward()

        dx, dw, db = x_data.copy(), w_data.copy(), b_data.copy()

        def f():
            return float(
                F.conv2d(Tensor(dx), Tensor(dw), Tensor(db), stride=stride, padding=padding)
                .sum()
                .item()
            )

        np.testing.assert_allclose(x.grad, numeric_gradient(f, dx), atol=1e-5)
        np.testing.assert_allclose(w.grad, numeric_gradient(f, dw), atol=1e-5)
        np.testing.assert_allclose(b.grad, numeric_gradient(f, db), atol=1e-5)

    def test_gradients_stride1_nopad(self):
        self._gradcheck(stride=1, padding=0)

    def test_gradients_stride2_pad1(self):
        self._gradcheck(stride=2, padding=1)

    def test_channel_mismatch_raises(self):
        x = Tensor(np.zeros((1, 3, 5, 5)))
        w = Tensor(np.zeros((4, 2, 3, 3)))
        with pytest.raises(ValueError, match="channels"):
            F.conv2d(x, w)

    def test_matches_naive_convolution(self):
        """Cross-correlation against a straightforward loop implementation."""
        rng = np.random.default_rng(9)
        x = rng.normal(size=(1, 2, 4, 4))
        w = rng.normal(size=(3, 2, 2, 2))
        out = F.conv2d(Tensor(x), Tensor(w)).data
        expected = np.zeros((1, 3, 3, 3))
        for co in range(3):
            for i in range(3):
                for j in range(3):
                    expected[0, co, i, j] = (x[0, :, i : i + 2, j : j + 2] * w[co]).sum()
        np.testing.assert_allclose(out, expected, atol=1e-12)


class TestPooling:
    def setup_method(self):
        self.rng = np.random.default_rng(11)

    def test_max_pool_values(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x), 2).data
        np.testing.assert_allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_gradient(self):
        x_data = self.rng.normal(size=(2, 3, 4, 4))
        x = Tensor(x_data.copy(), requires_grad=True)
        F.max_pool2d(x, 2).sum().backward()
        d = x_data.copy()

        def f():
            return float(F.max_pool2d(Tensor(d), 2).sum().item())

        np.testing.assert_allclose(x.grad, numeric_gradient(f, d), atol=1e-6)

    def test_overlapping_stride(self):
        x = Tensor(self.rng.normal(size=(1, 1, 5, 5)), requires_grad=True)
        out = F.max_pool2d(x, 3, stride=1)
        assert out.shape == (1, 1, 3, 3)
        out.sum().backward()
        assert x.grad.shape == (1, 1, 5, 5)
