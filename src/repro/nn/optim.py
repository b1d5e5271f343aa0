"""First-order optimizers.

The paper trains both model halves with SGD (§II-B-2: "The update of the
server-side model parameters can be accomplished through methods such as
stochastic gradient descent").  Every scheme, the centralized baseline
included, trains with plain SGD; Adam trains the privacy study's
inversion decoder.

Adam holds per-parameter state keyed by ``id(param)``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.nn.module import Parameter

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer:
    """Base optimizer over an explicit parameter list."""

    def __init__(self, params: Iterable[Parameter], lr: float) -> None:
        self.params: list[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def zero_grad(self) -> None:
        """Clear gradients on all managed parameters."""
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        """Apply one update using the accumulated gradients."""
        raise NotImplementedError


class SGD(Optimizer):
    """Plain stochastic gradient descent: ``p <- p - lr * grad``.

    It keeps no state between steps, so a fresh optimizer per step equals
    a persistent one.
    """

    def __init__(self, params: Iterable[Parameter], lr: float = 0.01) -> None:
        super().__init__(params, lr)

    def step(self) -> None:
        for p in self.params:
            if p.grad is None:
                continue
            p.data = p.data - self.lr * p.grad


class Adam(Optimizer):
    """Adam with bias correction (Kingma & Ba, 2015)."""

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        b1, b2 = betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.betas
        for p in self.params:
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m = self._m.get(id(p))
            v = self._v.get(id(p))
            if m is None:
                m = np.zeros_like(p.data)
                v = np.zeros_like(p.data)
            m = b1 * m + (1 - b1) * grad
            v = b2 * v + (1 - b2) * grad**2
            self._m[id(p)] = m
            self._v[id(p)] = v
            m_hat = m / (1 - b1**self._t)
            v_hat = v / (1 - b2**self._t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
