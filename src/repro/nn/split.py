"""Split-model machinery: cut a network into client-side and server-side
halves and run the split-learning forward/backward handshake.

Terminology follows the paper (§II):

* the **client-side model** is layers ``[0, cut_layer)``;
* the **server-side model** is layers ``[cut_layer, L)``;
* the client's forward output at the cut is the **smashed data**;
* the server returns the **smashed gradient** (dLoss/dSmashed) for the
  client's backward pass.

``ClientHalf.backward_from_gradient`` replays exactly what a real split
deployment does: the smashed gradient that arrived over the air is
injected into the retained client-side graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.module import Module, Sequential
from repro.nn.tensor import Tensor

__all__ = ["split_model", "SplitModel", "ClientHalf", "ServerHalf", "SmashedBatch"]


def split_model(model: Sequential, cut_layer: int) -> "SplitModel":
    """Split ``model`` at ``cut_layer`` into client/server halves.

    ``cut_layer`` counts layers assigned to the client; valid range is
    ``1 <= cut_layer <= len(model) - 1`` so both halves are non-empty.
    The halves *share* the underlying layer objects (and therefore
    parameters) with the original model.
    """
    if not isinstance(model, Sequential):
        raise TypeError(f"split_model requires a Sequential model, got {type(model).__name__}")
    if not 1 <= cut_layer <= len(model) - 1:
        raise ValueError(
            f"cut_layer must be in [1, {len(model) - 1}] for a {len(model)}-layer "
            f"model, got {cut_layer}"
        )
    return SplitModel(
        client=ClientHalf(model[:cut_layer]),
        server=ServerHalf(model[cut_layer:]),
        cut_layer=cut_layer,
    )


@dataclass
class SmashedBatch:
    """Activations crossing the cut layer for one mini-batch.

    ``values`` is detached from the client graph — on the wire only raw
    numbers travel.  ``batch_size`` and per-sample ``shape`` feed the
    payload-size accounting.
    """

    values: np.ndarray

    @property
    def batch_size(self) -> int:
        return self.values.shape[0]

    @property
    def sample_shape(self) -> tuple[int, ...]:
        return self.values.shape[1:]


class ClientHalf(Module):
    """Client-side model half.

    Keeps the autograd graph of its most recent forward so the smashed
    gradient arriving from the server can be backpropagated into the
    client-side parameters.
    """

    def __init__(self, layers: Sequential) -> None:
        super().__init__()
        self.layers = layers
        self._last_output: Tensor | None = None

    def forward(self, x: Tensor) -> Tensor:
        out = self.layers(x)
        self._last_output = out
        return out

    def forward_to_smashed(self, x: Tensor | np.ndarray) -> SmashedBatch:
        """Run the client forward pass and emit detached smashed data."""
        if not isinstance(x, Tensor):
            x = Tensor(x)
        out = self.forward(x)
        return SmashedBatch(values=out.data.copy())

    def backward_from_gradient(self, smashed_grad: np.ndarray) -> None:
        """Inject the server-provided gradient at the cut and backprop.

        Must follow a :meth:`forward_to_smashed` call on the same batch.
        """
        if self._last_output is None:
            raise RuntimeError(
                "backward_from_gradient called before forward_to_smashed; "
                "the split-learning handshake is forward -> upload -> gradient -> backward"
            )
        out = self._last_output
        self._last_output = None
        if smashed_grad.shape != out.shape:
            raise ValueError(
                f"smashed gradient shape {smashed_grad.shape} does not match "
                f"cut-layer activation shape {out.shape}"
            )
        out.backward(smashed_grad)


class ServerHalf(Module):
    """Server-side model half.

    ``forward_backward`` performs the server's whole step for one batch:
    ingest smashed data as a leaf tensor, forward through the server-side
    layers, compute the loss, backprop, and return the gradient at the cut
    (to be transmitted back to the client).
    """

    def __init__(self, layers: Sequential) -> None:
        super().__init__()
        self.layers = layers

    def forward(self, x: Tensor) -> Tensor:
        return self.layers(x)

    def forward_backward(
        self, smashed: SmashedBatch, targets: np.ndarray, loss_fn: object
    ) -> tuple[float, np.ndarray, Tensor]:
        """One server-side training step.

        Returns ``(loss_value, smashed_gradient, logits)``.  Parameter
        gradients are left accumulated on the server-side parameters; the
        caller decides when to step the optimizer.
        """
        cut_input = Tensor(smashed.values, requires_grad=True)
        logits = self.layers(cut_input)
        loss = loss_fn(logits, targets)
        loss.backward()
        assert cut_input.grad is not None  # requires_grad leaf always receives grad
        return float(loss.item()), cut_input.grad.copy(), logits


@dataclass
class SplitModel:
    """A model cut into client/server halves at ``cut_layer``."""

    client: ClientHalf
    server: ServerHalf
    cut_layer: int

    def full_forward(self, x: Tensor | np.ndarray) -> Tensor:
        """Uncut end-to-end forward (for evaluation)."""
        if not isinstance(x, Tensor):
            x = Tensor(x)
        return self.server.forward(self.client.forward(x))

    def train(self, mode: bool = True) -> "SplitModel":
        """Propagate train/eval mode to both halves."""
        self.client.train(mode)
        self.server.train(mode)
        return self

    def eval(self) -> "SplitModel":
        return self.train(False)
