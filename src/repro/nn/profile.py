"""Static model profiling: per-layer shapes, FLOPs, and payload sizes.

The wireless simulator never executes numpy to price a transmission or a
computation — it consults a :class:`ModelProfile` built once per model.
This keeps the discrete-event simulation decoupled from the training loop
and lets latency-only experiments (e.g. cut-layer sweeps over a large
model) run without training at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.layers import Layer
from repro.nn.module import Sequential
from repro.nn.serialize import WIRE_BYTES_PER_SCALAR

__all__ = ["LayerProfile", "ModelProfile", "profile_model"]

#: backward pass costs roughly twice the forward FLOPs (standard estimate:
#: grad wrt inputs + grad wrt weights each cost about one forward)
BACKWARD_FLOP_FACTOR = 2.0


@dataclass(frozen=True)
class LayerProfile:
    """Static facts about one layer in a profiled model."""

    index: int
    name: str
    input_shape: tuple[int, ...]
    output_shape: tuple[int, ...]
    forward_flops: int
    num_params: int

    @property
    def backward_flops(self) -> int:
        return int(BACKWARD_FLOP_FACTOR * self.forward_flops)


@dataclass
class ModelProfile:
    """Whole-model profile with split-point queries.

    All per-sample quantities; multiply by batch size at the call site.
    """

    input_shape: tuple[int, ...]
    layers: list[LayerProfile] = field(default_factory=list)

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def total_forward_flops(self) -> int:
        return sum(l.forward_flops for l in self.layers)

    @property
    def total_params(self) -> int:
        return sum(l.num_params for l in self.layers)

    @property
    def total_param_bytes(self) -> int:
        return self.total_params * WIRE_BYTES_PER_SCALAR

    def client_forward_flops(self, cut_layer: int) -> int:
        """Per-sample forward FLOPs of layers [0, cut_layer)."""
        self._check_cut(cut_layer)
        return sum(l.forward_flops for l in self.layers[:cut_layer])

    def server_forward_flops(self, cut_layer: int) -> int:
        """Per-sample forward FLOPs of layers [cut_layer, L)."""
        self._check_cut(cut_layer)
        return sum(l.forward_flops for l in self.layers[cut_layer:])

    def client_backward_flops(self, cut_layer: int) -> int:
        self._check_cut(cut_layer)
        return sum(l.backward_flops for l in self.layers[:cut_layer])

    def server_backward_flops(self, cut_layer: int) -> int:
        self._check_cut(cut_layer)
        return sum(l.backward_flops for l in self.layers[cut_layer:])

    def client_params(self, cut_layer: int) -> int:
        self._check_cut(cut_layer)
        return sum(l.num_params for l in self.layers[:cut_layer])

    def server_params(self, cut_layer: int) -> int:
        self._check_cut(cut_layer)
        return sum(l.num_params for l in self.layers[cut_layer:])

    def client_model_bytes(self, cut_layer: int) -> int:
        """Wire size of the client-side model (relayed between clients)."""
        return self.client_params(cut_layer) * WIRE_BYTES_PER_SCALAR

    def server_model_bytes(self, cut_layer: int) -> int:
        return self.server_params(cut_layer) * WIRE_BYTES_PER_SCALAR

    def smashed_shape(self, cut_layer: int) -> tuple[int, ...]:
        """Per-sample activation shape crossing the cut."""
        self._check_cut(cut_layer)
        return self.layers[cut_layer - 1].output_shape

    def smashed_bytes(self, cut_layer: int, batch_size: int) -> int:
        """Payload of one batch of smashed data (same size for gradients)."""
        per_sample = int(np.prod(self.smashed_shape(cut_layer)))
        return per_sample * batch_size * WIRE_BYTES_PER_SCALAR

    def _check_cut(self, cut_layer: int) -> None:
        if not 1 <= cut_layer <= self.num_layers - 1:
            raise ValueError(
                f"cut_layer must be in [1, {self.num_layers - 1}], got {cut_layer}"
            )

    def summary(self) -> str:
        """Human-readable per-layer table."""
        lines = [
            f"{'idx':>3}  {'layer':<34} {'output shape':<18} {'params':>10} {'fwd FLOPs':>12}"
        ]
        for l in self.layers:
            lines.append(
                f"{l.index:>3}  {l.name:<34} {str(l.output_shape):<18} "
                f"{l.num_params:>10} {l.forward_flops:>12}"
            )
        lines.append(
            f"total params={self.total_params}  total fwd FLOPs={self.total_forward_flops}"
        )
        return "\n".join(lines)


def profile_model(model: Sequential, input_shape: tuple[int, ...]) -> ModelProfile:
    """Profile a Sequential of :class:`~repro.nn.layers.Layer` modules.

    ``input_shape`` is per-sample (no batch dimension), e.g. ``(3, 32, 32)``.
    """
    profile = ModelProfile(input_shape=tuple(input_shape))
    shape = tuple(input_shape)
    for index, layer in enumerate(model):
        if not isinstance(layer, Layer):
            raise TypeError(
                f"layer {index} ({type(layer).__name__}) does not support profiling; "
                "all layers must subclass repro.nn.layers.Layer"
            )
        out_shape = layer.output_shape(shape)
        profile.layers.append(
            LayerProfile(
                index=index,
                name=repr(layer),
                input_shape=shape,
                output_shape=out_shape,
                forward_flops=layer.flops(shape),
                num_params=layer.num_parameters(),
            )
        )
        shape = out_shape
    return profile
