"""``repro.nn`` — a from-scratch numpy deep-learning framework.

Provides reverse-mode autodiff (:mod:`repro.nn.tensor`), the layers the
reproduction's models are built from (dense, ReLU, conv, max pooling,
batch norm), the classification losses, the SGD optimizer, weight
initialization, model profiling (shapes/FLOPs/payload bytes), flat state vectors,
and the split-model machinery used by split learning.

It exists because the reproduction sandbox has no PyTorch; the public
surface intentionally mirrors familiar ``torch.nn`` idioms.
"""

from repro.nn import functional
from repro.nn.dtype import default_dtype, get_default_dtype, set_default_dtype
from repro.nn.conv import Conv2d, MaxPool2d
from repro.nn.layers import Flatten, Layer, Linear, ReLU
from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import Module, Parameter, Sequential
from repro.nn.norm import BatchNorm1d, BatchNorm2d
from repro.nn.optim import SGD, Optimizer
from repro.nn.profile import LayerProfile, ModelProfile, profile_model
from repro.nn.serialize import WIRE_BYTES_PER_SCALAR, state_num_scalars, unpack_state
from repro.nn.split import ClientHalf, ServerHalf, SmashedBatch, SplitModel, split_model
from repro.nn.tensor import Tensor, concatenate, no_grad, stack, unbroadcast

__all__ = [
    "functional",
    "get_default_dtype",
    "set_default_dtype",
    "default_dtype",
    "Tensor",
    "no_grad",
    "stack",
    "concatenate",
    "unbroadcast",
    "Module",
    "Parameter",
    "Sequential",
    "Layer",
    "Linear",
    "ReLU",
    "Flatten",
    "Conv2d",
    "MaxPool2d",
    "BatchNorm1d",
    "BatchNorm2d",
    "CrossEntropyLoss",
    "Optimizer",
    "SGD",
    "LayerProfile",
    "ModelProfile",
    "profile_model",
    "WIRE_BYTES_PER_SCALAR",
    "state_num_scalars",
    "unpack_state",
    "split_model",
    "SplitModel",
    "ClientHalf",
    "ServerHalf",
    "SmashedBatch",
]
