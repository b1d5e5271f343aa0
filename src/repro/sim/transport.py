"""Pluggable transport codecs: payload encoding as a studied axis.

The paper fixes the wire format at float32; this module makes it a
policy.  A :class:`TransportCodec` owns three things the rest of the
stack threads through:

* **wire size** — :meth:`~TransportCodec.wire_bytes` maps a scalar count
  to the bytes that actually hit the wire, replacing the raw
  ``4 * scalars`` fed into ``TransmitLeg.nbits`` for smashed-data,
  gradient, and model legs;
* **codec compute** — :meth:`~TransportCodec.encode_flops` /
  :meth:`~TransportCodec.decode_flops` price the transform on the owning
  device (the latency model's encode and decode activities);
* **wire semantics** — :meth:`~TransportCodec.apply` round-trips a
  tensor so the receiver trains on exactly what the codec preserved
  (:meth:`~TransportCodec.apply_state` does the same for a state dict).

``float32`` is the identity codec and the default: it declares itself
lossless, so its transform hands every payload back untouched, the
latency model emits no encode/decode activities for it, and no extra
fading is drawn — runs are bitwise identical to a codec-unaware build.

Codecs are named so the CLI can select them: ``float32``, ``int8``,
``intk:K`` (per-tensor uniform affine quantization to ``K`` bits), and
``topk:F`` (magnitude-sparsified deltas keeping fraction ``F``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.serialize import WIRE_BYTES_PER_SCALAR

__all__ = [
    "TransportCodec",
    "Float32Codec",
    "IntKCodec",
    "TopKCodec",
    "parse_transport",
    "TRANSPORT_CODECS",
]

#: wire cost of one kept top-k entry: float32 value + uint32 flat index
TOPK_BYTES_PER_ENTRY = 8


class TransportCodec:
    """Interface every transport codec implements."""

    #: canonical spec string (round-trips through :func:`parse_transport`)
    name: str = ""

    @property
    def lossy(self) -> bool:
        """False only for the identity codec — the bitwise-parity gate."""
        return True

    def wire_bytes(self, num_scalars: int) -> int:
        """Bytes on the wire for a payload of ``num_scalars`` floats."""
        raise NotImplementedError

    def encode_flops(self, num_scalars: int) -> float:
        """FLOPs the sender spends encoding ``num_scalars`` floats."""
        raise NotImplementedError

    def decode_flops(self, num_scalars: int) -> float:
        """FLOPs the receiver spends decoding back to floats."""
        raise NotImplementedError

    def apply(self, x: np.ndarray) -> np.ndarray:
        """What the receiver sees: ``decode(encode(x))``, input dtype kept."""
        raise NotImplementedError

    def apply_state(self, state: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Round-trip every float tensor of a model state through the wire."""
        if not self.lossy:
            return state
        out = {}
        for key, value in state.items():
            arr = np.asarray(value)
            if arr.size and np.issubdtype(arr.dtype, np.floating):
                arr = self.apply(arr)
            out[key] = arr
        return out


@dataclass(frozen=True)
class Float32Codec(TransportCodec):
    """Identity codec: raw float32 scalars, zero codec compute."""

    name: str = "float32"

    @property
    def lossy(self) -> bool:
        return False

    def wire_bytes(self, num_scalars: int) -> int:
        return num_scalars * WIRE_BYTES_PER_SCALAR

    def encode_flops(self, num_scalars: int) -> float:
        return 0.0

    def decode_flops(self, num_scalars: int) -> float:
        return 0.0

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x)


@dataclass(frozen=True)
class IntKCodec(TransportCodec):
    """Uniform affine quantization to ``num_bits`` (``int8`` = 8 bits).

    Per tensor, with scale and zero point from the observed min/max::

        q   = clip(round(x / scale) + zero_point, 0, 2^k - 1)
        x'  = (q - zero_point) * scale

    The wire carries the packed ``k``-bit codes plus the two parameters.
    """

    num_bits: int = 8

    #: wire overhead of the two per-tensor parameters (scale, zero_point),
    #: 8 bytes each
    PARAMS_BYTES = 16

    def __post_init__(self) -> None:
        if not 1 <= self.num_bits <= 16:
            raise ValueError(
                f"intk num_bits must be in [1, 16], got {self.num_bits}"
            )

    @property
    def name(self) -> str:  # type: ignore[override]
        return "int8" if self.num_bits == 8 else f"intk:{self.num_bits}"

    def wire_bytes(self, num_scalars: int) -> int:
        return (num_scalars * self.num_bits + 7) // 8 + self.PARAMS_BYTES

    def encode_flops(self, num_scalars: int) -> float:
        # min/max scan (2) + subtract, divide, round, clip (4) per scalar
        return 6.0 * num_scalars

    def decode_flops(self, num_scalars: int) -> float:
        # subtract zero-point + multiply by scale per scalar
        return 2.0 * num_scalars

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Quantize and dequantize in float64; the result keeps ``x``'s dtype."""
        x = np.asarray(x)
        if x.size == 0:
            return x
        wide = np.asarray(x, dtype=np.float64)
        if not np.isfinite(wide).all():
            raise ValueError(
                "intk codec: input contains non-finite values (NaN/inf); "
                "refusing to emit undefined wire codes"
            )
        levels = (1 << self.num_bits) - 1
        lo, hi = float(wide.min()), float(wide.max())
        scale = (hi - lo) / levels
        if scale == 0.0:
            # Constant tensor, or a subnormal span whose step underflows:
            # the receiver rebuilds the minimum everywhere.
            return np.full(x.shape, lo).astype(x.dtype, copy=False)
        zero_point = int(np.round(-lo / scale))
        codes = np.clip(np.round(wide / scale) + zero_point, 0, levels).astype(np.uint16)
        return ((codes.astype(np.float64) - zero_point) * scale).astype(x.dtype, copy=False)


@dataclass(frozen=True)
class TopKCodec(TransportCodec):
    """Magnitude sparsification: keep the top ``fraction`` of entries.

    Each survivor ships as (float32 value, uint32 flat index); everything
    else is zeroed at the receiver.  Deterministic: ties break by flat
    index via a stable sort, so replays are exact.
    """

    fraction: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(
                f"topk fraction must be in (0, 1], got {self.fraction}"
            )

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"topk:{self.fraction:g}"

    def kept(self, num_scalars: int) -> int:
        if num_scalars == 0:
            return 0
        return max(1, int(np.ceil(self.fraction * num_scalars)))

    def wire_bytes(self, num_scalars: int) -> int:
        return self.kept(num_scalars) * TOPK_BYTES_PER_ENTRY

    def encode_flops(self, num_scalars: int) -> float:
        # |x| pass plus a sort-based selection
        if num_scalars == 0:
            return 0.0
        return num_scalars * (1.0 + np.log2(max(2, num_scalars)))

    def decode_flops(self, num_scalars: int) -> float:
        # scatter of the kept entries into a zeroed buffer
        return float(self.kept(num_scalars))

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.size == 0:
            return x
        if not np.isfinite(x).all():
            raise ValueError(
                "topk codec: input contains non-finite values (NaN/inf)"
            )
        k = self.kept(x.size)
        if k >= x.size:
            return x
        flat = x.reshape(-1)
        order = np.argsort(-np.abs(flat), kind="stable")
        out = np.zeros_like(flat)
        keep = order[:k]
        out[keep] = flat[keep]
        return out.reshape(x.shape)


def parse_transport(spec: str | TransportCodec | None) -> TransportCodec:
    """Resolve a transport spec string to a codec instance.

    Accepted specs: ``float32``, ``int8``, ``intk:K`` with K in [1, 16],
    ``topk:F`` with F in (0, 1].  Raises :class:`ValueError` on anything
    else (the CLI maps that to exit code 2).
    """
    if spec is None:
        return Float32Codec()
    if isinstance(spec, TransportCodec):
        return spec
    text = str(spec).strip().lower()
    if text in ("float32", "fp32", "none", ""):
        return Float32Codec()
    if text == "int8":
        return IntKCodec(8)
    if text.startswith("intk:"):
        arg = text.split(":", 1)[1]
        try:
            bits = int(arg)
        except ValueError:
            raise ValueError(f"invalid intk bit width {arg!r} in transport {spec!r}")
        return IntKCodec(bits)
    if text.startswith("topk:"):
        arg = text.split(":", 1)[1]
        try:
            fraction = float(arg)
        except ValueError:
            raise ValueError(f"invalid topk fraction {arg!r} in transport {spec!r}")
        return TopKCodec(fraction)
    raise ValueError(
        f"unknown transport {spec!r} (expected float32, int8, intk:K, or topk:F)"
    )


#: named codec factories (the CLI/help surface)
TRANSPORT_CODECS = {
    "float32": Float32Codec,
    "int8": lambda: IntKCodec(8),
    "intk:K": IntKCodec,
    "topk:F": TopKCodec,
}
