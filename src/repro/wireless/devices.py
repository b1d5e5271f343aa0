"""Compute capability model for clients and the edge server.

The paper's premise is *resource-limited* clients against an edge server
"featuring abundant computation and storage resources".  We model
effective throughput in FLOP/s; computation latency for a workload is
``flops / flops_per_second``.  Client heterogeneity is drawn from a
log-normal spread around a nominal mobile-SoC figure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import new_rng
from repro.utils.validation import check_non_negative, check_non_negative_finite, check_positive

__all__ = [
    "DeviceProfile",
    "DeviceFleet",
    "client_speeds",
    "EDGE_SERVER_FLOPS",
    "MOBILE_DEVICE_FLOPS",
]

#: nominal effective throughputs (FLOP/s); edge GPU (~1 TFLOPS effective)
#: vs IoT/wearable-class client (~250 MFLOPS float) — the paper's
#: "resource-limited" mobile devices
EDGE_SERVER_FLOPS = 1.0e12
MOBILE_DEVICE_FLOPS = 2.5e8


@dataclass(frozen=True)
class DeviceProfile:
    """One device's compute capability."""

    name: str
    flops_per_second: float
    storage_bytes: int = 8 * 1024**3

    def __post_init__(self) -> None:
        check_positive("flops_per_second", self.flops_per_second)
        check_non_negative("storage_bytes", self.storage_bytes)


def client_speeds(
    num_clients: int,
    client_flops: float,
    heterogeneity: float,
    seed: int | np.random.Generator | None,
    device_classes: "tuple[tuple[str, float], ...] | None" = None,
) -> list[tuple[str, float]]:
    """Every client's ``(name, FLOP/s)``, in client order.

    A client's base speed is ``client_flops``, or its named tier of
    ``device_classes`` — ``(("phone", 1e8), ("laptop", 6e8), ...)``,
    assigned round-robin (client ``i`` gets tier ``i % len(classes)``).  A
    log-normal factor of sigma ``heterogeneity``, drawn from ``seed``,
    multiplies on top, so within-tier spread and between-tier structure
    compose.  Raises ``ValueError`` naming ``heterogeneity`` when a
    factor under- or overflows a client's speed.
    """
    check_positive("num_clients", num_clients)
    check_positive("client_flops", client_flops)
    check_non_negative_finite("heterogeneity", heterogeneity)
    if heterogeneity > 0:
        factors = new_rng(seed).lognormal(mean=0.0, sigma=heterogeneity, size=num_clients)
    else:
        factors = np.ones(num_clients)
    if device_classes:
        tiers = [(str(name), float(flops)) for name, flops in device_classes]
        for name, flops in tiers:
            check_positive(f"device_classes[{name!r}]", flops)
        named = [
            (f"{tiers[i % len(tiers)][0]}-{i}", tiers[i % len(tiers)][1])
            for i in range(num_clients)
        ]
    else:
        named = [(f"client-{i}", client_flops) for i in range(num_clients)]
    speeds = [(name, flops * float(factor)) for (name, flops), factor in zip(named, factors)]
    for i, (_, speed) in enumerate(speeds):
        if not (np.isfinite(speed) and speed > 0):
            raise ValueError(
                f"heterogeneity {heterogeneity!r} gives client {i} a speed of "
                f"{speed} FLOP/s; it must leave every client a finite, positive speed"
            )
    return speeds


class DeviceFleet:
    """The edge server plus a heterogeneous set of client devices, at the
    speeds :func:`client_speeds` gives them.

    ``heterogeneity`` is the log-normal sigma of the client FLOP/s spread
    (0 = identical clients, the paper's implicit setting);
    ``device_classes`` replaces the uniform ``client_flops`` base with
    named compute tiers.
    """

    def __init__(
        self,
        num_clients: int,
        client_flops: float = MOBILE_DEVICE_FLOPS,
        server_flops: float = EDGE_SERVER_FLOPS,
        heterogeneity: float = 0.0,
        seed: int | np.random.Generator | None = None,
        device_classes: "tuple[tuple[str, float], ...] | None" = None,
    ) -> None:
        check_positive("server_flops", server_flops)
        speeds = client_speeds(num_clients, client_flops, heterogeneity, seed, device_classes)
        self.server = DeviceProfile(
            "edge-server", server_flops, storage_bytes=512 * 1024**3
        )
        self.device_classes = tuple(device_classes) if device_classes else None
        self.clients = [DeviceProfile(name, speed) for name, speed in speeds]

    def client(self, index: int) -> DeviceProfile:
        return self.clients[index]

    def client_flops_array(self) -> np.ndarray:
        """FLOP/s of every client (used by compute-balanced grouping)."""
        return np.array([c.flops_per_second for c in self.clients])
