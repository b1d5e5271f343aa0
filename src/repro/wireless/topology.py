"""Network topology: one access point and N uniformly dropped clients.

The paper's scenario (§II): "a generic wireless network scenario,
comprising one access point (AP) and N clients, i.e., mobile devices",
with the edge server co-located at the AP.  Clients are dropped uniformly
at random in an annulus around the AP (minimum distance keeps path loss
finite).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import new_rng
from repro.utils.validation import check_positive

__all__ = ["Position", "NetworkTopology"]


@dataclass(frozen=True)
class Position:
    """2-D position in metres."""

    x: float
    y: float

    def distance_to(self, other: "Position") -> float:
        return float(np.hypot(self.x - other.x, self.y - other.y))


class NetworkTopology:
    """AP at the origin plus ``num_clients`` uniformly dropped clients.

    Uniform *area* density: radii are drawn with the square-root transform
    so client density is constant across the cell.
    """

    def __init__(
        self,
        num_clients: int,
        cell_radius_m: float = 250.0,
        min_distance_m: float = 10.0,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        check_positive("num_clients", num_clients)
        check_positive("cell_radius_m", cell_radius_m)
        check_positive("min_distance_m", min_distance_m)
        if min_distance_m >= cell_radius_m:
            raise ValueError(
                f"min_distance_m ({min_distance_m}) must be < cell_radius_m ({cell_radius_m})"
            )
        rng = new_rng(seed)
        self.num_clients = int(num_clients)
        self.cell_radius_m = cell_radius_m
        self.min_distance_m = min_distance_m
        self.ap = Position(0.0, 0.0)

        u = rng.random(self.num_clients)
        radii = np.sqrt(
            u * (cell_radius_m**2 - min_distance_m**2) + min_distance_m**2
        )
        angles = rng.random(self.num_clients) * 2 * np.pi
        self.clients = [
            Position(float(r * np.cos(a)), float(r * np.sin(a)))
            for r, a in zip(radii, angles)
        ]

    def distance(self, client_index: int) -> float:
        """Client-to-AP distance in metres."""
        return self.clients[client_index].distance_to(self.ap)

    def distances(self) -> np.ndarray:
        """All client-to-AP distances."""
        return np.array([self.distance(i) for i in range(self.num_clients)])
