"""``repro.wireless`` — wireless network substrate.

Topology (AP + uniformly dropped clients), log-distance path loss with
shadowing and Rayleigh fading, Shannon-rate links, heterogeneous device
compute model, bandwidth allocation policies, and the
:class:`~repro.wireless.system.WirelessSystem` facade the training schemes
consume.
"""

from repro.wireless.bandwidth import (
    BandwidthAllocator,
    EqualAllocation,
    InverseRateAllocation,
    ProportionalRateAllocation,
    make_allocator,
)
from repro.wireless.channel import ChannelConfig, WirelessChannel, db_to_linear
from repro.wireless.devices import (
    EDGE_SERVER_FLOPS,
    MOBILE_DEVICE_FLOPS,
    DeviceFleet,
    DeviceProfile,
)
from repro.wireless.energy import EnergyModel, EnergyReport
from repro.wireless.system import WirelessConfig, WirelessSystem
from repro.wireless.topology import NetworkTopology, Position

__all__ = [
    "Position",
    "NetworkTopology",
    "ChannelConfig",
    "WirelessChannel",
    "db_to_linear",
    "DeviceProfile",
    "DeviceFleet",
    "EDGE_SERVER_FLOPS",
    "MOBILE_DEVICE_FLOPS",
    "BandwidthAllocator",
    "EqualAllocation",
    "ProportionalRateAllocation",
    "InverseRateAllocation",
    "make_allocator",
    "WirelessConfig",
    "WirelessSystem",
    "EnergyModel",
    "EnergyReport",
]
