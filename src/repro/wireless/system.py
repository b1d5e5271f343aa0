"""Facade tying topology, channel, devices and bandwidth policy together.

:class:`WirelessSystem` is what the training schemes talk to: its channel
gives the rates every transmission is priced at, and it prices every
computation (seconds for ``flops`` on a given device).  The schemes
themselves stay pure protocol logic over the discrete-event kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.rng import spawn_rngs
from repro.utils.validation import check_positive
from repro.wireless.bandwidth import BandwidthAllocator, make_allocator
from repro.wireless.channel import ChannelConfig, WirelessChannel
from repro.wireless.devices import DeviceFleet, client_speeds
from repro.wireless.topology import NetworkTopology

__all__ = ["WirelessConfig", "WirelessSystem"]


@dataclass
class WirelessConfig:
    """End-to-end wireless scenario parameters.

    Defaults follow the paper's scale: 30 clients in one small cell with
    an edge server at the AP and 20 MHz of system bandwidth.
    """

    num_clients: int = 30
    total_bandwidth_hz: float = 20e6
    cell_radius_m: float = 120.0
    min_distance_m: float = 10.0
    client_flops: float = 2.5e8
    server_flops: float = 1.0e12
    heterogeneity: float = 0.0
    #: named compute tiers assigned round-robin (None = uniform fleet at
    #: ``client_flops``); see :class:`repro.wireless.devices.DeviceFleet`
    device_classes: "tuple[tuple[str, float], ...] | None" = None
    allocator: str = "equal"
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    deterministic_rates: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive("num_clients", self.num_clients)
        check_positive("total_bandwidth_hz", self.total_bandwidth_hz)
        # What WirelessSystem's parts would reject, with their messages.
        check_positive("cell_radius_m", self.cell_radius_m)
        check_positive("min_distance_m", self.min_distance_m)
        if self.min_distance_m >= self.cell_radius_m:
            raise ValueError(f"min_distance_m ({self.min_distance_m}) must be < "
                             f"cell_radius_m ({self.cell_radius_m})")
        check_positive("server_flops", self.server_flops)
        make_allocator(self.allocator, self.total_bandwidth_hz)
        # The fleet's own draw, from the stream WirelessSystem seeds it with:
        # a spread that breaks a client's speed fails here, before the build.
        client_speeds(self.num_clients, self.client_flops, self.heterogeneity,
                      spawn_rngs(self.seed, 3)[2], self.device_classes)


class WirelessSystem:
    """Runtime wireless scenario: prices transmissions and computations."""

    def __init__(self, config: WirelessConfig | None = None) -> None:
        self.config = config or WirelessConfig()
        cfg = self.config
        topo_rng, chan_rng, fleet_rng = spawn_rngs(cfg.seed, 3)
        self.topology = NetworkTopology(
            cfg.num_clients,
            cell_radius_m=cfg.cell_radius_m,
            min_distance_m=cfg.min_distance_m,
            seed=topo_rng,
        )
        channel_cfg = cfg.channel
        if cfg.deterministic_rates:
            channel_cfg = ChannelConfig(
                **{
                    **channel_cfg.__dict__,
                    "rayleigh_fading": False,
                    "shadowing_std_db": 0.0,
                }
            )
        self.channel = WirelessChannel(
            self.topology.distances(), config=channel_cfg, rng=chan_rng
        )
        self.fleet = DeviceFleet(
            cfg.num_clients,
            client_flops=cfg.client_flops,
            server_flops=cfg.server_flops,
            heterogeneity=cfg.heterogeneity,
            seed=fleet_rng,
            device_classes=cfg.device_classes,
        )
        self.allocator: BandwidthAllocator = make_allocator(
            cfg.allocator, cfg.total_bandwidth_hz
        )
