#!/usr/bin/env python3
"""Tour of the wireless substrate.

Shows the pieces the training schemes are priced against:

* topology + channel: per-client distance, SNR, achievable rates;
* the bandwidth-narrowing effect GSFL exploits (rate(B/M) > rate(B)/M);
* bandwidth allocation policies over a concurrent transmitter set;
* the processor-sharing shared-link model from the DES substrate.

Pure simulation — runs in seconds.

Usage::

    python examples/wireless_playground.py
"""

from __future__ import annotations


from repro.sim import Environment, FairShareLink
from repro.wireless import WirelessConfig, WirelessSystem, make_allocator


def link_tour(system: WirelessSystem) -> None:
    print("=== per-client links (20 MHz) ===")
    bandwidth = system.config.total_bandwidth_hz
    print(f"{'client':>7} {'dist (m)':>9} {'mean rate (Mbps)':>17}")
    for client in range(8):
        rate = system.channel.mean_uplink_rate_bps(client, bandwidth, num_draws=50)
        print(f"{client:>7} {system.topology.distance(client):>9.1f} {rate / 1e6:>17.1f}")
    print(f"... ({system.config.num_clients} clients total)")
    print()


def narrowband_effect(system: WirelessSystem) -> None:
    print("=== the effect GSFL exploits: spectral efficiency vs bandwidth ===")
    chan = system.channel
    client = 0
    full = 20e6
    print(f"{'share':>10} {'mean rate (Mbps)':>17} {'x of full/M':>12}")
    base = chan.mean_uplink_rate_bps(client, full, num_draws=400)
    for m in (1, 2, 6, 10, 30):
        share = full / m
        rate = chan.mean_uplink_rate_bps(client, share, num_draws=400)
        print(f"B/{m:<8} {rate / 1e6:>17.1f} {rate / (base / m):>12.2f}")
    print("(fixed tx power over a narrower band -> higher SNR/Hz, so a 1/M "
          "share carries more than 1/M of the full-band rate)")
    print()


def allocator_comparison(system: WirelessSystem) -> None:
    print("=== bandwidth allocation policies over 4 concurrent clients ===")
    active = [0, 5, 10, 15]
    for name in ("equal", "proportional_rate", "inverse_rate"):
        alloc = make_allocator(name, 20e6)
        shares = alloc.shares(active, system.channel)
        pretty = ", ".join(f"c{c}: {b / 1e6:.1f} MHz" for c, b in shares.items())
        print(f"{name:>18}: {pretty}")
    print()


def fair_share_demo() -> None:
    print("=== processor-sharing link (DES substrate) ===")
    env = Environment()
    link = FairShareLink(env, capacity_bps=10e6)
    finished = {}

    def sender(name: str, bits: float, start: float):
        yield env.timeout(start)
        yield link.transfer(bits)
        finished[name] = env.now

    env.process(sender("long flow (40 Mbit)", 40e6, 0.0))
    env.process(sender("short flow (5 Mbit, arrives at t=1s)", 5e6, 1.0))
    env.run()
    for name, t in finished.items():
        print(f"{name}: finished at t={t:.2f} s")
    print("(the short flow steals half the link while active, delaying the long one)")


def main() -> None:
    system = WirelessSystem(WirelessConfig(num_clients=30, seed=0))
    link_tour(system)
    narrowband_effect(system)
    allocator_comparison(system)
    fair_share_demo()


if __name__ == "__main__":
    main()
