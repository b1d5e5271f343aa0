#!/usr/bin/env python3
"""Energy: the cost the latency numbers hide.

The same latency traces the schemes already emit are priced in joules
per client (transmit / receive / compute / idle).  GSFL's shorter rounds
also mean less radio-on time per round for each device.

Runs in a few seconds.

Usage::

    python examples/energy_study.py
"""

from __future__ import annotations

from repro.experiments import fast_scenario, make_scheme
from repro.wireless.energy import EnergyModel


def main() -> None:
    print("=== per-client energy, GSFL vs SL (3 rounds) ===")
    energy_model = EnergyModel()
    for name in ("SL", "GSFL"):
        built = fast_scenario(with_wireless=True).build()
        scheme = make_scheme(name, built)
        history = scheme.run(3)
        fleet = energy_model.fleet_energy(
            scheme.recorder, total_span_s=history.total_latency_s
        )
        per_client = energy_model.per_client_energy(
            scheme.recorder, total_span_s=history.total_latency_s
        )
        totals = sorted(report.total_j for report in per_client.values())
        print(f"--- {name} (total latency {history.total_latency_s:.2f} s) ---")
        print(f"fleet energy: tx {fleet.tx_j:.2f} J, rx {fleet.rx_j:.2f} J, "
              f"compute {fleet.compute_j:.2f} J, idle {fleet.idle_j:.2f} J "
              f"=> total {fleet.total_j:.2f} J")
        print(f"per client: {totals[0]:.2f} J to {totals[-1]:.2f} J "
              f"over {len(totals)} clients")
    print()
    print("Compute energy is identical (same training work), but GSFL's "
          "parallel groups finish the round sooner, cutting each client's "
          "idle radio-on drain; at paper scale the idle gap widens with "
          "the serial relay length N.")


if __name__ == "__main__":
    main()
