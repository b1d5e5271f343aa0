#!/usr/bin/env python3
"""Quickstart: train GSFL on a small synthetic traffic-sign scenario.

Runs the paper's scheme (group-based split federated learning) on a
down-scaled wireless scenario — 6 clients in 2 groups, 10 sign classes —
and prints the learning curve, the simulated latency axis, and a
per-phase latency breakdown from the trace recorder.

Takes ~15 seconds on a laptop CPU.

Usage::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.experiments import fast_scenario, make_scheme


def main() -> None:
    scenario = fast_scenario(with_wireless=True)
    built = scenario.build()

    print("=== scenario ===")
    print(f"clients: {scenario.num_clients}, groups: {scenario.num_groups}")
    print(f"model: {scenario.model_name}, cut layer: {scenario.resolved_cut_layer()}")
    print(f"dataset: {scenario.dataset.num_classes} classes, "
          f"{sum(len(d) for d in built.client_datasets)} train samples")
    print(f"bandwidth: {built.wireless.total_bandwidth_hz / 1e6:.0f} MHz, "
          f"client compute: {built.wireless.client_flops / 1e6:.0f} MFLOPS")
    print()

    gsfl = make_scheme("GSFL", built)
    history = gsfl.run(num_rounds=10)

    print("=== learning curve ===")
    print(f"{'round':>6} {'latency_s':>10} {'loss':>8} {'accuracy':>9}")
    for p in history.points:
        print(f"{p.round_index:>6} {p.latency_s:>10.2f} {p.train_loss:>8.3f} "
              f"{p.test_accuracy:>9.3f}")
    print()

    print("=== latency breakdown (summed across actors) ===")
    for phase, seconds in sorted(
        gsfl.recorder.total_time_by_phase().items(), key=lambda kv: -kv[1]
    ):
        print(f"{phase:>20}: {seconds:8.3f} s")
    print()
    mb = gsfl.recorder.total_bytes() / 1e6
    print(f"total data moved over the air: {mb:.1f} MB")
    print(f"server-side replicas hosted at the edge: {gsfl.server_side_replicas()} "
          f"(SplitFed would need {len(built.client_datasets)})")
    print()
    print(history.summary())


if __name__ == "__main__":
    main()
