#!/usr/bin/env python3
"""Cut-layer selection study (the paper's §IV future-work item).

Profiles the DeepThin CNN, tabulates every candidate cut's client
compute / smashed payload / client-model size trade-off, then prices SL's
and GSFL's round at every cut with a dry round of each scheme and reports
each scheme's latency-minimizing cut.

Takes a few seconds — the rounds are priced, not trained.

Usage::

    python examples/cut_layer_study.py
"""

from __future__ import annotations

from repro.experiments import best_cut, paper_scenario


def main() -> None:
    scenario = paper_scenario(with_wireless=True)
    built = scenario.build()
    profile = built.profile

    print("=== model profile ===")
    print(profile.summary())
    print()

    print("=== per-cut cost structure (per sample / per relay) ===")
    header = (
        f"{'cut':>4} {'client kFLOP':>13} {'server kFLOP':>13} "
        f"{'smashed B':>10} {'client model B':>15}"
    )
    print(header)
    for cut in range(1, profile.num_layers):
        print(
            f"{cut:>4} {profile.client_forward_flops(cut) / 1e3:>13.1f} "
            f"{profile.server_forward_flops(cut) / 1e3:>13.1f} "
            f"{profile.smashed_bytes(cut, 1):>10} {profile.client_model_bytes(cut):>15}"
        )
    print()

    sweeps = {name: best_cut(name, built) for name in ("SL", "GSFL")}
    print("=== round latency per cut (a dry round of each scheme) ===")
    print(f"{'cut':>4} {'SL (ms)':>10} {'GSFL (ms)':>10}")
    for (cut, sl), (_, gsfl) in zip(sweeps["SL"][1], sweeps["GSFL"][1]):
        print(f"{cut:>4} {sl * 1e3:>10.2f} {gsfl * 1e3:>10.2f}")
    print()
    for name, (best, _) in sweeps.items():
        print(f"latency-minimizing cut for {name}: {best} "
              f"(paper scenario pins cut {scenario.resolved_cut_layer()})")
    print()
    print("Reading the table: each latency is the round a trained run would "
          "price first — every relay chain's split steps, relays and model "
          "transfers on the shared medium, then GSFL's aggregation.  Cuts "
          "right after a pooling stage (4, 8) are the local minima: pooling "
          "shrinks the smashed payload 4x.  The shallow pooled cut wins for "
          "both schemes on these slow devices, since client compute "
          "dominates the round; GSFL runs its groups' chains in parallel, "
          "so the deeper cut costs it far less than it costs SL's one "
          "serial chain.")

if __name__ == "__main__":
    main()
