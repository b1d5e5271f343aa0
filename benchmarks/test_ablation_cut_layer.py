"""Abl-1 — cut-layer selection (paper §IV future work).

Sweeps every valid cut of the DeepThin CNN and prices GSFL's round at
each with a dry round of the scheme itself: every group's relay chain on
the shared medium, then the aggregation, nothing trained.  Asserts the
structural facts the sweep must show:

* cuts immediately after pooling stages are local latency minima
  (pooling shrinks the smashed payload 4x);
* client compute grows monotonically with cut depth while the
  client+server total stays constant.
"""

from __future__ import annotations

from repro.experiments import best_cut, paper_scenario


def test_ablation_cut_layer(benchmark):
    built = paper_scenario(with_wireless=True).build()

    def sweep():
        return best_cut("GSFL", built)

    best, sweep_rows = benchmark(sweep)
    latency = dict(sweep_rows)

    print()
    print("Abl-1: GSFL round latency per cut layer (dry round)")
    print(f"{'cut':>4} {'latency (ms)':>13}")
    for cut, t in sweep_rows:
        print(f"{cut:>4} {t * 1e3:>13.2f}{'   <- best' if cut == best else ''}")

    # DeepThin pooling stages sit at layers 3 and 7 (0-indexed), so cuts 4
    # and 8 carry 4x smaller smashed payloads than the cut just before.
    assert latency[4] < latency[3]
    assert latency[8] < latency[7]
    # Best overall must be one of the pooled cuts.
    assert best in (4, 8)

    profile = built.profile
    fwd = [profile.client_forward_flops(cut) for cut in latency]
    assert fwd == sorted(fwd), "client compute must grow with cut depth"
    totals = {profile.client_forward_flops(c) + profile.server_forward_flops(c) for c in latency}
    assert len(totals) == 1, "cut must partition total compute exactly"
