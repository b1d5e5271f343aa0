"""Abl-4 (extension) — smashed-data quantization.

Split learning's per-batch activation exchange dominates GSFL/SL
traffic; quantizing it to k bits cuts the payload 32/k-fold.  This bench
runs GSFL at float32 / 8-bit / 4-bit and reports round latency and
accuracy after a fixed budget.

Asserts: payload and round latency drop monotonically with bit width,
and 8-bit training stays within a modest accuracy gap of float32.
"""

from __future__ import annotations

from dataclasses import replace

from benchmarks.conftest import run_once
from repro.experiments import fast_scenario, make_scheme


def test_ablation_quantization(benchmark):
    rounds = 6

    def experiment():
        results = {}
        for bits in (32, 8, 4):
            transport = "float32" if bits == 32 else f"intk:{bits}"
            scenario = fast_scenario(with_wireless=True)
            scenario.wireless = replace(scenario.wireless, deterministic_rates=True)
            scenario.scheme = replace(scenario.scheme, transport=transport)
            built = scenario.build()
            scheme = make_scheme("GSFL", built)
            history = scheme.run(rounds)
            uplinks = scheme.recorder.filter(phases=["uplink_smashed"])
            results[bits] = {
                "latency_s": history.total_latency_s,
                "accuracy": history.final_accuracy,
                "payload_bytes": uplinks[0].nbytes,
            }
        return results

    results = run_once(benchmark, experiment)

    print()
    print("Abl-4: smashed-data quantization (GSFL, 6 rounds)")
    print(f"{'bits':>5} {'payload (B)':>12} {'latency (s)':>12} {'accuracy':>9}")
    for bits in (32, 8, 4):
        r = results[bits]
        print(f"{bits:>5} {r['payload_bytes']:>12} {r['latency_s']:>12.3f} "
              f"{r['accuracy']:>9.3f}")

    assert results[8]["payload_bytes"] < results[32]["payload_bytes"] / 3
    assert results[4]["payload_bytes"] < results[8]["payload_bytes"]
    assert results[8]["latency_s"] < results[32]["latency_s"]
    assert results[4]["latency_s"] < results[8]["latency_s"]
    # 8-bit quantization must not destroy learning.
    assert results[8]["accuracy"] >= results[32]["accuracy"] - 0.2
    benchmark.extra_info["results"] = {
        str(k): {kk: round(vv, 4) for kk, vv in v.items()} for k, v in results.items()
    }
