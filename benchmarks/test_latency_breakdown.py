"""Latency decomposition — per-phase breakdown of one training round.

Prices the round dry (:meth:`SplitFederatedScheme.dry_round`: the trained
round's stages and trace, nothing trained).  Audits the simulator: for
SL the round duration must equal the sum of its (serial) trace events;
for GSFL the round is gated by the slowest group's track plus the
aggregation stage.  Prints the per-phase time/byte budget for both
schemes.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_once
from repro.experiments import paper_scenario, make_scheme


def test_latency_breakdown(benchmark):
    built = paper_scenario(with_wireless=True, train_per_class=5).build()

    def experiment():
        out = {}
        for name in ("SL", "GSFL"):
            scheme = make_scheme(name, built)
            out[name] = {
                "round_s": scheme.dry_round(),
                "phases_s": scheme.recorder.total_time_by_phase(),
                "phases_b": scheme.recorder.total_bytes_by_phase(),
                "events": list(scheme.recorder.events),
            }
        return out

    result = run_once(benchmark, experiment)

    print()
    for name in ("SL", "GSFL"):
        data = result[name]
        print(f"--- {name}: one round = {data['round_s']:.3f} s ---")
        print(f"{'phase':>20} {'time (s)':>10} {'bytes':>12}")
        for phase, seconds in sorted(data["phases_s"].items(), key=lambda kv: -kv[1]):
            nbytes = data["phases_b"].get(phase, 0)
            print(f"{phase:>20} {seconds:>10.3f} {nbytes:>12}")
        print()

    # --- audit: SL's serial trace must tile the round exactly -----------
    sl = result["SL"]
    serial_total = sum(sl["phases_s"].values())
    assert serial_total == pytest.approx(sl["round_s"], rel=1e-9)

    # --- audit: GSFL's round equals its longest critical path -----------
    gsfl = result["GSFL"]
    span_start = min(e.start for e in gsfl["events"])
    span_end = max(e.end for e in gsfl["events"])
    assert span_end - span_start == pytest.approx(gsfl["round_s"], rel=1e-9)
    # Parallelism: summed busy time strictly exceeds the wall-clock round.
    assert sum(gsfl["phases_s"].values()) > gsfl["round_s"] * 1.5

    # --- shape: both schemes move identical smashed bytes per round -----
    assert gsfl["phases_b"]["uplink_smashed"] == sl["phases_b"]["uplink_smashed"]
    benchmark.extra_info["sl_round_s"] = round(sl["round_s"], 3)
    benchmark.extra_info["gsfl_round_s"] = round(gsfl["round_s"], 3)
