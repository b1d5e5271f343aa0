"""The pull-request gate over ``benchmarks/e2e/run.py --compare`` fails on
the rows that repeat exactly and on nothing a shared runner's clock moves."""

from __future__ import annotations

import importlib.util
from pathlib import Path

GATE = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e_gate.py"

spec = importlib.util.spec_from_file_location("e2e_gate", GATE)
e2e_gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(e2e_gate)

#: rows as ``compare`` prints them (``{workload:<18} {metric:<22} … verdict``)
TABLE = """\
workload           metric                                parent med [q1, q3]                change med [q1, q3]  verdict
paper-gsfl         setup_s                           0.6264 [0.5726, 0.8257]            0.9969 [0.9686, 1.0529]  worse
paper-gsfl         run_wall_s                        1.1615 [1.0853, 1.2487]            1.0237 [0.9830, 1.1132]  same
paper-gsfl         client_rounds_per_s            25.8297 [24.0285, 27.6440]         12.3056 [11.9590, 13.5185]  worse
paper-gsfl         peak_rss_mb                 106.4414 [106.3809, 106.4805]      119.1074 [119.0869, 119.1758]  {rss}
paper-gsfl         failed_ops_ratio                                   0.0000                             {failed}  {failed_verdict}
paper-gsfl         final_accuracy                             0.127906976744                     0.127906976744  same
paper-gsfl         history_digest                               55efeece9d65                       {digest}  {digest_verdict}
paper-gsfl         counts                                       {{'schemes.ac                       {{'schemes.ac  same
"""


def table(**overrides: str) -> str:
    fields = dict(rss="same", failed="0.0000", failed_verdict="same",
                  digest="55efeece9d65", digest_verdict="same")
    return TABLE.format(**{**fields, **overrides})


def test_worse_host_times_do_not_gate():
    assert e2e_gate.gating_failures(table()) == []


def test_deterministic_rows_gate():
    for overrides, metric in (
        (dict(rss="worse"), "peak_rss_mb"),
        (dict(digest="deadbeef0000", digest_verdict="worse"), "history_digest"),
        (dict(failed="0.2000", failed_verdict="worse"), "failed_ops_ratio"),
    ):
        (failure,) = e2e_gate.gating_failures(table(**overrides))
        assert failure.split()[:2] == ["paper-gsfl", metric]


def test_gate_points_at_the_harness():
    assert e2e_gate.RUN.is_file()
