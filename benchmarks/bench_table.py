"""Render the README's performance table from ``BENCH_e2e.json``.

One row per workload of the latest measurement entry: the median of each
end-to-end metric ``BENCHMARK.json`` declares, on the change side at the
entry's first seed.  The README holds this script's output verbatim
between its ``bench_table`` markers, and ``tests/test_bench_table.py``
checks that the two agree::

    python3 benchmarks/bench_table.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def render(bench: dict, spec: dict) -> str:
    """The markdown table for ``bench`` (``BENCH_e2e.json``) under
    ``spec`` (``BENCHMARK.json``), ending in a newline."""
    metrics = spec["end_to_end"]
    entry = bench["measurements"][-1]
    rows = [row for row in entry["rows"] if row["side"] == "change"]
    seed = rows[0]["seed"]
    rows = [row for row in rows if row["seed"] == seed]
    machine = entry["machine"]
    lines = [
        f"Change side of `BENCH_e2e.json` entry `pr: {entry['pr']}`, seed {seed}: "
        f"the median of {rows[0]['runs']} run medians per workload "
        f"({machine['nproc']} cores, Python {machine['python']}, numpy {machine['numpy']}).",
        "",
        "| workload | " + " | ".join(f"`{m['name']}` ({m['unit']})" for m in metrics) + " |",
        "|---" * (len(metrics) + 1) + "|",
    ]
    for row in rows:
        cells = (f"{row['end_to_end'][m['name']]['median']:.2f}" for m in metrics)
        lines.append(f"| `{row['workload']}` | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def main() -> int:
    bench = json.loads((ROOT / "BENCH_e2e.json").read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.stdout.write(render(bench, spec))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
