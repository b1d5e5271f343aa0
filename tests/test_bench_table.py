"""The README's performance table is ``benchmarks/bench_table.py``'s output
on the committed ``BENCH_e2e.json``, so a new measurement entry and the
README cannot drift apart."""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

spec = importlib.util.spec_from_file_location("bench_table", ROOT / "benchmarks" / "bench_table.py")
bench_table = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_table)

BEGIN = "<!-- bench_table: begin (python3 benchmarks/bench_table.py) -->\n"
END = "<!-- bench_table: end -->\n"


def _load(name: str) -> dict:
    return json.loads((ROOT / name).read_text())


def test_readme_table_is_the_rendered_latest_entry():
    readme = (ROOT / "README.md").read_text()
    assert readme.count(BEGIN) == 1 and readme.count(END) == 1
    embedded = readme.split(BEGIN)[1].split(END)[0]
    assert embedded == bench_table.render(_load("BENCH_e2e.json"), _load("BENCHMARK.json"))


def test_the_table_follows_the_latest_entry():
    """One row per workload, from the newest entry's change side."""
    bench, spec = _load("BENCH_e2e.json"), _load("BENCHMARK.json")
    newer = copy.deepcopy(bench["measurements"][-1])
    newer["pr"] = "next"
    for row in newer["rows"]:
        row["end_to_end"]["peak_rss_mb"]["median"] = 1.0
    bench["measurements"].append(newer)
    lines = bench_table.render(bench, spec).splitlines()
    workloads = list(dict.fromkeys(row["workload"] for row in newer["rows"]))
    body = lines[4:]
    assert "`pr: next`" in lines[0]
    assert [line.split(" | ")[0] for line in body] == [f"| `{w}`" for w in workloads]
    assert all(line.endswith("| 1.00 |") for line in body)
