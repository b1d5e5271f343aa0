"""The ``--trace-out`` export: its bytes, row for row, and its memory.

The digests below pin the files the exporter wrote when it still built
each renderer's rows as a list before writing any of them.  Every row is
priced by the simulator, not trained, so the bytes do not depend on BLAS
or on ``--dtype``.  Two configurations together emit every row type in
:data:`repro.devtools.trace_schema.TRACE_SCHEMAS`:

* ``churn`` is the ``churn`` world under bounded-staleness aggregation
  and the int8 wire (the ``churn-async-trace`` e2e workload, shortened);
  it carries the ``aggregation_update`` rows;
* ``regroup`` is the fast scenario under mid-activity churn with
  availability-aware regrouping; it carries ``round_conditions`` and
  ``regroup`` rows, which need a barrier.

The export renders, validates and writes one row at a time, so the
memory it allocates, as ``tracemalloc`` counts it, does not grow with
the run: a churn trace 4x as long exports in the same few KiB.
"""

from __future__ import annotations

import hashlib
import json
import tracemalloc
from dataclasses import dataclass

import pytest

import repro.cli
from repro.cli import main
from repro.devtools.trace_schema import TRACE_SCHEMAS
from repro.experiments.catalog import export_trace

CONFIGS: dict[str, list[str]] = {
    "churn": ["--scenario", "churn", "--scheme", "GSFL",
              "--aggregation", "bounded:2", "--transport", "int8"],
    "regroup": ["--scale", "fast", "--scheme", "GSFL",
                "--churn-uptime", "0.1", "--churn-downtime", "0.03",
                "--failure-model", "mid-activity",
                "--regroup", "availability_aware"],
}

#: (configuration, rounds) -> sha256 of the exported file
DIGESTS: dict[tuple[str, int], str] = {
    ("churn", 2): "b2bb95782694376e8f7ce265b1d92ade4b61a164ec58a63bf1a2d0dfc83b9903",
    ("churn", 8): "2f7da3f623946138c8242f5dea47fa3b5e454892d2afad2e4c4730ddc714cd74",
    ("regroup", 2): "719da6f67263facf9e866214d2e0ad1a92e3a97f28bbbc86bf4ca5ee7f884b1b",
}


@dataclass
class Export:
    """One CLI run's trace file, the scheme it was exported from, and the
    bytes ``export_trace`` allocated at its peak."""

    data: bytes
    scheme: object
    peak: int

    @property
    def rows(self) -> list[dict[str, object]]:
        return [json.loads(line) for line in self.data.decode().splitlines()]


@pytest.fixture(scope="module")
def exports(tmp_path_factory) -> dict[tuple[str, int], Export]:
    """Run every pinned configuration once through ``repro.cli.main``."""
    seen: list[tuple[object, int]] = []

    def capture(target, scheme, scenario_name=None):
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            export_trace(target, scheme, scenario_name=scenario_name)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        seen.append((scheme, peak))

    out: dict[tuple[str, int], Export] = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(repro.cli, "export_trace", capture)
        for name, rounds in DIGESTS:
            path = tmp_path_factory.mktemp(f"{name}{rounds}") / "trace.jsonl"
            code = main(["run", "--rounds", str(rounds), "--trace-out", str(path)]
                        + CONFIGS[name])
            assert code == 0
            out[name, rounds] = Export(path.read_bytes(), *seen.pop())
    return out


class TestExportBytes:
    @pytest.mark.parametrize("key", sorted(DIGESTS), ids=lambda k: f"{k[0]}-{k[1]}")
    def test_digest(self, exports, key):
        assert hashlib.sha256(exports[key].data).hexdigest() == DIGESTS[key]

    def test_configurations_cover_every_row_type(self, exports):
        types = {row["type"] for export in exports.values() for row in export.rows}
        assert types == set(TRACE_SCHEMAS)


class TestStreamedExport:
    def test_peak_does_not_grow_with_the_trace(self, exports):
        """8 rounds write ≈3.3x the rows of 2; the export still holds one
        row at a time (a list-building export reads ≈161 -> ≈492 KiB)."""
        short, long = exports["churn", 2].peak, exports["churn", 8].peak
        assert long <= short + 16 * 1024, (short, long)
        assert long <= 64 * 1024, long

    @pytest.mark.parametrize("key", sorted(DIGESTS), ids=lambda k: f"{k[0]}-{k[1]}")
    @pytest.mark.parametrize(
        "renderer, row_type",
        [("to_rows", "activity"), ("abort_rows", "activity_abort"),
         ("retry_rows", "retry"), ("regroup_rows", "regroup")],
    )
    def test_renderer_yields_the_pinned_rows(self, exports, key, renderer, row_type):
        export = exports[key]
        rows = getattr(export.scheme.recorder, renderer)()
        assert iter(rows) is rows
        assert list(rows) == [r for r in export.rows if r["type"] == row_type]
