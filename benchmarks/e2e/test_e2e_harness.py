"""Self-test of the end-to-end benchmark harness (collected by the tier-1 sweep).

Covers the tracer's arithmetic and patch hygiene, the aggregation and
compare rules, and — through one ``--smoke`` pass in child processes —
that every workload and metric name of BENCHMARK.json is produced.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import e2e_harness
from e2e_tracer import FRAME, LEAF, Tracer

BENCH_DIR = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class FakeClock:
    """Advances only when the traced code says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def spend(self, seconds: float) -> None:
        self.now += seconds


def test_frame_self_time_is_duration_minus_recorded_children() -> None:
    clock = FakeClock()
    tracer = Tracer(clock)
    inner = tracer.wrap(lambda: clock.spend(2.0), "inner", FRAME)

    def outer_body() -> None:
        clock.spend(1.0)
        inner()
        inner()
        clock.spend(0.5)

    tracer.wrap(outer_body, "outer", FRAME)()
    ledger = tracer.ledger()
    assert ledger["outer"] == {"self_s": pytest.approx(1.5), "calls": 1}
    assert ledger["inner"] == {"self_s": pytest.approx(4.0), "calls": 2}
    assert [span[3] for span in tracer.spans] == [-1, 0, 0]


def test_recursive_frame_counts_every_second_once() -> None:
    clock = FakeClock()
    tracer = Tracer(clock)

    def descend(depth: int) -> None:
        clock.spend(1.0)
        if depth:
            wrapped(depth - 1)

    wrapped = tracer.wrap(descend, "rec", FRAME)
    wrapped(3)
    assert tracer.ledger()["rec"] == {"self_s": pytest.approx(4.0), "calls": 4}


def test_leaf_is_inclusive_and_drops_what_it_calls() -> None:
    clock = FakeClock()
    tracer = Tracer(clock)
    child_frame = tracer.wrap(lambda: clock.spend(1.0), "child", FRAME)
    child_leaf = tracer.wrap(lambda: clock.spend(1.0), "other_leaf", LEAF)

    def leaf_body() -> None:
        child_frame()
        child_leaf()
        clock.spend(0.25)

    tracer.wrap(leaf_body, "leaf", LEAF)()
    child_frame()  # recorded again once the leaf has closed
    ledger = tracer.ledger()
    assert ledger["leaf"] == {"self_s": pytest.approx(2.25), "calls": 1}
    assert ledger["child"] == {"self_s": pytest.approx(1.0), "calls": 1}
    assert "other_leaf" not in ledger


def test_window_clips_spans_and_a_raising_call_still_closes() -> None:
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom() -> None:
        clock.spend(4.0)
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom", LEAF)()
    tracer.wrap(lambda: clock.spend(1.0), "after", FRAME)()
    assert tracer.ledger((1.0, 3.0)) == {"boom": {"self_s": pytest.approx(2.0), "calls": 1}}
    assert tracer.ledger()["after"]["calls"] == 1  # the stack unwound


def test_generator_functions_are_refused() -> None:
    def gen():
        yield 1

    with pytest.raises(TypeError):
        Tracer().wrap(gen, "gen", FRAME)


def test_alias_rebinding_catches_from_imports_and_is_undone() -> None:
    source = types.ModuleType("e2e_fake.source")
    importer = types.ModuleType("e2e_fake.importer")
    outsider = types.ModuleType("elsewhere")
    source.f = lambda: "original"
    importer.g = outsider.f = source.f  # ``from e2e_fake.source import f as g``
    original = source.f
    sys.modules.update({m.__name__: m for m in (source, importer, outsider)})
    try:
        tracer = Tracer()
        tracer.patch_function(source, "f", "f", LEAF, prefix="e2e_fake")
        assert source.f is importer.g and source.f is not original
        assert outsider.f is original  # outside the prefix: untouched
        assert importer.g() == "original"
        assert tracer.ledger()["f"]["calls"] == 1
        tracer.uninstall()
        assert source.f is original and importer.g is original
    finally:
        for name in (source.__name__, importer.__name__, outsider.__name__):
            del sys.modules[name]


def test_subclass_overrides_are_wrapped_and_restored() -> None:
    class Base:
        def apply(self) -> str:
            return "base"

    class Override(Base):
        def apply(self) -> str:
            return "override"

    class Inherits(Base):
        pass

    before = (Base.__dict__["apply"], Override.__dict__["apply"])
    tracer = Tracer()
    tracer.patch_method(Base, "apply", "apply", LEAF, subclasses=True)
    assert [c().apply() for c in (Base, Override, Inherits)] == ["base", "override", "base"]
    assert tracer.ledger()["apply"]["calls"] == 3
    assert "apply" not in Inherits.__dict__
    tracer.uninstall()
    assert (Base.__dict__["apply"], Override.__dict__["apply"]) == before


def test_installing_the_real_boundaries_leaves_no_patch_behind() -> None:
    pytest.importorskip("repro.cli")

    def patched() -> set[str]:
        found: set[str] = set()
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if hasattr(value, "__e2e_span__"):
                    found.add(f"{mod_name}.{attr}")
                elif isinstance(value, type):
                    found |= {
                        f"{mod_name}.{attr}.{k}"
                        for k, v in vars(value).items()
                        if hasattr(v, "__e2e_span__")
                    }
        return found

    tracer = Tracer()
    tracer.install()
    try:
        during = patched()
    finally:
        tracer.uninstall()
    assert "repro.experiments.runner.make_scheme" in during
    assert "repro.cli.make_scheme" in during  # the ``from ... import`` alias
    assert "repro.sim.transport.IntKCodec.apply" in during  # a subclass override
    assert "repro.schemes.base.Scheme.run" in during
    assert patched() == set()


def test_summarize_reports_median_min_quartiles_and_count() -> None:
    row = e2e_harness.summarize([5.0, 1.0, 3.0, 2.0, 4.0])
    assert row == {"median": 3.0, "min": 1.0, "q1": 1.5, "q3": 4.5, "iqr": 3.0, "n": 5}
    assert e2e_harness.summarize([2.5])["iqr"] == 0.0


@pytest.mark.parametrize(
    ("parent", "change", "better", "expected"),
    [
        ([10.0, 10.1, 10.2, 10.0, 10.1], [10.1, 10.2, 10.1, 10.0, 10.2], "lower", "same"),
        ([10.0, 10.1, 10.2, 10.0, 10.1], [12.0, 12.1, 12.2, 12.0, 12.1], "lower", "worse"),
        ([10.0, 10.1, 10.2, 10.0, 10.1], [8.0, 8.1, 8.2, 8.0, 8.1], "lower", "better"),
        ([10.0, 10.1, 10.2, 10.0, 10.1], [8.0, 8.1, 8.2, 8.0, 8.1], "higher", "worse"),
        # parent spread (iqr 4) wider than the bound (1.1): noise decides
        ([8.0, 11.0, 14.0, 10.0, 12.0], [9.0, 12.0, 13.0, 11.5, 12.5], "lower", "unresolved"),
        ([8.0, 11.0, 14.0, 10.0, 12.0], [20.0, 21.0, 22.0, 20.5, 21.5], "lower", "worse"),
        ([8.0, 11.0, 14.0, 10.0, 12.0], [5.0, 6.0, 7.0, 5.5, 6.5], "lower", "better"),
    ],
)
def test_verdict(parent: list[float], change: list[float], better: str, expected: str) -> None:
    assert e2e_harness.verdict(parent, change, better, bound=0.10) == expected


def test_exact_verdict_for_simulated_results() -> None:
    assert e2e_harness.exact_verdict("wire_mb", 1.5, 1.5, True) == "same"
    assert e2e_harness.exact_verdict("wire_mb", 1.5, 1.5000001, True) == "worse"
    assert e2e_harness.exact_verdict("wire_mb", 1.5, 1.6, False) == "unresolved"
    assert e2e_harness.exact_verdict("final_accuracy", 0.50, 0.49, True) == "unresolved"
    assert e2e_harness.exact_verdict("final_accuracy", 0.50, 0.40, True) == "worse"
    assert e2e_harness.exact_verdict("final_accuracy", 0.50, 0.55, True) == "better"


def test_smoke_pass_produces_every_workload_and_metric(tmp_path: Path) -> None:
    spec = e2e_harness.load_spec()
    out = tmp_path / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(out.read_text())
    assert result["meta"]["nproc"] >= 1 and "blas_threads" in result["meta"]

    assert list(result["workloads"]) == [w["name"] for w in spec["workloads"]]
    every_layer_metric: set[str] = set()
    for name, res in result["workloads"].items():
        assert NAME.fullmatch(name)
        assert res["failed"] == 0 and res["failed_ops_ratio"] == 0.0, res["errors"]
        assert set(res["end_to_end"]) == {m["name"] for m in spec["end_to_end"]}
        assert all(len(v) == res["repeats"] == 1 for v in res["samples"].values())
        assert all(row["median"] > 0 for row in res["end_to_end"].values())
        assert res["per_layer"]["ledger.coverage"] == pytest.approx(1.0, abs=0.05)
        every_layer_metric |= set(res["per_layer"])
        for trace in (False, True):
            line = json.loads(e2e_harness.contract_line(spec, res, trace))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] is True and line["attempted"] >= 1
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            assert {k: v["unit"] for k, v in line["metrics"].items()} == {
                m["name"]: m["unit"] for m in wanted
            }
    # a layer may be idle on one workload, but some workload exercises each
    assert {m["name"] for m in spec["per_layer"]} <= every_layer_metric
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric["name"]

    # the smoke result compares clean against itself
    assert e2e_harness.compare(spec, out, out) == 0
