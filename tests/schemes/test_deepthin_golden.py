"""DeepThin — the paper's model — pinned bitwise.

The six ``tests/fixtures/histories/*.npz`` goldens run ``micro_cnn``, which
has no BatchNorm, so until this file nothing outside
``tests/nn/test_kernel_parity.py`` noticed a numeric change to the only
model the paper uses.  ``tests/fixtures/deepthin/histories.json`` freezes,
as hex floats, the per-round training loss and test accuracy of GSFL and
SL on a reduced ``paper_scenario`` in float64 and in float32 (see
``tests/fixtures/regenerate.py``).  A ``repro.nn`` change that is
meant to keep a BatchNorm model's bits must pass this unmodified; one that
is meant to move them regenerates the fixture and bounds the move in its
PR.
"""

from __future__ import annotations

import json

import pytest

from tests.fixtures.regenerate import (
    DEEPTHIN_FIXTURE,
    DEEPTHIN_KEYS,
    DEEPTHIN_ROUNDS,
    DEEPTHIN_SCHEMES,
    DTYPES,
    deepthin_record,
    deepthin_scenario,
)

GOLDEN = json.loads(DEEPTHIN_FIXTURE.read_text())


def test_fixture_covers_every_pinned_run():
    assert sorted(GOLDEN) == sorted(DTYPES)
    for dtype in DTYPES:
        assert sorted(GOLDEN[dtype]) == sorted(DEEPTHIN_SCHEMES)
        for record in GOLDEN[dtype].values():
            assert len(record["train_loss"]) == len(record["test_accuracy"]) == DEEPTHIN_ROUNDS


def test_pinned_scenario_is_the_papers_model():
    scenario = deepthin_scenario()
    assert scenario.model_name == "deepthin" and scenario.cut_layer == 8
    assert any(type(layer).__name__ == "BatchNorm2d" for layer in scenario.make_model())


@pytest.mark.parametrize(
    "dtype, name", DEEPTHIN_KEYS, ids=[f"{d}-{n}" for d, n in DEEPTHIN_KEYS]
)
def test_deepthin_run_reproduces_fixture_bitwise(dtype, name):
    assert deepthin_record(dtype, name) == GOLDEN[dtype][name], (
        f"{name} ({dtype}): DeepThin answers diverged from the fixture — either "
        f"an nn regression or an intentional numeric change (regenerate and "
        f"bound it in the PR)"
    )


@pytest.mark.parametrize("name", DEEPTHIN_SCHEMES)
def test_float32_tracks_float64(name):
    """The two precisions are the same experiment: per-round losses agree to
    a few float32 ulps amplified by two rounds of training, so a
    float32-only divergence cannot hide behind a matching float64 golden."""
    single, double = (GOLDEN[dtype][name]["train_loss"] for dtype in ("float32", "float64"))
    for lo, hi in zip(single, double):
        assert float.fromhex(lo) == pytest.approx(float.fromhex(hi), rel=1e-3)
