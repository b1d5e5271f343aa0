"""Transport-equivalence suite: the identity codec provably costs nothing.

``--transport float32`` (the default) must be *event-for-event absent*
from every scheme: running with the codec explicitly selected reproduces
all six golden histories bitwise — latency included.  Lossy codecs, by
contrast, must actually change what crosses the wire: int8 shrinks the
measured transmit bytes ~4x and prices encode/decode compute on the
owning devices.
"""

from __future__ import annotations

import pathlib
import sys
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.runner import SCHEME_REGISTRY, make_scheme
from repro.schemes.base import SchemeConfig
from repro.sim.transport import Float32Codec

FIXTURE_DIR = pathlib.Path(__file__).resolve().parents[1] / "fixtures" / "histories"
sys.path.insert(0, str(FIXTURE_DIR))

from regenerate import GOLDEN_ROUNDS, golden_scenario  # noqa: E402
from test_golden_histories import assert_matches_golden  # noqa: E402

ALL_SCHEMES = sorted(SCHEME_REGISTRY)
#: one spec per codec family (and two bit widths of intk)
TRANSPORT_SPECS = ["float32", "int8", "intk:4", "topk:0.25"]
#: phases whose trace rows carry payloads that actually hit the air
TRANSMIT_PHASES = (
    "model_distribution",
    "uplink_smashed",
    "downlink_gradient",
    "model_relay",
    "model_upload",
    "model_download",
)


def run_with_transport(name: str, transport: str, rounds: int = GOLDEN_ROUNDS):
    scenario = golden_scenario()
    scenario.scheme = replace(scenario.scheme, transport=transport)
    scheme = make_scheme(name, scenario.build())
    history = scheme.run(rounds)
    return scheme, history


class TestFloat32IsBitwiseIdentity:
    @pytest.mark.parametrize("name", ALL_SCHEMES)
    def test_explicit_float32_matches_golden_bitwise(self, name):
        scheme, history = run_with_transport(name, "float32")
        assert not scheme.config.codec.lossy
        assert_matches_golden(history, name)

    @pytest.mark.parametrize("name", ALL_SCHEMES)
    def test_float32_emits_no_codec_activities(self, name):
        scheme, _ = run_with_transport(name, "float32")
        assert not scheme.recorder.filter(phases=["encode"])
        assert not scheme.recorder.filter(phases=["decode"])


class TestLossyCodecsChangeTheWire:
    def _transmit_bytes(self, scheme) -> int:
        totals = scheme.recorder.total_bytes_by_phase()
        return sum(totals.get(phase, 0) for phase in TRANSMIT_PHASES)

    @pytest.mark.parametrize("name", ["GSFL", "SplitFed"])
    def test_int8_shrinks_wire_bytes_four_x(self, name):
        base, _ = run_with_transport(name, "float32", rounds=1)
        coded, history = run_with_transport(name, "int8", rounds=1)
        shrink = self._transmit_bytes(base) / self._transmit_bytes(coded)
        assert 3.0 < shrink < 4.1
        assert np.isfinite(history.points[-1].train_loss)
        assert coded.recorder.filter(phases=["encode"])
        assert coded.recorder.filter(phases=["decode"])

    @pytest.mark.parametrize("name", ["GSFL", "SL", "PSL"])
    def test_lossy_run_still_trains(self, name):
        _, history = run_with_transport(name, "intk:4", rounds=2)
        for point in history.points:
            assert np.isfinite(point.train_loss)
            assert 0.0 <= point.test_accuracy <= 1.0

    def test_topk_runs_end_to_end(self):
        scheme, history = run_with_transport("SplitFed", "topk:0.25", rounds=1)
        assert np.isfinite(history.points[-1].train_loss)
        assert scheme.recorder.filter(phases=["encode"])


class TestTransportConfig:
    def test_replace_moves_off_a_lossy_transport(self):
        """``transport`` alone names the codec: replacing it takes effect."""
        config = replace(SchemeConfig(transport="int8"), transport="float32")
        assert isinstance(config.codec, Float32Codec)
        config = replace(SchemeConfig(transport="int8"), transport="topk:0.1")
        assert config.transport == "topk:0.1"

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="unknown transport"):
            SchemeConfig(transport="gzip")

    @pytest.mark.parametrize(
        "source, target",
        [(a, b) for a in TRANSPORT_SPECS for b in TRANSPORT_SPECS if a != b],
        ids=lambda spec: spec,
    )
    def test_replace_lands_on_the_target_transport(self, source, target):
        """No codec state survives ``replace``: the result is the config
        built with ``target`` in the first place."""
        config = replace(SchemeConfig(transport=source), transport=target)
        assert config.transport == target
        assert config.codec == SchemeConfig(transport=target).codec

    def test_transport_is_the_only_codec_knob(self):
        with pytest.raises(TypeError):
            SchemeConfig(quantize_bits=8)  # type: ignore[call-arg]
