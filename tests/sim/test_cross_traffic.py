"""Background cross-traffic: burst sources contending on the shared link."""

from __future__ import annotations

import pytest

from repro.experiments.catalog import get_scenario
from repro.experiments.runner import make_scheme
from repro.experiments.scenario import fast_scenario
from repro.sim.cross_traffic import CrossTrafficConfig


class TestConfig:
    def test_defaults_validate(self):
        cfg = CrossTrafficConfig()
        assert cfg.num_sources == 1 and 0.0 < cfg.load <= 1.0

    @pytest.mark.parametrize("load", [0.0, -0.5, 1.5])
    def test_load_outside_unit_interval_rejected(self, load):
        with pytest.raises(ValueError):
            CrossTrafficConfig(load=load)

    @pytest.mark.parametrize(
        "kwargs",
        [{"num_sources": 0}, {"mean_idle_s": 0.0}, {"burst_bits": 0.0}],
    )
    def test_degenerate_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CrossTrafficConfig(**kwargs)


class TestSchemeIntegration:
    def test_background_load_slows_the_run(self):
        plain = make_scheme("GSFL", fast_scenario(with_wireless=True).build())
        base = plain.run(1).total_latency_s
        loaded_scheme = make_scheme(
            "GSFL", get_scenario("cross-traffic").build()
        )
        loaded = loaded_scheme.run(1).total_latency_s
        assert loaded > base  # bursts squeeze foreground transmissions

    def test_deterministic_per_seed(self):
        def run():
            scheme = make_scheme("GSFL", get_scenario("cross-traffic").build())
            return scheme.run(1).total_latency_s

        assert run() == run()

    def test_contended_medium_rejected(self):
        scenario = get_scenario("cross-traffic")
        scenario.scheme.medium = "contended"
        with pytest.raises(ValueError, match="static"):
            make_scheme("GSFL", scenario.build())

    def test_weights_unaffected_by_background_load(self):
        """Cross-traffic changes timing only: the trained model is
        bitwise the run without it."""
        plain = make_scheme("GSFL", fast_scenario(with_wireless=True).build())
        loaded = make_scheme("GSFL", get_scenario("cross-traffic").build())
        h_plain, h_loaded = plain.run(1), loaded.run(1)
        assert [p.train_loss for p in h_plain.points] == [p.train_loss for p in h_loaded.points]
        assert h_plain.accuracies == h_loaded.accuracies
