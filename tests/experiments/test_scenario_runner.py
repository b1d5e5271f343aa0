"""Scenario construction and runner tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.experiments.runner import SCHEME_REGISTRY, best_cut, make_scheme, run_schemes
from repro.experiments.scenario import (
    ExperimentScenario,
    fast_scenario,
    paper_scenario,
)
from repro.models.registry import default_cut_layer


class TestScenario:
    def test_fast_scenario_builds(self, built_fast_scenario):
        built = built_fast_scenario
        assert len(built.client_datasets) == 6
        assert built.wireless is built.scenario.wireless is not None
        assert built.profile is not None
        assert built.input_shape == (3, 16, 16)

    def test_paper_scenario_shape(self):
        sc = paper_scenario(with_wireless=False)
        assert sc.num_clients == 30
        assert sc.num_groups == 6
        assert sc.dataset.num_classes == 43
        assert sc.model_name == "deepthin"

    def test_paper_cut_is_not_the_latency_minimizing_cut(self, capsys):
        """The docstring of ``paper_scenario`` states both facts pinned here;
        changing the preset or the latency model means rewriting it."""
        assert paper_scenario().cut_layer == 8
        assert main(["cuts", "--scale", "paper", "--seed", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()[1:12]
        rows = {int(line.split()[0]): line.split()[1:] for line in lines}
        assert rows[4] == ["14754.42", "*", "4691.12", "*"]
        assert rows[8] == ["40112.51", "7853.03"]
        doc = " ".join(paper_scenario.__doc__.split())
        assert (
            "picks cut 4 for both schemes, a GSFL round of 4691.12 ms against "
            "7853.03 ms for cut 8 and an SL round of 14754.42 ms against "
            "40112.51 ms" in doc
        )

    def test_wireless_client_count_follows_scenario(self):
        sc = fast_scenario(num_clients=9, num_groups=3)
        assert sc.wireless.num_clients == 9

    def test_no_wireless_build(self):
        built = fast_scenario(with_wireless=False).build()
        assert built.wireless is None and built.profile is None

    def test_unpriced_build_makes_no_model(self, monkeypatch):
        """The profiling probe model was made on every build, priced or not."""

        def no_model(self):
            raise AssertionError("an unpriced build made a model")

        monkeypatch.setattr(ExperimentScenario, "make_model", no_model)
        fast_scenario(with_wireless=False).build()

    def test_build_realizes_no_wireless_system(self, monkeypatch):
        """The build realized a system no scheme read: each scheme makes its own."""
        import repro.experiments.scenario as scenario_module

        def no_system(config):
            raise AssertionError("the build realized a wireless system")

        monkeypatch.setattr(scenario_module, "WirelessSystem", no_system)
        assert fast_scenario(with_wireless=True).build().profile is not None

    def test_resolved_cut_layer_default(self):
        sc = fast_scenario()
        sc.cut_layer = None
        assert sc.resolved_cut_layer() == default_cut_layer("micro_cnn")
        sc.cut_layer = 2
        assert sc.resolved_cut_layer() == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentScenario(num_clients=4, num_groups=8)
        with pytest.raises(ValueError):
            ExperimentScenario(partition="sorted")
        with pytest.raises(ValueError):
            ExperimentScenario(grouping="astrology")

    def test_grouping_threads_to_gsfl(self):
        from repro.experiments.runner import make_scheme

        sc = fast_scenario()
        sc.grouping = "random"
        scheme = make_scheme("GSFL", sc.build())
        assert scheme.grouping == "random"

    def test_dirichlet_partition_mode(self):
        sc = fast_scenario(with_wireless=False)
        sc.partition = "dirichlet"
        sc.dirichlet_alpha = 0.3
        built = sc.build()
        assert sum(len(d) for d in built.client_datasets) == len(
            built.client_datasets[0].dataset
        )

    def test_make_model_deterministic(self):
        sc = fast_scenario()
        a, b = sc.make_model(), sc.make_model()
        sa, sb = a.state_dict(), b.state_dict()
        for k in sa:
            np.testing.assert_allclose(sa[k], sb[k])

    def test_mlp_scenario_builds(self):
        sc = fast_scenario(with_wireless=True)
        sc.model_name = "mlp"
        sc.cut_layer = 3
        built = sc.build()
        scheme = make_scheme("GSFL", built)
        history = scheme.run(1)
        assert len(history.points) == 1


class TestRunner:
    def test_registry_contents(self):
        assert set(SCHEME_REGISTRY) == {"CL", "FL", "SL", "SplitFed", "PSL", "GSFL"}

    def test_unknown_scheme(self, built_fast_scenario):
        with pytest.raises(ValueError, match="unknown scheme"):
            make_scheme("DiLoCo", built_fast_scenario)

    def test_run_schemes_returns_all(self, built_fast_scenario):
        histories = run_schemes(built_fast_scenario, ["SL", "GSFL"], num_rounds=1)
        assert set(histories) == {"SL", "GSFL"}
        assert all(len(h.points) == 1 for h in histories.values())

    def test_best_cut_returns_sweep_minimum(self, built_fast_scenario):
        best, sweep = best_cut("GSFL", built_fast_scenario)
        latencies = dict(sweep)
        assert latencies[best] == min(latencies.values())
        assert len(sweep) == built_fast_scenario.profile.num_layers - 1

    def test_best_cut_needs_a_split_scheme_and_a_priced_build(self, built_fast_scenario):
        with pytest.raises(ValueError, match="has no dry round"):
            best_cut("PSL", built_fast_scenario)
        with pytest.raises(ValueError, match="priced build"):
            best_cut("GSFL", fast_scenario(with_wireless=False).build())


class TestOrderIndependence:
    """Every scheme made from a build starts its own fading stream, so its
    priced history does not depend on the schemes made or run before it."""

    def test_gsfl_after_sl_equals_a_lone_gsfl(self):
        scenario = fast_scenario(with_wireless=True)
        after_sl = run_schemes(scenario.build(), ["SL", "GSFL"], num_rounds=2)["GSFL"]
        lone = make_scheme("GSFL", scenario.build()).run(2)
        assert after_sl.total_latency_s > 0
        assert after_sl.points == lone.points

    def test_consecutive_schemes_on_the_shared_build_agree(self, built_fast_scenario):
        first = make_scheme("GSFL", built_fast_scenario)
        second = make_scheme("GSFL", built_fast_scenario)
        first_history, second_history = first.run(2), second.run(2)
        assert first_history.total_latency_s > 0
        assert first_history.points == second_history.points

    def test_each_call_realizes_a_system_from_the_builds_config(self, built_fast_scenario):
        first, second = (built_fast_scenario.scheme_kwargs()["system"] for _ in range(2))
        assert first is not second
        assert first.config is second.config is built_fast_scenario.wireless
