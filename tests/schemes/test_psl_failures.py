"""PSL baseline and GSFL failure-injection tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.runner import make_scheme
from repro.experiments.scenario import fast_scenario


@pytest.fixture(scope="module")
def built():
    return fast_scenario(with_wireless=True).build()


class TestParallelSplitLearning:
    def test_runs_and_learns(self, built):
        history = make_scheme("PSL", built).run(4)
        assert len(history.points) == 4
        assert history.final_accuracy > 0.15  # chance 0.1

    def test_single_server_replica(self, built):
        psl = make_scheme("PSL", built)
        assert psl.server_side_replicas() == 1
        gsfl = make_scheme("GSFL", built)
        assert psl.server_storage_bytes() < gsfl.server_storage_bytes()

    def test_trace_shows_parallel_clients_and_fused_server(self, built):
        psl = make_scheme("PSL", built)
        psl.run(1)
        phases = {e.phase for e in psl.recorder.events}
        assert "uplink_smashed" in phases
        server_events = psl.recorder.filter(
            phases=["server_compute"], actor_prefix="edge-server"
        )
        # one fused server step per local step (not per client)
        assert len(server_events) == built.scenario.scheme.local_steps

    def test_deterministic(self, built):
        h1 = make_scheme("PSL", built).run(2)
        h2 = make_scheme("PSL", built).run(2)
        np.testing.assert_allclose(h1.accuracies, h2.accuracies)

    def test_round_cheaper_than_sl(self, built):
        """Parallel clients must beat the serial relay in wall clock."""
        sl = make_scheme("SL", built).run(1).total_latency_s
        psl = make_scheme("PSL", built).run(1).total_latency_s
        assert psl < sl


class TestFailureInjection:
    def test_zero_rate_matches_baseline(self, built):
        h_base = make_scheme("GSFL", built).run(2)
        h_zero = make_scheme("GSFL", built, failure_rate=0.0).run(2)
        np.testing.assert_allclose(h_base.accuracies, h_zero.accuracies)

    def test_moderate_failures_still_learn(self, built):
        scheme = make_scheme("GSFL", built, failure_rate=0.3)
        history = scheme.run(4)
        assert scheme.skipped_clients_total > 0
        assert history.final_accuracy > 0.15

    def test_total_failure_is_noop_round(self, built):
        scheme = make_scheme("GSFL", built, failure_rate=1.0)
        before = scheme.model.state_dict()
        history = scheme.run(2)
        after = scheme.model.state_dict()
        for key in before:
            np.testing.assert_allclose(before[key], after[key])
        assert scheme.skipped_clients_total == 2 * len(built.client_datasets)
        assert np.isnan([p.train_loss for p in history.points]).all()

    def test_failed_clients_send_nothing(self, built):
        scheme = make_scheme("GSFL", built, failure_rate=1.0)
        scheme.run(1)
        assert len(scheme.recorder.events) == 0

    def test_failure_latency_below_full_participation(self):
        """Dropped clients shorten the round (deterministic rates so the
        comparison is exact, fresh scenarios so fading streams align)."""
        from dataclasses import replace

        def run(rate):
            scenario = fast_scenario(with_wireless=True)
            scenario.wireless = replace(scenario.wireless, deterministic_rates=True)
            scheme = make_scheme("GSFL", scenario.build(), failure_rate=rate)
            return scheme.run(1).total_latency_s

        assert run(0.6) < run(0.0)

    def test_rate_validation(self, built):
        with pytest.raises(ValueError):
            make_scheme("GSFL", built, failure_rate=1.5)
        with pytest.raises(ValueError):
            make_scheme("GSFL", built, failure_rate=-0.1)

    def test_failures_deterministic_per_seed(self, built):
        a = make_scheme("GSFL", built, failure_rate=0.5)
        b = make_scheme("GSFL", built, failure_rate=0.5)
        a.run(3)
        b.run(3)
        assert a.skipped_clients_total == b.skipped_clients_total
