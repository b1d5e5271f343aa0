"""Energy-model tests: pricing per phase, idle accounting, trace integration."""

from __future__ import annotations

import pytest

from repro.experiments.runner import make_scheme
from repro.experiments.scenario import fast_scenario
from repro.sim.trace import TraceRecorder
from repro.wireless.energy import EnergyModel, EnergyReport


def make_trace():
    rec = TraceRecorder()
    rec.record(0.0, 2.0, "client_compute", "client-0", 0)
    rec.record(2.0, 3.0, "uplink_smashed", "client-0", 0, nbytes=100)
    rec.record(3.0, 3.5, "downlink_gradient", "client-0", 0, nbytes=100)
    # relay = two per-hop rows: sender uplink, receiver downlink
    rec.record(3.5, 4.5, "model_relay", "client-0", 0, nbytes=100, detail="uplink")
    rec.record(4.5, 5.25, "model_relay", "client-1", 0, nbytes=100, detail="downlink")
    rec.record(0.0, 1.0, "server_compute", "edge-server", 0)
    return rec


class TestEnergyModel:
    def test_phase_pricing(self):
        model = EnergyModel(tx_power_w=1.0, rx_power_w=0.5, compute_power_w=2.0,
                            idle_power_w=0.0)
        report = model.client_energy(make_trace(), "client-0")
        assert report.compute_j == pytest.approx(2.0 * 2.0)
        # tx: 1s uplink + 1s relay uplink hop at 1 W
        assert report.tx_j == pytest.approx(1.0 + 1.0)
        assert report.rx_j == pytest.approx(0.5 * 0.5)
        assert report.idle_j == 0.0

    def test_relay_receiver_charged_rx(self):
        """The receiving side of a relay pays RX for its own hop airtime."""
        model = EnergyModel(tx_power_w=1.0, rx_power_w=0.5, compute_power_w=2.0,
                            idle_power_w=0.0)
        report = model.client_energy(make_trace(), "client-1")
        assert report.tx_j == 0.0
        assert report.rx_j == pytest.approx(0.5 * 0.75)

    def test_legacy_combined_relay_row_still_priced(self):
        """An unannotated relay row keeps the old half-airtime TX charge."""
        rec = TraceRecorder()
        rec.record(0.0, 1.0, "model_relay", "client-0", 0, nbytes=200)
        model = EnergyModel(tx_power_w=1.0, idle_power_w=0.0)
        report = model.client_energy(rec, "client-0")
        assert report.tx_j == pytest.approx(0.5)

    def test_idle_accounting(self):
        model = EnergyModel(idle_power_w=0.1)
        report = model.client_energy(make_trace(), "client-0", total_span_s=10.0)
        busy = 2.0 + 1.0 + 0.5 + 1.0
        assert report.idle_j == pytest.approx(0.1 * (10.0 - busy))

    def test_server_events_not_charged_to_clients(self):
        model = EnergyModel()
        report = model.client_energy(make_trace(), "client-0")
        # server_compute is 1s at 1.5 W would be 1.5 J; must not appear
        assert report.compute_j == pytest.approx(1.5 * 2.0)

    def test_report_addition(self):
        a = EnergyReport(1, 2, 3, 4)
        b = EnergyReport(10, 20, 30, 40)
        c = a + b
        assert (c.tx_j, c.rx_j, c.compute_j, c.idle_j) == (11, 22, 33, 44)
        assert c.total_j == 110

    def test_validation(self):
        with pytest.raises(ValueError):
            EnergyModel(tx_power_w=-1.0)


class TestSchemeIntegration:
    @pytest.fixture(scope="class")
    def gsfl_run(self):
        built = fast_scenario(with_wireless=True).build()
        scheme = make_scheme("GSFL", built)
        history = scheme.run(2)
        return scheme, history

    def test_fleet_energy_positive(self, gsfl_run):
        scheme, history = gsfl_run
        report = EnergyModel().fleet_energy(
            scheme.recorder, total_span_s=history.total_latency_s
        )
        assert report.total_j > 0
        assert report.compute_j > 0
        assert report.tx_j > 0

    def test_per_client_covers_all_clients(self, gsfl_run):
        scheme, _ = gsfl_run
        per_client = EnergyModel().per_client_energy(scheme.recorder)
        assert len(per_client) == scheme.num_clients

    def test_identical_compute_energy_across_schemes(self):
        """Same training work -> same compute joules, scheme-independent."""
        results = {}
        for name in ("SL", "GSFL"):
            built = fast_scenario(with_wireless=True).build()
            scheme = make_scheme(name, built)
            scheme.run(1)
            results[name] = EnergyModel().fleet_energy(scheme.recorder).compute_j
        assert results["SL"] == pytest.approx(results["GSFL"], rel=1e-9)
