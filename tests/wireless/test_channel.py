"""Channel model physics tests: path loss, SNR monotonicity, Shannon rates."""

from __future__ import annotations

import numpy as np
import pytest

from repro.wireless.channel import (
    ChannelConfig,
    WirelessChannel,
    db_to_linear,
    dbm_to_watts,
    watts_to_dbm,
)


def make_channel(distances, **cfg_kwargs):
    defaults = dict(shadowing_std_db=0.0, rayleigh_fading=False)
    defaults.update(cfg_kwargs)
    return WirelessChannel(
        np.asarray(distances, dtype=float),
        config=ChannelConfig(**defaults),
        rng=np.random.default_rng(0),
    )


class TestUnitConversions:
    def test_dbm_watts_roundtrip(self):
        for dbm in (-30.0, 0.0, 23.0, 46.0):
            assert watts_to_dbm(dbm_to_watts(dbm)) == pytest.approx(dbm)

    def test_known_values(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0)
        assert dbm_to_watts(0.0) == pytest.approx(1e-3)
        assert db_to_linear(10.0) == pytest.approx(10.0)
        assert db_to_linear(3.0) == pytest.approx(2.0, rel=0.01)

    def test_watts_to_dbm_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            watts_to_dbm(0.0)


class TestPathLoss:
    def test_monotone_in_distance(self):
        ch = make_channel([10.0, 50.0, 100.0, 200.0])
        losses = [ch.path_loss_db(i) for i in range(4)]
        assert losses == sorted(losses)

    def test_log_distance_slope(self):
        """10x distance adds 10*n dB."""
        ch = make_channel([10.0, 100.0], path_loss_exponent=3.0)
        assert ch.path_loss_db(1) - ch.path_loss_db(0) == pytest.approx(30.0)

    def test_reference_loss_at_reference_distance(self):
        ch = make_channel([1.0], reference_loss_db=40.0)
        assert ch.path_loss_db(0) == pytest.approx(40.0)

    def test_shadowing_is_frozen_per_client(self):
        ch = WirelessChannel(
            np.array([50.0, 50.0]),
            config=ChannelConfig(shadowing_std_db=6.0, rayleigh_fading=False),
            rng=np.random.default_rng(1),
        )
        first = ch.path_loss_db(0)
        assert ch.path_loss_db(0) == first  # stable across calls
        assert ch.path_loss_db(0) != ch.path_loss_db(1)  # differs across clients

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError):
            make_channel([0.0])


class TestRates:
    def test_rate_positive_and_finite(self):
        ch = make_channel([20.0, 150.0])
        for c in range(2):
            r = ch.uplink_rate_bps(c, 1e6)
            assert np.isfinite(r) and r > 0

    def test_nearer_client_gets_higher_rate(self):
        ch = make_channel([10.0, 200.0])
        assert ch.uplink_rate_bps(0, 1e6) > ch.uplink_rate_bps(1, 1e6)

    def test_downlink_beats_uplink_with_higher_ap_power(self):
        ch = make_channel([50.0], tx_power_dbm=20.0, ap_tx_power_dbm=33.0)
        assert ch.downlink_rate_bps(0, 1e6) > ch.uplink_rate_bps(0, 1e6)

    def test_shannon_rate_formula(self):
        ch = make_channel([10.0])
        bw = 1e6
        snr_db = ch.expected_snr_db(0, bw)
        expected = bw * np.log2(1.0 + 10 ** (snr_db / 10))
        assert ch.uplink_rate_bps(0, bw) == pytest.approx(expected)

    def test_spectral_efficiency_rises_as_bandwidth_shrinks(self):
        """Fixed tx power over less spectrum -> higher SNR per Hz.

        This is the physical effect GSFL exploits: rate(B/M) > rate(B)/M.
        """
        ch = make_channel([50.0])
        full = ch.uplink_rate_bps(0, 6e6)
        sixth = ch.uplink_rate_bps(0, 1e6)
        assert sixth > full / 6.0

    def test_fading_randomizes_rates(self):
        ch = WirelessChannel(
            np.array([50.0]),
            config=ChannelConfig(shadowing_std_db=0.0, rayleigh_fading=True),
            rng=np.random.default_rng(2),
        )
        rates = {ch.uplink_rate_bps(0, 1e6) for _ in range(5)}
        assert len(rates) == 5

    def test_min_snr_floor(self):
        """Far client with deep fade still gets the floor SNR rate."""
        ch = WirelessChannel(
            np.array([10_000.0]),
            config=ChannelConfig(
                shadowing_std_db=0.0, rayleigh_fading=False, min_snr_db=-5.0
            ),
            rng=np.random.default_rng(0),
        )
        bw = 1e6
        floor_rate = bw * np.log2(1 + 10 ** (-0.5))
        assert ch.uplink_rate_bps(0, bw) == pytest.approx(floor_rate)

    def test_mean_uplink_rate_between_extremes(self):
        ch = WirelessChannel(
            np.array([50.0]),
            config=ChannelConfig(shadowing_std_db=0.0, rayleigh_fading=True),
            rng=np.random.default_rng(3),
        )
        mean = ch.mean_uplink_rate_bps(0, 1e6, num_draws=200)
        assert mean > 0

    def test_bandwidth_validation(self):
        ch = make_channel([10.0])
        with pytest.raises(ValueError):
            ch.uplink_rate_bps(0, 0)


class TestFlatRateParity:
    """``rate_bps`` against the three-deep chain it replaced.

    ``_chained_rate`` is the old ``uplink_rate_bps → _snr_linear →
    path_loss_db`` evaluation, frozen: path loss recomputed per call,
    every intermediate ``float()``-ed where it used to be.  The flat
    function must return the same double — contended-medium latencies
    (``tests/schemes/test_contended_golden.py``) ride on it.
    """

    @staticmethod
    def _chained_rate(ch, client, tx_power_dbm, bandwidth_hz, fading):
        cfg = ch.config
        d = max(ch.distances_m[client], cfg.reference_distance_m)
        pl = cfg.reference_loss_db + 10.0 * cfg.path_loss_exponent * np.log10(
            d / cfg.reference_distance_m
        )
        path_loss_db = float(pl + ch._shadowing_db[client])
        rx_dbm = tx_power_dbm - path_loss_db
        noise_dbm = -174.0 + 10.0 * np.log10(bandwidth_hz) + cfg.noise_figure_db
        snr = db_to_linear(rx_dbm - noise_dbm)
        snr *= fading
        snr = float(max(snr, db_to_linear(cfg.min_snr_db)))
        return float(bandwidth_hz * np.log2(1.0 + snr))

    def test_bitwise_equal_over_random_links(self):
        rng = np.random.default_rng(11)
        ch = WirelessChannel(
            rng.uniform(0.5, 900.0, size=64), rng=np.random.default_rng(5)
        )
        cfg = ch.config
        for _ in range(4000):
            client = int(rng.integers(64))
            hz = float(10.0 ** rng.uniform(0.0, 8.0))
            fading = float(rng.exponential(1.0))
            for tx, rate in (
                (cfg.tx_power_dbm, ch.uplink_rate_bps),
                (cfg.ap_tx_power_dbm, ch.downlink_rate_bps),
            ):
                expected = self._chained_rate(ch, client, tx, hz, fading)
                assert rate(client, hz, fading=fading) == expected
                assert ch.rate_bps(hz, client, tx, fading) == expected

    def test_unfrozen_fading_draws_from_the_channel_stream(self):
        a = WirelessChannel(np.array([40.0, 90.0]), rng=np.random.default_rng(2))
        b = WirelessChannel(np.array([40.0, 90.0]), rng=np.random.default_rng(2))
        drawn = [a.uplink_rate_bps(1, 1e6) for _ in range(5)]
        frozen = [b.uplink_rate_bps(1, 1e6, fading=b.draw_fading()) for _ in range(5)]
        assert drawn == frozen

    def test_invalid_bandwidth_consumes_no_fading_draw(self):
        a = WirelessChannel(np.array([40.0]), rng=np.random.default_rng(2))
        b = WirelessChannel(np.array([40.0]), rng=np.random.default_rng(2))
        with pytest.raises(ValueError):
            a.uplink_rate_bps(0, 0.0)
        assert a.draw_fading() == b.draw_fading()
