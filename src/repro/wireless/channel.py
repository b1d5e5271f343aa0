"""Physical-layer channel model: path loss, shadowing, fading, Shannon rate.

Standard urban-cellular abstractions (consistent with the parallel-SL
resource-management literature the paper builds on, e.g. Wu et al.,
JSAC 2023):

* log-distance path loss ``PL(d) = PL(d0) + 10 n log10(d/d0)`` dB,
* optional log-normal shadowing (frozen per client — devices are static),
* i.i.d. Rayleigh block fading per transmission (exponential power gain),
* AWGN with thermal noise density −174 dBm/Hz,
* achievable rate from the Shannon bound ``r = B log2(1 + SNR)``.

All the randomness flows through an explicit generator for reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import new_rng
from repro.utils.validation import check_non_negative, check_positive

__all__ = ["ChannelConfig", "WirelessChannel", "db_to_linear"]

#: thermal noise power spectral density at room temperature
NOISE_DBM_PER_HZ = -174.0


def db_to_linear(db: float) -> float:
    """Convert a dB ratio to linear scale."""
    return 10.0 ** (db / 10.0)


@dataclass
class ChannelConfig:
    """Physical-layer parameters.

    Defaults describe a small urban cell on 2.4 GHz-class spectrum: 23 dBm
    mobile transmit power, path-loss exponent 3.5, 8 dB shadowing.
    """

    tx_power_dbm: float = 23.0
    ap_tx_power_dbm: float = 30.0
    path_loss_exponent: float = 3.2
    reference_distance_m: float = 1.0
    reference_loss_db: float = 40.0
    shadowing_std_db: float = 4.0
    noise_figure_db: float = 7.0
    rayleigh_fading: bool = True
    min_snr_db: float = -10.0

    def __post_init__(self) -> None:
        check_positive("path_loss_exponent", self.path_loss_exponent)
        check_positive("reference_distance_m", self.reference_distance_m)
        check_non_negative("shadowing_std_db", self.shadowing_std_db)
        check_non_negative("noise_figure_db", self.noise_figure_db)


class WirelessChannel:
    """Client↔AP channel realization for a fixed topology.

    Shadowing is drawn once per client at construction (static devices),
    so each client's path loss is priced there too — from ``config`` as
    it stands at that moment; fading is redrawn per call when enabled.
    Uplink and downlink are symmetric in path loss but use the
    respective transmit powers.
    """

    def __init__(
        self,
        distances_m: np.ndarray,
        config: ChannelConfig | None = None,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        self.config = config or ChannelConfig()
        self.distances_m = np.asarray(distances_m, dtype=np.float64)
        if np.any(self.distances_m <= 0):
            raise ValueError("all distances must be positive")
        if rng is None:
            # A forgotten seed would silently unpin every downstream run
            # (shadowing + fading come from this stream).  Callers that
            # genuinely want OS entropy must say so: new_rng(None).
            raise ValueError(
                "WirelessChannel requires an explicit seed or Generator; "
                "pass rng=<int seed> or rng=new_rng(seed) "
                "(use new_rng(None) if OS entropy is really intended)"
            )
        self._rng = new_rng(rng)
        n = len(self.distances_m)
        if self.config.shadowing_std_db > 0:
            self._shadowing_db = self._rng.normal(0.0, self.config.shadowing_std_db, size=n)
        else:
            self._shadowing_db = np.zeros(n)
        # Static by construction (fixed topology, shadowing drawn once
        # above): priced here, read by every rate evaluation.
        self._path_loss_db = [self._price_path_loss_db(c) for c in range(n)]
        self._min_snr_linear = db_to_linear(self.config.min_snr_db)

    def _price_path_loss_db(self, client: int) -> float:
        cfg = self.config
        d = max(self.distances_m[client], cfg.reference_distance_m)
        pl = cfg.reference_loss_db + 10.0 * cfg.path_loss_exponent * np.log10(
            d / cfg.reference_distance_m
        )
        return float(pl + self._shadowing_db[client])

    def path_loss_db(self, client: int) -> float:
        """Log-distance path loss plus the client's frozen shadowing term."""
        return self._path_loss_db[client]

    def draw_fading(self) -> float:
        """One Rayleigh block-fading power realization (1.0 when disabled).

        Consumes the channel's shared stream, so callers that freeze a
        realization for later rate evaluation (the demand-based runtime)
        draw in exactly the same protocol order as direct rate calls.
        """
        if self.config.rayleigh_fading:
            return float(self._rng.exponential(1.0))
        return 1.0

    def rate_bps(
        self,
        bandwidth_hz: float,
        client: int,
        tx_power_dbm: float,
        fading: float | None = None,
    ) -> float:
        """Shannon rate of one client↔AP hop over ``bandwidth_hz``.

        The one evaluation both directions share (they differ only in
        ``tx_power_dbm``), kept flat because a contended medium calls it
        for every in-flight flow on every membership change.  ``fading``
        fixes the block-fading realization (no stream draw); ``None``
        draws a fresh one.
        """
        check_positive("bandwidth_hz", bandwidth_hz)
        noise_dbm = (
            NOISE_DBM_PER_HZ
            + 10.0 * np.log10(bandwidth_hz)
            + self.config.noise_figure_db
        )
        snr = 10.0 ** ((tx_power_dbm - self._path_loss_db[client] - noise_dbm) / 10.0)
        snr *= self.draw_fading() if fading is None else fading
        return float(bandwidth_hz * np.log2(1.0 + max(snr, self._min_snr_linear)))

    def uplink_rate_bps(
        self, client: int, bandwidth_hz: float, fading: float | None = None
    ) -> float:
        """Achievable client→AP rate (:meth:`rate_bps` at the mobile's power)."""
        return self.rate_bps(bandwidth_hz, client, self.config.tx_power_dbm, fading)

    def downlink_rate_bps(
        self, client: int, bandwidth_hz: float, fading: float | None = None
    ) -> float:
        """Achievable AP→client rate (:meth:`rate_bps` at the AP's power)."""
        return self.rate_bps(bandwidth_hz, client, self.config.ap_tx_power_dbm, fading)

    def mean_uplink_rate_bps(
        self, client: int, bandwidth_hz: float, num_draws: int = 200
    ) -> float:
        """Monte-Carlo mean uplink rate (used by channel-aware grouping)."""
        draws = [self.uplink_rate_bps(client, bandwidth_hz) for _ in range(num_draws)]
        return float(np.mean(draws))

    def expected_snr_db(self, client: int, bandwidth_hz: float) -> float:
        """Average SNR in dB ignoring fast fading (link-quality metric)."""
        cfg = self.config
        rx_dbm = cfg.tx_power_dbm - self.path_loss_db(client)
        noise_dbm = NOISE_DBM_PER_HZ + 10.0 * np.log10(bandwidth_hz) + cfg.noise_figure_db
        return float(rx_dbm - noise_dbm)
