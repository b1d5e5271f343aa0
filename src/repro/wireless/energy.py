"""Per-device energy accounting derived from latency traces.

Battery energy is the binding constraint on the paper's "resource-limited
mobile devices"; this module prices every traced activity in joules:

* transmission: ``P_tx * airtime`` (client PA power while sending),
* reception: ``P_rx * airtime`` (radio listening during downlinks),
* computation: ``P_comp * compute_time`` (SoC active power),
* idle: ``P_idle * wait_time``.

The analyzer consumes the same :class:`~repro.sim.trace.TraceRecorder`
rows the latency harness emits, so energy is a *free* second axis on any
experiment already run — no scheme changes needed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.trace import TraceRecorder
from repro.utils.validation import check_non_negative

__all__ = ["EnergyModel", "EnergyReport"]

#: trace phases during which the *client* transmitter is active
_CLIENT_TX_PHASES = frozenset({"uplink_smashed", "model_upload", "data_upload"})
#: phases where the client radio receives
_CLIENT_RX_PHASES = frozenset({"downlink_gradient", "model_distribution", "model_download"})
#: relay = one uplink hop (sender TX) + one downlink hop (receiver RX);
#: the runtime records one row per hop, tagged ``detail="uplink"`` /
#: ``"downlink"`` and attributed to that hop's own client
_CLIENT_RELAY_PHASES = frozenset({"model_relay"})
#: client busy computing
_CLIENT_COMPUTE_PHASES = frozenset({"client_compute"})


@dataclass(frozen=True)
class EnergyReport:
    """Energy totals (joules) for one actor or a whole run."""

    tx_j: float
    rx_j: float
    compute_j: float
    idle_j: float

    @property
    def total_j(self) -> float:
        return self.tx_j + self.rx_j + self.compute_j + self.idle_j

    @classmethod
    def zero(cls) -> "EnergyReport":
        """Additive identity (start value for ``sum`` over reports)."""
        return cls(0.0, 0.0, 0.0, 0.0)

    def __add__(self, other: "EnergyReport") -> "EnergyReport":
        return EnergyReport(
            self.tx_j + other.tx_j,
            self.rx_j + other.rx_j,
            self.compute_j + other.compute_j,
            self.idle_j + other.idle_j,
        )


_ZERO = EnergyReport.zero()


class EnergyModel:
    """Prices traced client activities in joules.

    Default powers describe an IoT-class device: 0.8 W transmit (PA at
    23 dBm plus chain), 0.25 W receive, 1.5 W compute-active, 30 mW idle.
    """

    def __init__(
        self,
        tx_power_w: float = 0.8,
        rx_power_w: float = 0.25,
        compute_power_w: float = 1.5,
        idle_power_w: float = 0.03,
    ) -> None:
        check_non_negative("tx_power_w", tx_power_w)
        check_non_negative("rx_power_w", rx_power_w)
        check_non_negative("compute_power_w", compute_power_w)
        check_non_negative("idle_power_w", idle_power_w)
        self.tx_power_w = tx_power_w
        self.rx_power_w = rx_power_w
        self.compute_power_w = compute_power_w
        self.idle_power_w = idle_power_w

    # ------------------------------------------------------------------
    # per-actor accounting
    # ------------------------------------------------------------------
    def client_energy(
        self, recorder: TraceRecorder, actor: str, total_span_s: float | None = None
    ) -> EnergyReport:
        """Energy of one client actor over a run.

        ``total_span_s`` (e.g. the run's total latency) enables idle-time
        accounting: idle = span - busy.
        """
        tx = rx = comp = busy = 0.0
        for event in recorder.events:
            if event.actor != actor:
                continue
            if event.phase in _CLIENT_TX_PHASES:
                tx += event.duration
            elif event.phase in _CLIENT_RX_PHASES:
                rx += event.duration
            elif event.phase in _CLIENT_RELAY_PHASES:
                # Per-hop relay rows: the sender's uplink hop is TX for
                # its full airtime, the receiver's downlink hop is RX for
                # its full airtime.  An unannotated (legacy combined) row
                # carries both hops under the sender — charge its uplink
                # half at TX; the receiver is unidentifiable there.
                if event.detail == "uplink":
                    tx += event.duration
                elif event.detail == "downlink":
                    rx += event.duration
                else:
                    tx += event.duration / 2
            elif event.phase in _CLIENT_COMPUTE_PHASES:
                comp += event.duration
            else:
                continue
            busy += event.duration
        idle = 0.0
        if total_span_s is not None:
            idle = max(0.0, total_span_s - busy)
        return EnergyReport(
            tx_j=self.tx_power_w * tx,
            rx_j=self.rx_power_w * rx,
            compute_j=self.compute_power_w * comp,
            idle_j=self.idle_power_w * idle,
        )

    def per_client_energy(
        self, recorder: TraceRecorder, total_span_s: float | None = None
    ) -> dict[str, EnergyReport]:
        """Energy report for every ``client-*`` actor in the trace."""
        actors = [a for a in recorder.actors() if a.startswith("client-")]
        return {
            actor: self.client_energy(recorder, actor, total_span_s)
            for actor in actors
        }

    def fleet_energy(
        self, recorder: TraceRecorder, total_span_s: float | None = None
    ) -> EnergyReport:
        """Summed energy across all clients."""
        total = _ZERO
        for report in self.per_client_energy(recorder, total_span_s).values():
            total = total + report
        return total
