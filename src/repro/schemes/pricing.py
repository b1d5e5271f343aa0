"""Demand calculation for scheme activities.

:class:`LatencyModel` converts protocol actions (client forward pass,
smashed-data upload, model relay, ...) into **demands** — FLOPs against a
device for compute, bytes + frozen channel realization + nominal
bandwidth for transmission (:mod:`repro.sim.runtime` vocabulary).  The
runtime resolves demand durations during replay, so a transmission's
actual airtime depends on the instantaneous state of the shared medium,
not on what the scheme assumed when it emitted the activity.

Fading realizations are drawn per transmission through the channel's own
generator *at demand-construction time*, in protocol order — exactly
where the old pre-priced pipeline drew them — so latency traces stay
reproducible for a fixed scenario seed and the static-share resolution
is bit-identical to the legacy analytic pricing.

Coded payloads are priced here too: :meth:`LatencyModel.smashed_nbytes`
and :meth:`LatencyModel.model_wire_nbytes` are the transport codec's wire
sizes, and :meth:`LatencyModel.encode` / :meth:`LatencyModel.decode` are
the codec's compute as activities on the owning device — none at all
under the identity codec, so float32 runs carry no codec rows.

A demand's analytic views are :func:`~repro.sim.runtime.demand_lower_bound_s`
(contention-free floor) and :func:`~repro.sim.runtime.demand_nominal_s`
(static share).  Constructed with ``system=None`` everything is priced at
zero — "pure algorithm" mode for accuracy-only runs and fast tests.
"""

from __future__ import annotations

import sys
from functools import partial
from typing import Callable

import numpy as np

from repro.nn.profile import ModelProfile
from repro.nn.serialize import WIRE_BYTES_PER_SCALAR
from repro.schemes.base import Activity
from repro.sim.runtime import (
    ComputeDemand,
    Demand,
    TransmitDemand,
    TransmitLeg,
)
from repro.sim.transport import TransportCodec, parse_transport
from repro.wireless.channel import WirelessChannel
from repro.wireless.system import WirelessSystem

__all__ = ["LatencyModel", "client_actor"]

#: FLOPs charged per parameter for a FedAvg aggregation pass
AGGREGATION_FLOPS_PER_PARAM = 2.0


def client_actor(client: int) -> str:
    """``client-<id>`` as one shared string per client: the trace recorder
    keeps every resolved activity's actor for the whole run."""
    return sys.intern(f"client-{client}")


class LatencyModel:
    """Builds demands for protocol actions (zero-priced when no system)."""

    def __init__(
        self,
        system: WirelessSystem | None,
        profile: ModelProfile | None,
        batch_size: int,
        transport: str | TransportCodec | None = None,
    ) -> None:
        if (system is None) != (profile is None):
            raise ValueError(
                "system and profile must be given together (or both omitted)"
            )
        self.system = system
        self.profile = profile
        self.batch_size = batch_size
        self.codec: TransportCodec = parse_transport(transport)
        # Payload sizes are pure functions of the cut layer but were
        # recomputed from full profile traversals inside every activity of
        # every batch of every round — memoize them per cut.
        self._smashed_scalars: dict[int, int] = {}
        self._client_model_nbytes: dict[int, int] = {}
        self._full_model_nbytes: int | None = None

    @property
    def enabled(self) -> bool:
        return self.system is not None

    # ------------------------------------------------------------------
    # compute demands
    # ------------------------------------------------------------------
    def _client_compute(self, client: int, flops: float) -> Demand:
        return ComputeDemand(
            flops=flops,
            flops_per_s=self.system.fleet.client(client).flops_per_second,
            client=client,
        )

    def _server_compute(self, flops: float, multiplier: float = 1.0) -> Demand:
        return ComputeDemand(
            flops=flops,
            flops_per_s=self.system.fleet.server.flops_per_second,
            client=None,
            multiplier=multiplier,
        )

    def client_forward_demand(self, client: int, cut_layer: int) -> Demand:
        if not self.enabled:
            return 0.0
        flops = self.profile.client_forward_flops(cut_layer) * self.batch_size
        return self._client_compute(client, flops)

    def client_backward_demand(self, client: int, cut_layer: int) -> Demand:
        if not self.enabled:
            return 0.0
        flops = self.profile.client_backward_flops(cut_layer) * self.batch_size
        return self._client_compute(client, flops)

    def client_full_step_demand(self, client: int) -> Demand:
        """Full-model forward+backward on the client (FL local step)."""
        if not self.enabled:
            return 0.0
        flops = 3.0 * self.profile.total_forward_flops * self.batch_size
        return self._client_compute(client, flops)

    def server_split_step_demand(self, cut_layer: int, multiplier: float = 1.0) -> Demand:
        """Server-side forward+backward for one smashed batch.

        ``multiplier`` prices a fused batch (PSL: ``N×`` one batch).
        """
        if not self.enabled:
            return 0.0
        flops = (
            self.profile.server_forward_flops(cut_layer)
            + self.profile.server_backward_flops(cut_layer)
        ) * self.batch_size
        return self._server_compute(flops, multiplier)

    def server_full_step_demand(self) -> Demand:
        """Full-model forward+backward on the server (CL step)."""
        if not self.enabled:
            return 0.0
        flops = 3.0 * self.profile.total_forward_flops * self.batch_size
        return self._server_compute(flops)

    def aggregation_demand(self, num_participants: int, num_params: int) -> Demand:
        if not self.enabled:
            return 0.0
        flops = AGGREGATION_FLOPS_PER_PARAM * num_params * num_participants
        return self._server_compute(flops)

    # ------------------------------------------------------------------
    # transport codec work (none under the identity codec)
    # ------------------------------------------------------------------
    def encode(
        self, client: int | None, num_scalars: int, detail: str, actor: str | None = None
    ) -> list[Activity]:
        """The sender's encode of a ``num_scalars`` payload, on ``client``
        (the edge server when ``None``); empty under the identity codec."""
        return self._codec_work(
            "encode", self.codec.encode_flops, client, num_scalars, detail, actor
        )

    def decode(self, client: int | None, num_scalars: int, detail: str) -> list[Activity]:
        """The receiver's decode of a ``num_scalars`` payload, on ``client``
        (the edge server when ``None``); empty under the identity codec."""
        return self._codec_work(
            "decode", self.codec.decode_flops, client, num_scalars, detail, None
        )

    def _codec_work(
        self,
        phase: str,
        flops_of: Callable[[int], float],
        client: int | None,
        num_scalars: int,
        detail: str,
        actor: str | None,
    ) -> list[Activity]:
        if not self.codec.lossy:
            return []
        demand: Demand = 0.0
        flops = flops_of(num_scalars) if self.enabled else 0.0
        if flops > 0.0:
            demand = (
                self._server_compute(flops)
                if client is None
                else self._client_compute(client, flops)
            )
        if actor is None:
            actor = "edge-server" if client is None else client_actor(client)
        return [Activity(demand, phase, actor, detail=detail)]

    # ------------------------------------------------------------------
    # transmission demands
    # ------------------------------------------------------------------
    def _uplink_leg(self, client: int, nbits: float) -> TransmitLeg:
        """One client→AP hop; freezes a fading draw from the shared stream."""
        channel = self.system.channel
        return TransmitLeg(
            nbits=nbits,
            client=client,
            rate_fn=partial(
                channel.rate_bps,
                client=client,
                tx_power_dbm=channel.config.tx_power_dbm,
                fading=channel.draw_fading(),
            ),
            direction="uplink",
        )

    def _downlink_leg(self, client: int, nbits: float) -> TransmitLeg:
        """One AP→client hop; freezes a fading draw from the shared stream."""
        channel = self.system.channel
        return TransmitLeg(
            nbits=nbits,
            client=client,
            rate_fn=partial(
                channel.rate_bps,
                client=client,
                tx_power_dbm=channel.config.ap_tx_power_dbm,
                fading=channel.draw_fading(),
            ),
            direction="downlink",
        )

    def _transmit(self, legs: list[TransmitLeg], nominal_hz: float) -> TransmitDemand:
        return TransmitDemand(
            legs=tuple(legs),
            nominal_hz=nominal_hz,
            total_hz=self.total_bandwidth_hz,
        )

    def uplink_smashed_demand(
        self, client: int, cut_layer: int, nominal_hz: float
    ) -> Demand:
        if not self.enabled:
            return 0.0
        nbits = 8 * self.smashed_nbytes(cut_layer)
        return self._transmit([self._uplink_leg(client, nbits)], nominal_hz)

    def downlink_gradient_demand(
        self, client: int, cut_layer: int, nominal_hz: float
    ) -> Demand:
        if not self.enabled:
            return 0.0
        nbits = 8 * self.smashed_nbytes(cut_layer)
        return self._transmit([self._downlink_leg(client, nbits)], nominal_hz)

    def uplink_model_demand(self, client: int, nbytes: int, nominal_hz: float) -> Demand:
        if not self.enabled or nbytes == 0:
            return 0.0
        return self._transmit([self._uplink_leg(client, 8 * nbytes)], nominal_hz)

    def downlink_model_demand(
        self, client: int, nbytes: int, nominal_hz: float
    ) -> Demand:
        if not self.enabled or nbytes == 0:
            return 0.0
        return self._transmit([self._downlink_leg(client, 8 * nbytes)], nominal_hz)

    def relay_model_demand(
        self, from_client: int, to_client: int, nbytes: int, nominal_hz: float
    ) -> Demand:
        """Client→AP→client model relay: two sequential hops, one demand."""
        if not self.enabled or nbytes == 0:
            return 0.0
        return self._transmit(
            [
                self._uplink_leg(from_client, 8 * nbytes),
                self._downlink_leg(to_client, 8 * nbytes),
            ],
            nominal_hz,
        )

    def broadcast_model_demand(
        self, clients: list[int], nbytes: int, nominal_hz: float
    ) -> Demand:
        """One AP broadcast decoded by every listed client.

        The transmission closes at the *weakest* listener's rate; the flow
        is attributed to that listener for client-aware share policies.
        """
        if not self.enabled or nbytes == 0:
            return 0.0
        channel = self.system.channel
        pairs = [(c, channel.draw_fading()) for c in clients]

        def weakest_rate(
            hz: float,
            _pairs: "tuple[tuple[int, float], ...]" = tuple(pairs),
            _ch: "WirelessChannel" = channel,
        ) -> float:
            return min(_ch.downlink_rate_bps(c, hz, fading=f) for c, f in _pairs)

        nominal_rates = [
            channel.downlink_rate_bps(c, nominal_hz, fading=f) for c, f in pairs
        ]
        weakest = clients[int(np.argmin(nominal_rates))]
        return self._transmit(
            [
                TransmitLeg(
                    nbits=8 * nbytes,
                    client=weakest,
                    rate_fn=weakest_rate,
                    direction="downlink",
                )
            ],
            nominal_hz,
        )

    def uplink_data_demand(
        self, client: int, num_samples: int, nominal_hz: float
    ) -> Demand:
        """Raw-data upload demand for CL's one-time pooling."""
        if not self.enabled:
            return 0.0
        nbits = 8 * self.dataset_nbytes(num_samples)
        return self._transmit([self._uplink_leg(client, nbits)], nominal_hz)

    # ------------------------------------------------------------------
    # payload sizes
    # ------------------------------------------------------------------
    def smashed_nbytes(self, cut_layer: int) -> int:
        """Wire size of one smashed-data (or cut-gradient) batch."""
        if not self.enabled:
            return 0
        return self.codec.wire_bytes(self.smashed_scalars(cut_layer))

    def smashed_scalars(self, cut_layer: int) -> int:
        """Scalar count of one smashed-data batch."""
        if not self.enabled:
            return 0
        scalars = self._smashed_scalars.get(cut_layer)
        if scalars is None:
            full = self.profile.smashed_bytes(cut_layer, self.batch_size)
            scalars = self._smashed_scalars[cut_layer] = full // WIRE_BYTES_PER_SCALAR
        return scalars

    def model_scalars(self, nbytes: int) -> int:
        """Scalar count of a model payload whose raw float32 size is ``nbytes``."""
        return nbytes // WIRE_BYTES_PER_SCALAR

    def model_wire_nbytes(self, nbytes: int) -> int:
        """Wire size of a model payload whose raw float32 size is ``nbytes``
        (a payload of nothing ships nothing, not the codec's header)."""
        if not self.enabled or nbytes == 0:
            return nbytes
        return self.codec.wire_bytes(self.model_scalars(nbytes))

    def client_model_nbytes(self, cut_layer: int) -> int:
        if not self.enabled:
            return 0
        cached = self._client_model_nbytes.get(cut_layer)
        if cached is None:
            cached = self.profile.client_model_bytes(cut_layer)
            self._client_model_nbytes[cut_layer] = cached
        return cached

    def full_model_nbytes(self) -> int:
        if not self.enabled:
            return 0
        if self._full_model_nbytes is None:
            self._full_model_nbytes = self.profile.total_param_bytes
        return self._full_model_nbytes

    def dataset_nbytes(self, num_samples: int) -> int:
        """Raw-data payload for CL's one-time upload."""
        if not self.enabled:
            return 0
        per_sample = int(np.prod(self.profile.input_shape)) + 1  # pixels + label
        return num_samples * per_sample * WIRE_BYTES_PER_SCALAR

    @property
    def total_bandwidth_hz(self) -> float:
        if not self.enabled:
            return 1.0
        return self.system.allocator.total_bandwidth_hz
