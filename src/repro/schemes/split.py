"""Vanilla split learning (SL) baseline.

Gupta & Raskar's sequential protocol: one client-side model is relayed
client-to-client (through the AP, as in the paper's model-sharing step)
while a single server-side model at the edge absorbs every client's
smashed data in turn.  All N clients train *sequentially* within a round
— the "long training latency" (§I) that motivates GSFL.  The whole round
is one serial track, with the full system bandwidth available to the
single active transmitter.
"""

from __future__ import annotations

from repro import nn
from repro.nn.split import split_model
from repro.schemes.base import Scheme, Stage
from repro.schemes.pricing import LatencyModel
from repro.schemes.split_common import price_relay_chain, split_step_math

__all__ = ["SplitLearning"]


class SplitLearning(Scheme):
    """SL: sequential relay split learning with a single server model."""

    name = "SL"

    def __init__(self, *args: object, cut_layer: int = 1, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)
        self.cut_layer = cut_layer
        self.split = split_model(self.model, cut_layer)
        self._client_opt = self.config.make_sgd(self.split.client.parameters())
        self._server_opt = self.config.make_sgd(self.split.server.parameters())
        self._loss_fn = nn.CrossEntropyLoss()
        self._pricing = LatencyModel(
            self.system,
            self.profile,
            self.config.batch_size,
            transport=self.config.transport,
        )

    def _code_client_half(self) -> None:
        """Round-trip the client half through a lossy wire codec in place.

        ``load_state_dict`` rebinds parameter data without changing
        parameter identity, so the persistent optimizer keeps stepping
        the same parameters.
        """
        codec = self._pricing.codec
        if codec.lossy:
            self.split.client.load_state_dict(
                codec.apply_state(self.split.client.state_dict())
            )

    def _run_round(self, round_index: int) -> list[Stage]:
        participants = self._round_participants()
        if not participants:
            return []
        # The whole round is one relay chain whose sole transmitter gets
        # all the bandwidth.  It is priced up front: training draws only
        # from the members' own loaders, never from the fading stream.
        stage = Stage("sequential_training")
        stage.extend(
            "sl-relay",
            price_relay_chain(
                self._pricing,
                participants,
                self.cut_layer,
                self.config.local_steps,
                self._pricing.total_bandwidth_hz,
            ),
        )
        local_steps = self.config.local_steps
        total_loss = 0.0
        for client in participants:
            # The AP's downlink (first member) or the previous member's
            # relay delivered the client half through the wire codec.
            self._code_client_half()
            next_batch = self.client_loaders[client].sample_batch
            member_loss = 0.0
            for _ in range(local_steps):
                xb, yb = next_batch()
                member_loss += split_step_math(
                    self.split, self._client_opt, self._server_opt, xb, yb,
                    self._loss_fn, self._pricing.codec,
                )
            total_loss += member_loss / local_steps
        self._code_client_half()  # the last member's upload to the AP

        self._last_train_loss = total_loss / len(participants)
        return [stage]

    def server_side_replicas(self) -> int:
        """Vanilla SL hosts a single server-side model."""
        return 1

    def server_storage_bytes(self) -> int:
        if not self._pricing.enabled:
            return 0
        return self.profile.server_model_bytes(self.cut_layer)
