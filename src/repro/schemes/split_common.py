"""Shared split-training engine used by SL, SplitFed and GSFL.

Two layers:

* **math** — :func:`split_step_math` executes one client batch through
  the §II-B handshake (client forward → server forward/backward → client
  backward, both optimizers stepping).  It touches no shared randomness.
* **demands** — :func:`price_local_round` builds the per-batch activity
  list (client compute / uplink / server compute / downlink) as
  *demands* for the runtime to resolve during replay.  Demand
  construction draws fading realizations from the wireless system's
  shared stream, so the schemes build them in protocol order; durations
  are resolved later by the DES from the instantaneous state of the
  shared medium.

:func:`split_local_round` composes both for the serial schemes (SL), and
:func:`train_split_group` is the work-function behind GSFL's and
SplitFed's round engines: it receives a :class:`GroupTask` carrying each
member's batch source, draws every mini-batch at the step that trains on
it — so a round holds one batch at a time, not its whole batch list —
trains the scheme's :class:`~repro.nn.split.SplitModel` from the task's
global halves, and returns the trained halves.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import nn
from repro.data.dataset import DataLoader
from repro.exec import SerialExecutor
from repro.nn.split import SmashedBatch, SplitModel
from repro.nn.tensor import Tensor
from repro.schemes.base import Activity, SchemeConfig
from repro.schemes.pricing import LatencyModel
from repro.sim.transport import TransportCodec

__all__ = [
    "split_step_math",
    "price_local_round",
    "price_model_downlink",
    "price_model_uplink",
    "split_local_round",
    "GroupTask",
    "GroupResult",
    "train_split_group",
    "run_group_tasks",
    "AsyncSplitStateMixin",
]


@dataclass
class GroupTask:
    """One group's (or client's) independent share of a training round.

    ``samplers[m]`` is member ``m``'s batch source, called once per local
    step — ``local_steps`` times in a row, at the step that trains on the
    batch.  The schemes pass each member's own
    :meth:`DataLoader.sample_batch <repro.data.dataset.DataLoader.sample_batch>`:
    a loader has a private generator and serves one task per round, so
    the draws do not depend on the order the tasks run in.
    ``client_state``/``server_state`` are the global halves the task
    loads before training.
    """

    index: int
    members: list[int]
    samplers: list[Callable[[], tuple[np.ndarray, np.ndarray]]]
    local_steps: int
    client_state: dict[str, np.ndarray]
    server_state: dict[str, np.ndarray]
    weight: float


@dataclass
class GroupResult:
    """Trained halves + bookkeeping returned by :func:`train_split_group`."""

    index: int
    client_state: dict[str, np.ndarray]
    server_state: dict[str, np.ndarray]
    weight: float
    loss_sum: float
    num_members: int


def split_step_math(
    split: SplitModel,
    client_opt: nn.Optimizer,
    server_opt: nn.Optimizer,
    xb: np.ndarray,
    yb: np.ndarray,
    loss_fn: object,
    codec: TransportCodec | None,
) -> float:
    """One batch through the split handshake; returns the batch loss."""
    lossy = codec is not None and codec.lossy
    smashed = split.client.forward_to_smashed(Tensor(xb))
    if lossy:
        # The wire carries encoded activations; the server trains on
        # exactly what the codec preserved.
        smashed = SmashedBatch(values=codec.apply(smashed.values))

    server_opt.zero_grad()
    loss_value, smashed_grad, _ = split.server.forward_backward(smashed, yb, loss_fn)
    server_opt.step()
    if lossy:
        smashed_grad = codec.apply(smashed_grad)

    client_opt.zero_grad()
    split.client.backward_from_gradient(smashed_grad)
    client_opt.step()
    return loss_value


def price_local_round(
    client_id: int,
    cut: int,
    local_steps: int,
    pricing: LatencyModel,
    bandwidth_hz: float,
) -> list[Activity]:
    """Demand activity list for one client's local round (no training).

    Activities alternate client compute / uplink / server compute /
    downlink / client compute per batch, in protocol order — the order
    matters because transmission demands freeze realizations from the
    channel's shared fading stream.  ``bandwidth_hz`` is the *nominal*
    share (the static-model allocation); the runtime may resolve a
    different instantaneous share under a contention-aware policy.
    """
    actor = f"client-{client_id}"
    # A lossy codec adds encode/decode compute on each side of every hop;
    # the identity codec adds no activities at all (bitwise-pinned path).
    lossy = pricing.codec.lossy
    scalars = pricing.smashed_scalars(cut) if lossy else 0
    activities: list[Activity] = []
    for _ in range(local_steps):
        activities.append(
            Activity(
                pricing.client_forward_demand(client_id, cut),
                "client_compute",
                actor,
                detail="forward",
            )
        )
        if lossy:
            activities.append(
                Activity(
                    pricing.client_encode_demand(client_id, scalars),
                    "encode",
                    actor,
                    detail="smashed",
                )
            )
        activities.append(
            Activity(
                pricing.uplink_smashed_demand(client_id, cut, bandwidth_hz),
                "uplink_smashed",
                actor,
                nbytes=pricing.smashed_nbytes(cut),
            )
        )
        if lossy:
            activities.append(
                Activity(
                    pricing.server_decode_demand(scalars),
                    "decode",
                    "edge-server",
                    detail=f"smashed from {actor}",
                )
            )
        activities.append(
            Activity(
                pricing.server_split_step_demand(cut),
                "server_compute",
                "edge-server",
                detail=f"for {actor}",
            )
        )
        if lossy:
            activities.append(
                Activity(
                    pricing.server_encode_demand(scalars),
                    "encode",
                    "edge-server",
                    detail=f"gradient for {actor}",
                )
            )
        activities.append(
            Activity(
                pricing.downlink_gradient_demand(client_id, cut, bandwidth_hz),
                "downlink_gradient",
                actor,
                nbytes=pricing.smashed_nbytes(cut),
            )
        )
        if lossy:
            activities.append(
                Activity(
                    pricing.client_decode_demand(client_id, scalars),
                    "decode",
                    actor,
                    detail="gradient",
                )
            )
        activities.append(
            Activity(
                pricing.client_backward_demand(client_id, cut),
                "client_compute",
                actor,
                detail="backward",
            )
        )
    return activities


def price_model_downlink(
    pricing: LatencyModel,
    client: int,
    nbytes: int,
    bandwidth_hz: float,
    phase: str = "model_distribution",
) -> list[Activity]:
    """AP → client model transfer at the codec's wire size.

    With a lossy codec the transfer is bracketed by a server-side encode
    and a client-side decode; the identity codec emits the bare transfer
    with the raw byte count (bitwise-pinned path).
    """
    actor = f"client-{client}"
    wire = pricing.model_wire_nbytes(nbytes)
    activities = []
    if pricing.codec.lossy:
        scalars = pricing.model_scalars(nbytes)
        activities.append(
            Activity(
                pricing.server_encode_demand(scalars),
                "encode",
                "edge-server",
                detail=f"model for {actor}",
            )
        )
    activities.append(
        Activity(
            pricing.downlink_model_demand(client, wire, bandwidth_hz),
            phase,
            actor,
            nbytes=wire,
        )
    )
    if pricing.codec.lossy:
        activities.append(
            Activity(
                pricing.client_decode_demand(client, scalars),
                "decode",
                actor,
                detail="model",
            )
        )
    return activities


def price_model_uplink(
    pricing: LatencyModel,
    client: int,
    nbytes: int,
    bandwidth_hz: float,
    phase: str = "model_upload",
) -> list[Activity]:
    """Client → AP model transfer at the codec's wire size (see above)."""
    actor = f"client-{client}"
    wire = pricing.model_wire_nbytes(nbytes)
    activities = []
    if pricing.codec.lossy:
        scalars = pricing.model_scalars(nbytes)
        activities.append(
            Activity(
                pricing.client_encode_demand(client, scalars),
                "encode",
                actor,
                detail="model upload",
            )
        )
    activities.append(
        Activity(
            pricing.uplink_model_demand(client, wire, bandwidth_hz),
            phase,
            actor,
            nbytes=wire,
        )
    )
    if pricing.codec.lossy:
        activities.append(
            Activity(
                pricing.server_decode_demand(scalars),
                "decode",
                "edge-server",
                detail=f"model from {actor}",
            )
        )
    return activities


def split_local_round(
    client_id: int,
    split: SplitModel,
    client_opt: nn.Optimizer,
    server_opt: nn.Optimizer,
    loader: DataLoader,
    loss_fn: object,
    local_steps: int,
    pricing: LatencyModel,
    bandwidth_hz: float,
) -> tuple[float, list[Activity]]:
    """One client's split-training round (math + pricing, in-line).

    Returns ``(mean_batch_loss, activities)`` where activities alternate
    client compute / uplink / server compute / downlink per batch.
    """
    total_loss = 0.0
    for _ in range(local_steps):
        xb, yb = loader.sample_batch()
        total_loss += split_step_math(
            split, client_opt, server_opt, xb, yb, loss_fn,
            pricing.codec,
        )
    activities = price_local_round(
        client_id, split.cut_layer, local_steps, pricing, bandwidth_hz
    )
    return total_loss / local_steps, activities


def train_split_group(
    task: GroupTask, split: SplitModel, config: SchemeConfig
) -> GroupResult:
    """Train one group's pipeline sequentially on ``split``.

    Loads the task's global halves into ``split``, builds fresh SGD
    optimizers, and runs ``local_steps`` batches per member through
    :func:`split_step_math` in relay order, each drawn from the member's
    batch source at the step that trains on it.  No pricing and no shared
    RNG stream (a member's source is private to it), so the result does
    not depend on which task ran before.
    """
    split.client.load_state_dict(task.client_state)
    split.server.load_state_dict(task.server_state)
    codec = config.codec
    if codec.lossy:
        # Model distribution crosses the air: the first member starts
        # from what the codec preserved of the global client half.  (The
        # server half is co-located with the edge server — never coded.)
        split.client.load_state_dict(codec.apply_state(split.client.state_dict()))
    client_opt = config.make_sgd(split.client.parameters())
    server_opt = config.make_sgd(split.server.parameters())
    loss_fn = nn.CrossEntropyLoss()

    loss_sum = 0.0
    for position, next_batch in enumerate(task.samplers):
        if codec.lossy and position > 0:
            # Client→AP→client relay: the next member receives the coded
            # client half (parameter identity is preserved, so the live
            # optimizer keeps stepping the same parameters).
            split.client.load_state_dict(
                codec.apply_state(split.client.state_dict())
            )
        member_loss = 0.0
        for _ in range(task.local_steps):
            xb, yb = next_batch()
            member_loss += split_step_math(
                split, client_opt, server_opt, xb, yb, loss_fn, codec
            )
        loss_sum += member_loss / task.local_steps

    # The next task trains the same modules, so the result owns copies.
    client_state = split.client.state_dict()
    if codec.lossy:
        # The last member uploads its client half over the air.
        client_state = codec.apply_state(client_state)
    return GroupResult(
        index=task.index,
        client_state=client_state,
        server_state=split.server.state_dict(),
        weight=task.weight,
        loss_sum=loss_sum,
        num_members=len(task.members),
    )


class AsyncSplitStateMixin:
    """Barrier-free server math shared by the split schemes (GSFL, SplitFed).

    Hosts the two global halves' async plumbing: commits mix the update
    into ``_global_client_state`` / ``_global_server_state`` and keep the
    scheme's :class:`~repro.nn.split.SplitModel` loaded with the mixed
    global (the halves share modules with the full evaluation model).

    Under the mid-activity failure model a unit-round whose track
    surrendered never reaches :meth:`_async_apply_update` — the
    aggregation server drops the payload before committing and records
    the loss as an :class:`~repro.sim.server.AbortRecord` instead, so the
    mixed global only ever contains updates whose uploads genuinely
    completed.
    """

    def _async_apply_update(self, payload: object, alpha: float) -> None:
        # Imported lazily: ``repro.core`` package init imports the GSFL
        # scheme, which imports this module — a top-level import here
        # would close that cycle mid-initialization.
        from repro.core.aggregation import mix_states

        client_state, server_state = payload
        self._global_client_state = mix_states(
            self._global_client_state, client_state, alpha
        )
        self._global_server_state = mix_states(
            self._global_server_state, server_state, alpha
        )
        # mix_states allocates fresh arrays and the globals are only read
        # afterwards, so the halves can adopt them without re-copying.
        self.split.client.load_state_dict(self._global_client_state, copy=False)
        self.split.server.load_state_dict(self._global_server_state, copy=False)

    def _async_load_eval_model(self) -> None:
        # Unit training mutates the shared split model in place; reload
        # the mixed global before every evaluation snapshot.
        self.split.client.load_state_dict(self._global_client_state, copy=False)
        self.split.server.load_state_dict(self._global_server_state, copy=False)


def run_group_tasks(
    tasks: list[GroupTask], split: SplitModel, config: SchemeConfig
) -> list[GroupResult]:
    """Train every task on ``split``, one after another; results in task order."""
    return SerialExecutor().map_groups(
        functools.partial(train_split_group, split=split, config=config), tasks
    )
