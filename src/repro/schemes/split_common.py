"""Shared split-training engine: SL's, SplitFed's and GSFL's round.

Three layers:

* **math** — :func:`split_step_math` executes one client batch through
  the §II-B handshake (client forward → server forward/backward → client
  backward, both optimizers stepping).  It touches no shared randomness.
* **demands** — :func:`price_relay_chain` prices one relay chain's round
  (AP → first member, each member's split steps from
  :func:`price_local_round` with a :func:`price_model_relay` hop to the
  next, last member → AP) as *demands* for the runtime to resolve during
  replay.  A split step's client sides are :func:`price_smashed_upload`
  and :func:`price_gradient_return`, which PSL's lockstep prices too.
  Demand construction draws fading realizations from the wireless
  system's shared stream, so the schemes build them in protocol order;
  durations are resolved later by the DES from the instantaneous state
  of the shared medium.
* **round** — :class:`SplitFederatedScheme` is the round of GSFL (its
  groups), SplitFed (one-client groups) and SL (one group of every
  client): parallel relay chains, each against its own server-side
  replica, then one FedAvg of both halves (:meth:`~SplitFederatedScheme._aggregate`;
  SL, with one server-side model, adopts its chain's halves instead) —
  or, without the barrier, each chain's update mixed in as it lands.
  :func:`train_split_group` trains one chain from a :class:`GroupTask`
  carrying each member's batch source, drawing every mini-batch at the
  step that trains on it, so a round holds one batch at a time, and
  :func:`run_group_tasks` packs each chain's halves into its rows of the
  round's two FedAvg matrices as the chain finishes: no state dicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import nn
from repro.core.aggregation import StackedFedAvg, fedavg, mix_states
from repro.exec import SerialExecutor
from repro.nn.split import SmashedBatch, SplitModel, split_model
from repro.nn.tensor import Tensor
from repro.schemes.base import Activity, Scheme, SchemeConfig, Stage
from repro.schemes.pricing import LatencyModel, client_actor
from repro.sim.server import RetryAt, UnitRoundWork
from repro.sim.transport import TransportCodec

__all__ = [
    "split_step_math",
    "price_smashed_upload",
    "price_gradient_return",
    "price_local_round",
    "price_model_downlink",
    "price_model_uplink",
    "price_model_relay",
    "price_relay_chain",
    "GroupTask",
    "GroupResult",
    "train_split_group",
    "run_group_tasks",
    "SplitFederatedScheme",
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
    """Bookkeeping returned by :func:`train_split_group`."""

    index: int
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


def price_smashed_upload(
    pricing: LatencyModel, client_id: int, cut: int, bandwidth_hz: float
) -> list[Activity]:
    """One client's forward to the cut, then its smashed data up to the
    AP (encoded first under a lossy codec)."""
    actor = client_actor(client_id)
    return [
        Activity(
            pricing.client_forward_demand(client_id, cut),
            "client_compute",
            actor,
            detail="forward",
        ),
        *pricing.encode(client_id, pricing.smashed_scalars(cut), "smashed"),
        Activity(
            pricing.uplink_smashed_demand(client_id, cut, bandwidth_hz),
            "uplink_smashed",
            actor,
            nbytes=pricing.smashed_nbytes(cut),
        ),
    ]


def price_gradient_return(
    pricing: LatencyModel, client_id: int, cut: int, bandwidth_hz: float
) -> list[Activity]:
    """The cut-layer gradient down to one client (decoded there under a
    lossy codec), then the client's backward."""
    actor = client_actor(client_id)
    return [
        Activity(
            pricing.downlink_gradient_demand(client_id, cut, bandwidth_hz),
            "downlink_gradient",
            actor,
            nbytes=pricing.smashed_nbytes(cut),
        ),
        *pricing.decode(client_id, pricing.smashed_scalars(cut), "gradient"),
        Activity(
            pricing.client_backward_demand(client_id, cut),
            "client_compute",
            actor,
            detail="backward",
        ),
    ]


def price_local_round(
    client_id: int,
    cut: int,
    local_steps: int,
    pricing: LatencyModel,
    bandwidth_hz: float,
) -> list[Activity]:
    """Demand activity list for one client's local round (no training).

    Per batch: :func:`price_smashed_upload`, the server's split step
    (bracketed by its smashed-data decode and gradient encode under a
    lossy codec), then :func:`price_gradient_return` — in protocol order,
    which matters because transmission demands freeze realizations from
    the channel's shared fading stream.  ``bandwidth_hz`` is the
    *nominal* share (the static-model allocation); the runtime may
    resolve a different instantaneous share under a contention-aware
    policy.  The identity codec adds no codec activities at all
    (bitwise-pinned path).
    """
    actor = client_actor(client_id)
    scalars = pricing.smashed_scalars(cut)
    activities: list[Activity] = []
    for _ in range(local_steps):
        activities.extend(price_smashed_upload(pricing, client_id, cut, bandwidth_hz))
        activities.extend(pricing.decode(None, scalars, f"smashed from {actor}"))
        activities.append(
            Activity(
                pricing.server_split_step_demand(cut),
                "server_compute",
                "edge-server",
                detail=f"for {actor}",
            )
        )
        activities.extend(pricing.encode(None, scalars, f"gradient for {actor}"))
        activities.extend(price_gradient_return(pricing, client_id, cut, bandwidth_hz))
    return activities


def price_model_downlink(
    pricing: LatencyModel,
    client: int,
    nbytes: int,
    bandwidth_hz: float,
    phase: str = "model_distribution",
) -> list[Activity]:
    """AP → client model transfer at the codec's wire size."""
    actor = client_actor(client)
    wire = pricing.model_wire_nbytes(nbytes)
    scalars = pricing.model_scalars(nbytes)
    return [
        *pricing.encode(None, scalars, f"model for {actor}"),
        Activity(
            pricing.downlink_model_demand(client, wire, bandwidth_hz),
            phase,
            actor,
            nbytes=wire,
        ),
        *pricing.decode(client, scalars, "model"),
    ]


def price_model_uplink(
    pricing: LatencyModel,
    client: int,
    nbytes: int,
    bandwidth_hz: float,
    phase: str = "model_upload",
) -> list[Activity]:
    """Client → AP model transfer at the codec's wire size."""
    actor = client_actor(client)
    wire = pricing.model_wire_nbytes(nbytes)
    scalars = pricing.model_scalars(nbytes)
    return [
        *pricing.encode(client, scalars, "model upload"),
        Activity(
            pricing.uplink_model_demand(client, wire, bandwidth_hz),
            phase,
            actor,
            nbytes=wire,
        ),
        *pricing.decode(None, scalars, f"model from {actor}"),
    ]


def price_model_relay(
    pricing: LatencyModel,
    client: int,
    nxt: int,
    nbytes: int,
    bandwidth_hz: float,
) -> list[Activity]:
    """Client → AP → client model relay: both hops are one demand that
    carries twice the codec's wire size."""
    wire = pricing.model_wire_nbytes(nbytes)
    scalars = pricing.model_scalars(nbytes)
    return [
        *pricing.encode(client, scalars, "relay model"),
        Activity(
            pricing.relay_model_demand(client, nxt, wire, bandwidth_hz),
            "model_relay",
            client_actor(client),
            nbytes=2 * wire,
        ),
        *pricing.decode(nxt, scalars, "relay model"),
    ]


def price_relay_chain(
    pricing: LatencyModel,
    members: list[int],
    cut_layer: int,
    local_steps: int,
    bandwidth_hz: float,
) -> list[Activity]:
    """One relay chain's round as priced activities (no training).

    AP → first member, each member's split steps followed by the relay
    to the next member, last member → AP.  Draw order is that protocol
    order, so the shared fading stream replays identically whichever
    scheme (SL's one chain, GSFL's groups, SplitFed's one-client chains)
    prices the chain.
    """
    nbytes = pricing.client_model_nbytes(cut_layer)
    activities = price_model_downlink(pricing, members[0], nbytes, bandwidth_hz)
    for client, nxt in zip(members, [*members[1:], None]):
        activities.extend(
            price_local_round(client, cut_layer, local_steps, pricing, bandwidth_hz)
        )
        if nxt is not None:
            activities.extend(
                price_model_relay(pricing, client, nxt, nbytes, bandwidth_hz)
            )
    activities.extend(price_model_uplink(pricing, members[-1], nbytes, bandwidth_hz))
    return activities


def train_split_group(
    task: GroupTask, split: SplitModel, config: SchemeConfig, codec: TransportCodec
) -> GroupResult:
    """Train one group's pipeline sequentially on ``split``.

    Loads the task's global halves into ``split``, builds fresh SGD
    optimizers, and runs ``local_steps`` batches per member through
    :func:`split_step_math` in relay order, each drawn from the member's
    batch source at the step that trains on it.  No pricing and no shared
    RNG stream (a member's source is private to it), so the result does
    not depend on which task ran before.  The trained halves stay on
    ``split`` (:func:`_uploaded_halves`) until the next task loads over them.
    """
    split.client.load_state_dict(task.client_state)
    split.server.load_state_dict(task.server_state)
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

    return GroupResult(
        index=task.index,
        weight=task.weight,
        loss_sum=loss_sum,
        num_members=len(task.members),
    )


def _uploaded_halves(
    split: SplitModel, codec: TransportCodec, copy: bool = True
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """A trained unit's halves as the edge receives them (the client half
    coded under a lossy codec); ``copy=False`` reads the live arrays.  A
    lossy codec codes the live client arrays, since its output is a fresh
    allocation and training rebinds parameters rather than writing them.
    """
    if codec.lossy:
        client_state = codec.apply_state(split.client.state_dict(copy=False))
    else:
        client_state = split.client.state_dict(copy=copy)
    return client_state, split.server.state_dict(copy=copy)


def run_group_tasks(
    tasks: list[GroupTask], split: SplitModel, config: SchemeConfig, codec: TransportCodec
) -> tuple[list[GroupResult], StackedFedAvg, StackedFedAvg]:
    """Train every task on ``split``, one after another; results in task
    order, then the client- and server-half FedAvg matrices each task's
    halves were copied into, row by row, as it finished."""
    client_avg, server_avg = StackedFedAvg(len(tasks)), StackedFedAvg(len(tasks))

    def train(task: GroupTask) -> GroupResult:
        result = train_split_group(task, split, config, codec)
        client_state, server_state = _uploaded_halves(split, codec, copy=False)
        client_avg.add(client_state)
        server_avg.add(server_state)
        return result

    return SerialExecutor().map_groups(train, tasks), client_avg, server_avg


class SplitFederatedScheme(Scheme):
    """Parallel relay chains → barrier → one FedAvg of both halves.

    The round of GSFL (groups), SplitFed (one-client chains) and SL (one
    chain of every client, see :class:`~repro.schemes.split.SplitLearning`): each
    *unit* is a relay chain of clients training sequentially against its
    own server-side replica (the global halves it starts from), the units
    run in parallel in simulated time, and the edge FedAvg-aggregates the
    units' client halves and replicas into the next global model.
    Subclasses supply the unit member lists (:meth:`_units`) and each
    unit's nominal bandwidth (:meth:`_unit_bandwidth`), and may drop
    members from a unit-round (:meth:`_unit_members`).

    A unit-round is described once, by :meth:`_unit_work`, as its priced
    relay chain plus the :class:`GroupTask` that trains it, and both
    aggregation modes use that description: the sync round
    (:meth:`_sync_round`) collects every unit's, prices the aggregation
    from their number, trains them all through :func:`run_group_tasks`
    and aggregates once, or prices the same stages without training
    (:meth:`dry_round`); barrier-free policies train each unit-round on its
    own (:func:`train_split_group`) and merge a copy of its halves with a
    priced two-model mix.  The sync round holds one client row and one
    server row per finished unit, and at aggregation those two matrices
    only.  Under the mid-activity failure model an aborted unit-round
    never reaches :meth:`_async_apply_update` — the aggregation server
    drops its payload and records an
    :class:`~repro.sim.server.AbortRecord` instead.
    """

    supports_async = True
    #: a unit is ``f"{_unit_label}-{unit}"`` in tracks and trace details
    _unit_label = "group"
    #: the sync round FedAvgs its units' halves in a priced aggregation
    #: stage; SL's one server-side model takes its chain's halves instead
    _fedavg_units = True

    def __init__(self, *args: object, cut_layer: int = 1, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)
        self.cut_layer = cut_layer
        self.split = split_model(self.model, cut_layer)
        self._pricing = LatencyModel(
            self.system,
            self.profile,
            self.config.batch_size,
            transport=self.config.transport,
        )
        # Global halves; every unit task loads them into the split model.
        self._global_client_state = self.split.client.state_dict()
        self._global_server_state = self.split.server.state_dict()

    # ------------------------------------------------------------------
    # subclass contract
    # ------------------------------------------------------------------
    def _units(self) -> list[list[int]]:
        """Member list of every unit, in relay order."""
        raise NotImplementedError

    def _unit_bandwidth(self, unit: int) -> float:
        """Nominal bandwidth (Hz) of ``unit``'s active transmitter."""
        raise NotImplementedError

    def _unit_members(self, present: list[int]) -> list[int]:
        """The present members that train this unit-round (all of them)."""
        return present

    # ------------------------------------------------------------------
    # one unit-round
    # ------------------------------------------------------------------
    def _unit_work(self, unit: int, members: list[int]) -> tuple[list[Activity], GroupTask]:
        """``unit``'s round: its priced relay chain and its training task.

        Pricing draws from the shared fading stream, so callers describe
        units in unit order; the task draws its mini-batches later, from
        each member's own loader, at the step that trains on them.
        """
        activities = price_relay_chain(
            self._pricing,
            members,
            self.cut_layer,
            self.config.local_steps,
            self._unit_bandwidth(unit),
        )
        task = GroupTask(
            index=unit,
            members=list(members),
            samplers=[self.client_loaders[c].sample_batch for c in members],
            local_steps=self.config.local_steps,
            client_state=self._global_client_state,
            server_state=self._global_server_state,
            weight=float(sum(len(self.client_datasets[c]) for c in members)),
        )
        return activities, task

    def _load_globals(self) -> None:
        # The globals are freshly allocated (by a FedAvg or mix_states, or
        # as SL's chain's rows) and only read afterwards, so the halves
        # can adopt them without re-copying.
        self.split.client.load_state_dict(self._global_client_state, copy=False)
        self.split.server.load_state_dict(self._global_server_state, copy=False)

    # ------------------------------------------------------------------
    # sync round
    # ------------------------------------------------------------------
    def _sync_round(self) -> tuple[list[Stage], list[GroupTask]]:
        """The sync round's one description: its priced stages (every
        unit's relay chain, then the aggregation of one result per task)
        and the tasks that train it."""
        participants = set(self._round_participants())
        training = Stage("group_training")
        tasks: list[GroupTask] = []
        for unit, all_members in enumerate(self._units()):
            members = self._unit_members(
                [c for c in all_members if c in participants]
            )
            if not members:
                continue  # the whole unit sits this round out
            activities, task = self._unit_work(unit, members)
            training.extend(f"{self._unit_label}-{unit}", activities)
            tasks.append(task)
        aggregation = Stage("aggregation")
        if tasks and self._fedavg_units:
            aggregation.add(
                "edge-server",
                Activity(
                    self._pricing.aggregation_demand(
                        len(tasks), self.model.num_parameters()
                    ),
                    "aggregation",
                    "edge-server",
                ),
            )
        return [training, aggregation], tasks

    def _run_round(self, round_index: int) -> list[Stage]:
        stages, tasks = self._sync_round()
        # The units share no training state within a round (each starts
        # from the global halves — the edge replicas, concurrent in
        # simulated time), so they train one after another on one model.
        results, client_avg, server_avg = run_group_tasks(
            tasks, self.split, self.config, self._pricing.codec
        )
        trained = sum(r.num_members for r in results)
        self._last_train_loss = (
            sum(r.loss_sum for r in results) / trained if trained else float("nan")
        )
        self._aggregate(results, client_avg, server_avg)
        return stages

    def _aggregate(
        self, results: list[GroupResult], client_avg: StackedFedAvg, server_avg: StackedFedAvg
    ) -> None:
        """The units' halves become the next global model: their FedAvg,
        or SL's one chain's rows as they are.  With no unit left the round
        is a no-op and the global carries over."""
        if not results:
            return
        if self._fedavg_units:
            weights = [r.weight for r in results]
            self._global_client_state = fedavg(client_avg, weights)
            self._global_server_state = fedavg(server_avg, weights)
        else:
            self._global_client_state = client_avg.state(0)
            self._global_server_state = server_avg.state(0)
        self._load_globals()

    def dry_round(self) -> float:
        """Price the next sync round without training it; returns its
        DES-resolved seconds.

        The stages come from the description a trained round uses and
        resolve on this scheme's runtime, trace events included, so a
        fresh scheme's dry round equals its first trained round's
        ``des_s`` bit for bit.  Nothing trains, aggregates or evaluates.
        Client dynamics bite in the round driver and a barrier-free
        policy has no round to price, so both are refused.
        """
        if self.dynamics is not None or not self.aggregation_policy.synchronous:
            raise ValueError(
                "a dry round prices a fleet without client dynamics under "
                "sync aggregation"
            )
        stages, _ = self._sync_round()
        return self.aggregation_policy.resolve_round(
            self.runtime, stages, self.recorder, len(self.round_timings)
        )

    # ------------------------------------------------------------------
    # barrier-free unit rounds
    # ------------------------------------------------------------------
    def _async_units(self) -> list[int]:
        return list(range(len(self._units())))

    def _async_unit_weight(self, unit: int) -> float:
        return float(sum(len(self.client_datasets[c]) for c in self._units()[unit]))

    def _async_unit_round(
        self, unit: int, unit_round: int
    ) -> "UnitRoundWork | RetryAt":
        resolved = self._async_unit_dynamics(self._units()[unit])
        if isinstance(resolved, RetryAt):
            return resolved
        present, slowdowns = resolved
        members = self._unit_members(present)
        if not members:
            # Whole unit lost this window: the round counts for progress
            # (the lag gate must not deadlock) but commits nothing.
            return UnitRoundWork(activities=[], payload=None, weight=0.0)

        # Train against the *current* mixed global; the DES event loop
        # serializes unit-rounds.
        activities, task = self._unit_work(unit, members)
        result = train_split_group(task, self.split, self.config, self._pricing.codec)
        # The payload outlives the next unit-round, so it owns copies.
        payload = _uploaded_halves(self.split, self._pricing.codec)
        activities.append(
            Activity(
                self._pricing.aggregation_demand(2, self.model.num_parameters()),
                "aggregation",
                "edge-server",
                detail=f"async merge {self._unit_label}-{unit}",
            )
        )
        return UnitRoundWork(
            activities=activities,
            payload=payload,
            weight=result.weight,
            slowdowns=slowdowns or None,
            loss_sum=result.loss_sum,
            num_contributors=result.num_members,
        )

    def _async_apply_update(self, payload: object, alpha: float) -> None:
        client_state, server_state = payload
        self._global_client_state = mix_states(
            self._global_client_state, client_state, alpha
        )
        self._global_server_state = mix_states(
            self._global_server_state, server_state, alpha
        )
        self._load_globals()

    def _async_load_eval_model(self) -> None:
        # Unit training mutates the shared split model in place.
        self._load_globals()

    # ------------------------------------------------------------------
    # storage accounting (the paper's §I argument)
    # ------------------------------------------------------------------
    def server_side_replicas(self) -> int:
        """Server-side model replicas the edge hosts: one per unit."""
        return len(self._units())

    def server_storage_bytes(self) -> int:
        """Edge storage for the replicas."""
        if not self._pricing.enabled:
            return 0
        return self.server_side_replicas() * self.profile.server_model_bytes(
            self.cut_layer
        )
