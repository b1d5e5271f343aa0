"""Scheme framework: demand-based activities, parallel stages, DES runtime.

Every training scheme produces, per round, a sequence of **stages**; a
stage holds one **track** (list of sequential :class:`Activity`) per
concurrently executing actor.  Tracks inside a stage run in parallel,
stages are separated by barriers (exactly the structure of GSFL: parallel
group training → barrier → aggregation).

Activities no longer carry pre-priced durations: they carry **demands**
(FLOPs for compute, bytes + channel context for transmission — see
:mod:`repro.sim.runtime`), and a persistent per-run
:class:`~repro.sim.runtime.Runtime` resolves each demand *during replay*
— against a shared :class:`~repro.sim.resources.FairShareLink` medium
whose bandwidth division reacts to the instantaneously active
transmitter set, per-device compute resources, and per-round straggler
multipliers.  The actual numpy training still runs when the scheme
builds its activities (one pipeline after another on the host, even
where the simulated pipelines overlap); the runtime then resolves the
timing structure to compose wall-clock latency and emit the global
trace.  This split keeps learning math and latency simulation decoupled
while both stay exact: groups never share state inside a round, so
neither host execution order nor the timing model can change the
learned weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro import nn
from repro.data.dataset import DataLoader, Dataset
from repro.metrics.evaluate import EVAL_SLAB, evaluate_model
from repro.metrics.history import TrainingHistory
from repro.sim.cross_traffic import CrossTrafficConfig, start_cross_traffic
from repro.sim.failures import FailureInjector
from repro.sim.runtime import (
    Demand,
    Runtime,
    TrackRecovery,
    demand_lower_bound_s,
    demand_nominal_s,
)
from repro.sim.server import (
    AggregationServer,
    RetryAt,
    StalenessPolicy,
    UnitRoundWork,
    UpdateRecord,
    parse_aggregation,
)
from repro.sim.trace import TraceRecorder
from repro.sim.transport import TransportCodec, parse_transport
from repro.utils.rng import spawn_rngs
from repro.utils.validation import check_in_choices, check_positive

if TYPE_CHECKING:  # pragma: no cover - type-only (experiments imports us)
    from repro.experiments.dynamics import ClientDynamics, RoundConditions

__all__ = [
    "Activity",
    "Stage",
    "RoundTiming",
    "SchemeConfig",
    "Scheme",
    "MEDIUM_POLICIES",
]

#: medium share policies selectable via :class:`SchemeConfig`
MEDIUM_POLICIES = ("static", "contended")


@dataclass(frozen=True)
class Activity:
    """One attributed unit of simulated work, described by its demand.

    ``demand`` may be a plain float — shorthand for a fixed, pre-resolved
    duration (zero-priced mode, waits, tests).
    """

    demand: "Demand"
    phase: str
    actor: str
    nbytes: int = 0
    detail: str = ""

    def __post_init__(self) -> None:
        if isinstance(self.demand, (int, float)) and self.demand < 0:
            raise ValueError(f"negative duration: {self}")

    @property
    def duration_s(self) -> float:
        """Analytic *lower bound* on the resolved duration.

        Transmissions are priced with the whole medium to themselves and
        compute without straggler slowdown, so no share policy or
        injected disturbance can resolve the activity faster.  The
        DES-resolved duration is exact; this is the floor it never
        undercuts.
        """
        return demand_lower_bound_s(self.demand)

    @property
    def nominal_s(self) -> float:
        """Static-share analytic duration (the pre-runtime pricing model)."""
        return demand_nominal_s(self.demand)


@dataclass
class Stage:
    """Parallel tracks separated from neighbouring stages by barriers."""

    name: str
    tracks: dict[str, list[Activity]] = field(default_factory=dict)

    def add(self, track: str, activity: Activity) -> None:
        self.tracks.setdefault(track, []).append(activity)

    def extend(self, track: str, activities: list[Activity]) -> None:
        self.tracks.setdefault(track, []).extend(activities)

    @property
    def duration_s(self) -> float:
        """Analytic stage-latency *lower bound*: max over tracks of summed
        per-activity lower bounds.  The DES-resolved stage span is always
        at least this long (see :attr:`Activity.duration_s`)."""
        if not self.tracks:
            return 0.0
        return max(
            sum(a.duration_s for a in acts) for acts in self.tracks.values()
        )

    @property
    def nominal_duration_s(self) -> float:
        """Static-share analytic stage latency (pre-runtime model)."""
        if not self.tracks:
            return 0.0
        return max(
            sum(a.nominal_s for a in acts) for acts in self.tracks.values()
        )


@dataclass(frozen=True)
class RoundTiming:
    """Per-round timing triple kept by the scheme driver.

    ``des_s`` is the runtime-resolved duration, ``analytic_s`` the
    static-share model (sum of stage nominal durations — what the old
    pricing pipeline would have reported), ``lower_bound_s`` the
    contention-free floor.  Under the static policy with no dynamics,
    ``des_s == analytic_s``; a contention-aware policy or straggler
    injection makes them diverge while ``des_s >= lower_bound_s`` always
    holds.
    """

    round_index: int
    des_s: float
    analytic_s: float
    lower_bound_s: float


@dataclass
class SchemeConfig:
    """Hyper-parameters shared by all schemes.

    ``local_steps`` is the number of mini-batches each client processes
    per round (the paper's "training epoch" per client, scaled to the
    synthetic dataset).  Momentum defaults to 0 so optimizer state need
    not ride along with relayed models in the split schemes.

    ``transport`` (extension beyond the paper) names the wire codec for
    everything that crosses the air — smashed data, gradients, and model
    payloads: ``"float32"`` (identity, the default), ``"int8"`` /
    ``"intk:K"`` uniform affine quantization, ``"topk:F"`` magnitude
    sparsification.  Training genuinely sees the codec's error, the
    latency model prices the smaller payloads, and encode/decode FLOPs
    are charged to the owning device — see :mod:`repro.sim.transport`.

    ``medium`` selects how the runtime's shared wireless medium divides
    bandwidth: ``"static"`` gives every transmission exactly its nominal
    allocation (the analytic model — subchannels sit idle when their
    owner computes), ``"contended"`` re-runs the system's bandwidth
    allocator over the *instantaneously active* transmitter set on every
    flow arrival/departure, so shares change as group pipelines drift
    apart.

    ``aggregation`` selects when the server folds unit updates into the
    global model: ``"sync"`` is the paper's per-round barrier,
    ``"async"`` FedAsync-style barrier-free aggregation with polynomial
    staleness decay, ``"bounded:K"`` barrier-free with an SSP-style
    max-lag gate (``bounded:0`` *is* the sync barrier) — see
    :mod:`repro.sim.server`.

    ``regroup`` / ``regroup_every`` select how group-structured schemes
    (GSFL) re-partition the fleet between rounds: ``"static"`` keeps the
    construction-time partition forever (today's behaviour, golden-pinned
    bitwise), ``"availability_aware"`` re-deals by expected remaining
    up-time from the churn trace, ``"abort_history"`` by an EWMA of the
    fault telemetry — see :mod:`repro.core.regroup`.  ``regroup_every``
    is the round period of the re-partition (evaluated from round 1 on).
    Schemes without group structure ignore both knobs.
    """

    batch_size: int = 16
    local_steps: int = 2
    lr: float = 0.05
    momentum: float = 0.0
    weight_decay: float = 0.0
    eval_every: int = 1
    eval_batch_size: int = EVAL_SLAB
    transport: str = "float32"
    medium: str = "static"
    aggregation: str = "sync"
    regroup: str = "static"
    regroup_every: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        # Function-level import: repro.core.gsfl imports this module, so a
        # top-level import of repro.core.* here would cycle at package init.
        from repro.core.regroup import REGROUP_POLICIES

        check_positive("batch_size", self.batch_size)
        check_positive("local_steps", self.local_steps)
        check_positive("lr", self.lr)
        check_positive("eval_every", self.eval_every)
        check_positive("eval_batch_size", self.eval_batch_size)
        check_in_choices("medium", self.medium, MEDIUM_POLICIES)
        check_in_choices("regroup", self.regroup, REGROUP_POLICIES)
        check_positive("regroup_every", self.regroup_every)
        parse_aggregation(self.aggregation)  # raises on malformed specs
        self.transport = parse_transport(self.transport).name

    @property
    def codec(self) -> TransportCodec:
        """The resolved wire codec (:mod:`repro.sim.transport`)."""
        return parse_transport(self.transport)

    def make_sgd(self, params: "object") -> nn.SGD:
        """A fresh SGD optimizer over ``params`` with these hyper-parameters."""
        return nn.SGD(
            params,
            lr=self.lr,
            momentum=self.momentum,
            weight_decay=self.weight_decay,
        )


class Scheme:
    """Base class for the training schemes (CL / FL / SL / SplitFed / GSFL).

    Subclasses implement :meth:`_run_round`, returning the round's stages;
    the base class owns the loop: round conditions (churn / participation
    / stragglers) → eager training → runtime resolution → periodic
    evaluation into a :class:`~repro.metrics.history.TrainingHistory`.
    """

    name = "base"
    #: whether the scheme implements the barrier-free unit-pipeline
    #: contract (set by subclasses that override the ``_async_*`` hooks)
    supports_async = False
    #: how the scheme recovers from a mid-activity preemption once the
    #: retry budget is spent: ``"retry"`` surrenders the round (FL /
    #: SplitFed — the unit *is* the dead client), ``"reroute"`` skips the
    #: dead client's pipeline section and continues with the survivors
    #: (GSFL relay chains)
    _recovery_mode = "retry"

    def __init__(
        self,
        model: nn.Sequential,
        client_datasets: list[Dataset],
        test_dataset: Dataset,
        system: "object | None" = None,
        profile: nn.ModelProfile | None = None,
        config: SchemeConfig | None = None,
        recorder: TraceRecorder | None = None,
        dynamics: "ClientDynamics | None" = None,
        cross_traffic: "CrossTrafficConfig | None" = None,
    ) -> None:
        if not client_datasets:
            raise ValueError("need at least one client dataset")
        self.model = model
        self.client_datasets = client_datasets
        self.test_dataset = test_dataset
        self.system = system
        self.profile = profile
        self.config = config or SchemeConfig()
        self.recorder = recorder if recorder is not None else TraceRecorder()
        self.dynamics = dynamics
        self.history = TrainingHistory(scheme=self.name)
        self.runtime = self._make_runtime()
        # Background cross-traffic competes with the protocol's flows for
        # raw link capacity (scenario-catalog worlds); None leaves the
        # medium untouched, so every historical run is byte-for-byte
        # unaffected.
        self.cross_traffic = cross_traffic
        if cross_traffic is not None and self.runtime.medium is not None:
            if self.config.medium != "static":
                raise ValueError(
                    "cross-traffic requires the 'static' medium: allocator-"
                    "backed contended policies index flows by client id and "
                    "cannot host anonymous background transmitters"
                )
            start_cross_traffic(self.runtime, cross_traffic)
        # Mid-activity failure model: arm the runtime's preemption source.
        # ``none``/``round`` leave the injector unset, so demand
        # resolution is event-for-event identical to the historical path
        # (the golden-history suite pins that bitwise).
        self.failure_model = (
            dynamics.config.failure_model if dynamics is not None else "none"
        )
        if (
            dynamics is not None
            and self.failure_model == "mid-activity"
            and dynamics.config.has_churn
        ):
            self.runtime.failure_injector = FailureInjector(dynamics)
        self.aggregation_policy: StalenessPolicy = parse_aggregation(
            self.config.aggregation
        )
        self._aggregation_server: AggregationServer | None = None
        self.round_timings: list[RoundTiming] = []
        self._round_conditions: "RoundConditions | None" = None
        self._elapsed_s = 0.0
        self._last_train_loss = float("nan")

        rngs = spawn_rngs(self.config.seed, len(client_datasets))
        self.client_loaders = [
            DataLoader(
                ds, batch_size=self.config.batch_size, shuffle=True, seed=rng
            )
            for ds, rng in zip(client_datasets, rngs)
        ]

    def _make_runtime(self) -> Runtime:
        """One persistent runtime per run; contended medium on request."""
        if self.system is None:
            return Runtime()
        total_hz = self.system.allocator.total_bandwidth_hz
        if self.config.medium == "contended":
            from repro.wireless.bandwidth import as_share_policy

            policy = as_share_policy(self.system.allocator, self.system.channel)
            return Runtime(total_hz, policy)
        return Runtime(total_hz)

    # ------------------------------------------------------------------
    # subclass contract
    # ------------------------------------------------------------------
    @property
    def num_clients(self) -> int:
        return len(self.client_datasets)

    def _run_round(self, round_index: int) -> list[Stage]:
        """Train one round eagerly and return its timing stages."""
        raise NotImplementedError

    def _evaluation_model(self) -> nn.Module:
        """Model to evaluate after a round (global/aggregated view)."""
        return self.model

    def _round_participants(self) -> list[int]:
        """Clients taking part in the current round (all, without dynamics)."""
        if self._round_conditions is None:
            return list(range(self.num_clients))
        return list(self._round_conditions.participants)

    # ------------------------------------------------------------------
    # asynchronous-aggregation contract (opt-in per scheme)
    # ------------------------------------------------------------------
    def _async_units(self) -> list[int]:
        """Independent pipelines for barrier-free aggregation.

        Schemes with parallel unit pipelines (GSFL groups, SplitFed/FL
        clients) override this together with :meth:`_async_unit_round`,
        :meth:`_async_apply_update` and :meth:`_async_load_eval_model`
        and set ``supports_async``; inherently sequential schemes keep
        the barrier.
        """
        raise ValueError(
            f"scheme {self.name!r} does not support "
            f"aggregation={self.config.aggregation!r}; only 'sync'"
        )

    def _async_unit_round(
        self, unit: int, unit_round: int
    ) -> "UnitRoundWork | RetryAt":
        """Eagerly train one unit-round at the current simulated time."""
        raise NotImplementedError

    def _async_apply_update(self, payload: object, alpha: float) -> None:
        """Merge one committed update into the global state (server math)."""
        raise NotImplementedError

    def _async_load_eval_model(self) -> None:
        """Load the mixed global state into the evaluation model."""
        raise NotImplementedError

    def _async_unit_dynamics(
        self, members: list[int]
    ) -> "tuple[list[int], dict[int, float]] | RetryAt":
        """Resolve churn/participation/stragglers for one unit-round.

        Returns the surviving members plus straggler slowdowns, or a
        :class:`RetryAt` when every member is inside a churn down-window.
        """
        if self.dynamics is None:
            return list(members), {}
        now = self.runtime.now
        present, slowdowns = self.dynamics.unit_round_conditions(members, now)
        if not present:
            resume = self.dynamics.next_recovery_s(now, clients=members)
            if resume is not None and resume > now:
                return RetryAt(resume)
        return present, slowdowns

    def _track_recovery(self) -> "TrackRecovery | None":
        """Recovery semantics for preempted tracks (``None`` = disabled)."""
        injector = self.runtime.failure_injector
        if injector is None or self.dynamics is None:
            return None
        return TrackRecovery(
            resume_s=injector.recovery_s,
            max_retries=self.dynamics.config.max_retries,
            mode=self._recovery_mode,
        )

    @property
    def aggregation_updates(self) -> "list[UpdateRecord]":
        """Per-commit staleness log of a barrier-free run (empty for sync)."""
        if self._aggregation_server is None:
            return []
        return list(self._aggregation_server.updates)

    @property
    def aggregation_aborts(self) -> "list":
        """Aborted/partial unit-round contributions of a barrier-free run
        (:class:`~repro.sim.server.AbortRecord`; empty for sync)."""
        if self._aggregation_server is None:
            return []
        return list(self._aggregation_server.aborted)

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------
    def run(self, num_rounds: int) -> TrainingHistory:
        """Train for ``num_rounds`` rounds; returns the filled history.

        The configured :class:`~repro.sim.server.StalenessPolicy` decides
        the round structure: the sync barrier replays the classic
        stage-by-stage loop; barrier-free policies hand the scheme's unit
        pipelines to a DES-resident :class:`AggregationServer`.
        """
        check_positive("num_rounds", num_rounds)
        if self.aggregation_policy.synchronous:
            return self._run_sync(num_rounds)
        return self._run_async(num_rounds)

    def _run_sync(self, num_rounds: int) -> TrainingHistory:
        """Classic barriered loop (the paper's per-round protocol)."""
        for r in range(num_rounds):
            if self.dynamics is not None:
                conditions = self.dynamics.begin_round(r, self.runtime.now)
                if not conditions.participants:
                    # Everybody is down: a zero-cost round would freeze
                    # the clock and replay the same all-down snapshot
                    # forever.  Wait out the churn window instead.
                    next_up = getattr(self.dynamics, "next_recovery_s", None)
                    resume = next_up(self.runtime.now) if next_up else None
                    if resume is not None and resume > self.runtime.now:
                        self.runtime.advance_to(resume)
                        conditions = self.dynamics.begin_round(r, self.runtime.now)
                self._round_conditions = conditions
                slowdowns = conditions.slowdowns
            else:
                slowdowns = None
            stages = self._run_round(r)
            aborts_before = len(self.recorder.aborts)
            duration = self.aggregation_policy.resolve_round(
                self.runtime, stages, self.recorder, r,
                compute_slowdown=slowdowns, recovery=self._track_recovery(),
            )
            lower = sum(s.duration_s for s in stages)
            analytic = sum(s.nominal_duration_s for s in stages)
            if (
                len(self.recorder.aborts) == aborts_before
                and duration < lower * (1.0 - 1e-9) - 1e-12
            ):
                # Mid-activity preemption legitimately cuts tracks short
                # (a surrendered/rerouted track skips activities), so the
                # floor only binds on rounds in which no abort fired.
                raise AssertionError(
                    f"DES-resolved round duration ({duration}) undercuts the "
                    f"analytic lower bound ({lower}) — kernel or demand bug"
                )
            self.round_timings.append(RoundTiming(r, duration, analytic, lower))
            self._elapsed_s = self.runtime.now
            if (r + 1) % self.config.eval_every == 0 or r == num_rounds - 1:
                self._record_eval(r)
        return self.history

    def _run_async(self, num_rounds: int) -> TrainingHistory:
        """Barrier-free loop: unit pipelines + the DES aggregation server.

        Every unit (group or client) runs ``num_rounds`` rounds as its
        own free-running DES process; the server merges each update the
        moment it lands, weighted by staleness.  History points keep the
        sync semantics: global round ``r`` completes when the *slowest*
        unit finishes its ``r``-th round, and evaluation snapshots the
        mixed global model at that instant (which may already contain
        later-round contributions from faster units — the point of
        dropping the barrier).
        """
        units = self._async_units()
        weights = [self._async_unit_weight(u) for u in units]
        server = AggregationServer(
            self.runtime,
            self.aggregation_policy,
            num_units=len(units),
            total_weight=sum(weights),
            apply_update=self._async_apply_update,
        )
        self._aggregation_server = server

        loss_sums = [0.0] * num_rounds
        loss_counts = [0] * num_rounds
        nominal_s = [0.0] * num_rounds
        recorded = 0
        last_end = self.runtime.now

        def work_fn(unit_index: int, unit_round: int) -> "UnitRoundWork | RetryAt":
            work = self._async_unit_round(units[unit_index], unit_round)
            if isinstance(work, UnitRoundWork) and work.recovery is None:
                work.recovery = self._track_recovery()
            return work

        def on_commit(
            unit_index: int,
            unit_round: int,
            work: UnitRoundWork,
            record: "UpdateRecord | None",
        ) -> None:
            nonlocal recorded, last_end
            loss_sums[unit_round] += work.loss_sum
            loss_counts[unit_round] += work.num_contributors
            nominal_s[unit_round] = max(
                nominal_s[unit_round], sum(a.nominal_s for a in work.activities)
            )
            finished = min(server.completed)
            while recorded < finished:
                r = recorded
                now = self.runtime.now
                # Rounds overlap under barrier-free policies, so the
                # contention-free per-round floor is vacuous (0); the
                # analytic column keeps the static barrier model's
                # estimate for sync-vs-async latency comparisons.
                self.round_timings.append(
                    RoundTiming(r, now - last_end, nominal_s[r], 0.0)
                )
                last_end = now
                self._elapsed_s = now
                if loss_counts[r]:
                    self._last_train_loss = loss_sums[r] / loss_counts[r]
                if (r + 1) % self.config.eval_every == 0 or r == num_rounds - 1:
                    self._async_load_eval_model()
                    self._record_eval(r)
                recorded += 1

        server.run(work_fn, num_rounds, recorder=self.recorder, on_commit=on_commit)
        self._elapsed_s = self.runtime.now
        return self.history

    def _async_unit_weight(self, unit: int) -> float:
        """Static FedAvg sample weight of one unit (normalizes mixing)."""
        raise NotImplementedError

    def _record_eval(self, round_index: int) -> None:
        _, acc = evaluate_model(
            self._evaluation_model(),
            self.test_dataset,
            batch_size=self.config.eval_batch_size,
        )
        self.history.add(
            round_index=round_index + 1,
            latency_s=self._elapsed_s,
            train_loss=self._last_train_loss,
            test_accuracy=acc,
        )

    # ------------------------------------------------------------------
    # shared helpers for subclasses
    # ------------------------------------------------------------------
    def _client_sample_counts(self, clients: list[int] | None = None) -> np.ndarray:
        if clients is None:
            clients = range(len(self.client_datasets))
        return np.array(
            [len(self.client_datasets[c]) for c in clients], dtype=np.float64
        )
