"""Demand-resolving execution runtime over the discrete-event kernel.

Schemes describe **what** each protocol step needs — FLOPs on a device,
bytes over the shared wireless medium — and the runtime decides **how
long** it takes, *during replay*, from the simulation's instantaneous
state.  This inverts the old pipeline where every activity arrived
pre-priced with a fixed duration and the kernel merely re-enacted it:
with a contention-aware share policy, a transmission started while three
other pipelines are on the air runs slower than the same transmission
started alone, exactly the coupling behind the paper's GSFL-vs-SL
latency crossover.

Demand vocabulary:

* a ``float`` — a pre-resolved duration (zero-priced mode, waits, tests);
* :class:`ComputeDemand` — FLOPs against a device's throughput; the
  runtime applies per-round straggler multipliers at resolve time and
  serializes each client device through a capacity-1 FIFO
  :class:`~repro.sim.resources.Resource`;
* :class:`TransmitDemand` — bytes over the shared medium, as one or more
  sequential :class:`TransmitLeg` s (a client→AP→client relay is two
  legs).  Each leg carries a ``rate_fn`` mapping allocated bandwidth
  (Hz) to an instantaneous bitrate with the leg's fading realization
  frozen inside, so the *realization* is drawn in protocol order at
  demand-construction time while the *duration* is resolved by the
  :class:`~repro.sim.resources.FairShareLink` at replay time.

Every demand exposes two analytic views: ``nominal_s`` (the static-share
model — the duration under the demand's declared nominal bandwidth, i.e.
the pre-refactor pricing) and ``lower_bound_s`` (the duration with the
whole medium to itself and no straggler slowdown — a true lower bound
under any share policy, since no flow can be allocated more than the
total bandwidth).

One :class:`Runtime` persists per training run: a single
:class:`~repro.sim.engine.Environment` whose clock never restarts, so
trace events carry absolute timestamps with no per-round offset
bookkeeping.

Under mid-activity churn the ``failure_injector`` is the run's client
dynamics (scripted stand-ins in tests); the kernel asks it only
``up_deadline(client, now)`` — until when may an activity started now
run — and ``recovery_s(client, now)`` — when does a failed client come
back up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Generator, Union

from repro.sim.engine import Environment
from repro.sim.resources import FairShareLink, NominalShare, Resource, SharePolicy
from repro.sim.trace import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - type-only import (layering)
    from repro.sim.events import Event

__all__ = [
    "ComputeDemand",
    "TransmitLeg",
    "TransmitDemand",
    "Demand",
    "demand_lower_bound_s",
    "demand_nominal_s",
    "demand_clients",
    "Preemption",
    "TrackRecovery",
    "TrackOutcome",
    "Runtime",
]


@dataclass(frozen=True)
class ComputeDemand:
    """``flops`` of work against a device running at ``flops_per_s``.

    ``client`` is ``None`` for the edge server (never straggles, never
    serialized — the paper's "abundant" edge resources); ``multiplier``
    prices batched work as a multiple of one unit (PSL's fused server
    batch is ``N×`` one group-batch step).
    """

    flops: float
    flops_per_s: float
    client: int | None = None
    multiplier: float = 1.0

    def __post_init__(self) -> None:
        if self.flops < 0:
            raise ValueError(f"negative flops: {self.flops}")
        if self.flops_per_s <= 0:
            raise ValueError(f"flops_per_s must be positive, got {self.flops_per_s}")

    @property
    def base_seconds(self) -> float:
        return self.flops / self.flops_per_s * self.multiplier

    @property
    def lower_bound_s(self) -> float:
        return self.base_seconds

    @property
    def nominal_s(self) -> float:
        return self.base_seconds


@dataclass(frozen=True)
class TransmitLeg:
    """One directed hop of a transmission.

    ``rate_fn`` maps allocated bandwidth in Hz to an achievable bitrate
    in bit/s, with the hop's block-fading realization frozen inside (the
    draw happened in protocol order when the demand was built) — a
    deterministic function of the allocation, which a contended link
    evaluates at most once per distinct allocation per submission (a leg
    re-submitted after an abort is priced afresh).
    ``direction`` ("uplink"/"downlink", optional) labels the hop for
    per-leg trace rows, which is what lets the energy model charge a
    relay's sender TX and receiver RX separately.
    """

    nbits: float
    client: int
    rate_fn: Callable[[float], float]
    direction: str = ""


@dataclass(frozen=True)
class TransmitDemand:
    """Bytes over the shared medium: sequential legs + bandwidth context.

    ``nominal_hz`` is the static-model allocation (what the analytic
    pricing assumed, e.g. ``B/M`` for a GSFL group); ``total_hz`` is the
    whole medium, bounding any policy's allocation from above.
    """

    legs: tuple[TransmitLeg, ...]
    nominal_hz: float
    total_hz: float

    def __post_init__(self) -> None:
        if not self.legs:
            raise ValueError("TransmitDemand needs at least one leg")
        if not 0 < self.nominal_hz <= self.total_hz:
            raise ValueError(
                f"nominal_hz must be in (0, total_hz]; got "
                f"{self.nominal_hz} of {self.total_hz}"
            )

    @cached_property
    def nominal_s(self) -> float:
        """Duration under the static nominal share (pre-refactor model)."""
        return sum(leg.nbits / leg.rate_fn(self.nominal_hz) for leg in self.legs)

    @cached_property
    def lower_bound_s(self) -> float:
        """Duration with the whole medium to itself (true lower bound)."""
        return sum(leg.nbits / leg.rate_fn(self.total_hz) for leg in self.legs)


Demand = Union[float, ComputeDemand, TransmitDemand]


def demand_lower_bound_s(demand: Demand) -> float:
    """Analytic lower bound of a demand's resolved duration."""
    if isinstance(demand, (int, float)):
        return float(demand)
    return demand.lower_bound_s


def demand_nominal_s(demand: Demand) -> float:
    """Static-share analytic duration of a demand (pre-refactor model)."""
    if isinstance(demand, (int, float)):
        return float(demand)
    return demand.nominal_s


def demand_clients(demand: Demand) -> frozenset[int]:
    """Client devices a demand's resolution depends on (empty for server
    work and fixed durations) — the attribution the failure model uses to
    decide whose churn can preempt an activity."""
    if isinstance(demand, ComputeDemand) and demand.client is not None:
        return frozenset((demand.client,))
    if isinstance(demand, TransmitDemand):
        return frozenset(leg.client for leg in demand.legs)
    return frozenset()


@dataclass
class _TransferProgress:
    """Partial-transfer state carried across retries of one activity.

    :meth:`FairShareLink.abort` settles the service an aborted flow had
    already received; this object keeps that settlement visible to the
    retry path, so a re-attempted :class:`TransmitDemand` resumes — legs
    already completed are skipped and the aborted leg transmits only its
    remainder (``bits_total - bits_delivered``) instead of restarting
    from zero bytes.
    """

    legs_done: int = 0
    bits_delivered: float = 0.0


class Preemption(Exception):
    """An in-flight activity was cut short by a client failure.

    Raised by the runtime's demand resolution at the absolute-clock
    instant the client's churn up-window closes; caught by
    :meth:`Runtime.run_track`, which applies the track's
    :class:`TrackRecovery` semantics.
    """

    def __init__(self, client: int, time_s: float) -> None:
        super().__init__(f"client {client} failed at t={time_s:.6f}")
        self.client = client
        self.time_s = time_s


@dataclass(frozen=True)
class TrackRecovery:
    """Protocol-level recovery semantics for a preempted activity track.

    ``resume_s(client, now)`` maps a failed client to the absolute
    instant it comes back up (the retry wait); ``max_retries`` bounds the
    number of re-attempts per track; ``mode`` selects what happens once
    the budget is spent:

    * ``"retry"`` — the track surrenders (FL / SplitFed: a client that
      stays unreachable past the budget contributes nothing this round);
    * ``"reroute"`` — the track skips the dead client's remaining
      pipeline section and resumes at the next live member's first
      activity (GSFL: the AP falls back to the next relay, re-issuing
      its cached client-model copy); when no live member follows, the
      track surrenders (the chain's upload can never reach the server).
    """

    resume_s: Callable[[int, float], "float | None"]
    max_retries: int = 2
    mode: str = "retry"

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.mode not in ("retry", "reroute"):
            raise ValueError(f"unknown recovery mode {self.mode!r}")


@dataclass
class TrackOutcome:
    """What happened to one activity track under the failure model.

    ``completed`` is ``False`` exactly when the track surrendered —
    stopped before its final activities could resolve.  ``rerouted``
    lists clients whose pipeline sections were skipped (a *partial*
    round: the surviving chain still delivers).  Every abort resolves to
    exactly one retry, reroute, or surrender, so
    ``aborts == retries + len(rerouted) + (1 if surrendered else 0)``.
    """

    completed: bool = True
    aborts: int = 0
    retries: int = 0
    rerouted: list[int] = field(default_factory=list)
    surrendered: bool = False
    surrendered_client: int | None = None


class Runtime:
    """Persistent per-run execution substrate: clock + devices + medium.

    Parameters
    ----------
    total_bandwidth_hz:
        Capacity of the shared wireless medium.  ``None`` (zero-priced
        runs) resolves every transmit demand at its nominal share.
    share_policy:
        How the medium divides bandwidth among instantaneously active
        flows.  ``None`` keeps the static-subchannel semantics
        (:class:`~repro.sim.resources.NominalShare`: every flow at its
        nominal share — durations match the analytic model exactly); a
        policy such as :func:`repro.wireless.bandwidth.as_share_policy`
        makes the medium contention-aware.
    """

    def __init__(
        self,
        total_bandwidth_hz: float | None = None,
        share_policy: SharePolicy | None = None,
    ) -> None:
        self.env = Environment()
        self.medium: FairShareLink | None = None
        if total_bandwidth_hz is not None:
            self.medium = FairShareLink(
                self.env,
                total_bandwidth_hz,
                policy=share_policy or NominalShare(),
            )
        self._devices: dict[int, Resource] = {}
        #: mid-activity failure source answering ``up_deadline`` and
        #: ``recovery_s`` (``None`` = activities never preempt; the
        #: ``none``/``round`` failure models leave this unset so demand
        #: resolution is event-for-event identical to a run without the
        #: abort plumbing)
        self.failure_injector: Any = None

    @property
    def now(self) -> float:
        """Absolute simulated time (never restarts within a run)."""
        return self.env.now

    def advance_to(self, t: float) -> None:
        """Advance the clock to absolute time ``t`` (waiting out churn).

        Pops any stale scheduled events on the way; a target in the past
        is a no-op.
        """
        if t > self.env.now:
            self.env.run(until=t)

    def device(self, client: int) -> Resource:
        """Capacity-1 FIFO resource serializing one client device."""
        resource = self._devices.get(client)
        if resource is None:
            resource = Resource(self.env, capacity=1)
            self._devices[client] = resource
        return resource

    # ------------------------------------------------------------------
    # round execution
    # ------------------------------------------------------------------
    def run_track(
        self,
        activities: "list",
        recorder: TraceRecorder | None,
        round_index: int,
        compute_slowdown: dict[int, float] | None = None,
        recovery: TrackRecovery | None = None,
    ) -> "TrackOutcome":
        """Process generator resolving one sequential activity track.

        Each activity's demand is resolved against the instantaneous
        simulation state and recorded with absolute timestamps.  Both the
        sync barrier (per-stage parallel tracks) and the asynchronous
        aggregation engine (one free-running pipeline per unit) are built
        from this primitive.  ``compute_slowdown`` maps client index →
        multiplicative straggler factor on that client's compute demands.

        With a :attr:`failure_injector` installed, any activity may raise
        :class:`Preemption` mid-resolution; ``recovery`` then decides the
        response per abort — wait out the client's down-window and retry
        the same activity (budgeted by ``max_retries``), re-route around
        the dead client (``mode="reroute"``), or surrender the rest of
        the track.  The generator's return value is the
        :class:`TrackOutcome` (retrieve it via ``yield from`` or the
        spawned process's event value).
        """
        env = self.env
        outcome = TrackOutcome()
        attempts = 0
        skipped: set[int] = set()
        index = 0
        # Partial-transfer resume state: fresh per activity, retained
        # across retry re-attempts of the *same* activity (same index) so
        # a resumed upload transmits only its undelivered remainder.
        progress = _TransferProgress()
        progress_index = 0
        while index < len(activities):
            act = activities[index]
            if skipped and demand_clients(act.demand) & skipped:
                # Any activity still involving a rerouted-around client
                # (its own work, or a relay leg touching it) is part of
                # the dead pipeline section: the AP's cached-copy
                # fallback replaces it at zero cost.
                index += 1
                continue
            if index != progress_index:
                progress = _TransferProgress()
                progress_index = index
            begin = env.now
            leg_log: list[tuple[TransmitLeg, float, float]] = []
            try:
                yield from self._perform(
                    act.demand, compute_slowdown, progress, leg_log
                )
            except Preemption as failure:
                outcome.aborts += 1
                resolution, jump = self._resolve_abort(
                    failure, attempts, recovery, activities, index, skipped
                )
                if recorder is not None:
                    recorder.record_abort(
                        start=begin,
                        time_s=env.now,
                        phase=act.phase,
                        actor=act.actor,
                        round_index=round_index,
                        client=failure.client,
                        resolution=resolution,
                    )
                if resolution == "retry":
                    attempts += 1
                    outcome.retries += 1
                    resume = recovery.resume_s(failure.client, env.now)
                    if resume is not None and resume > env.now:
                        yield env.timeout(resume - env.now)
                    if recorder is not None:
                        recorder.record_retry(
                            time_s=env.now,
                            actor=act.actor,
                            round_index=round_index,
                            client=failure.client,
                            attempt=attempts,
                        )
                    # Re-attempt the same activity; ``progress`` carries the
                    # settled partial transfer, so a resumed leg transmits
                    # only its remainder (compute restarts from scratch).
                    continue
                if resolution == "reroute":
                    skipped.add(failure.client)
                    outcome.rerouted.append(failure.client)
                    index = jump
                    continue
                outcome.completed = False
                outcome.surrendered = True
                outcome.surrendered_client = failure.client
                return outcome
            if recorder is not None:
                legs = getattr(act.demand, "legs", None)
                if leg_log and legs is not None and len(legs) > 1:
                    # Multi-leg transmission (client→AP→client relay):
                    # one row per hop, attributed to the hop's own client
                    # with its own airtime and payload, so downstream
                    # accounting (energy, byte totals) can charge the
                    # sender's TX and the receiver's RX separately.
                    for leg, leg_start, leg_end in leg_log:
                        recorder.record(
                            start=leg_start,
                            end=leg_end,
                            phase=act.phase,
                            actor=f"client-{leg.client}",
                            round_index=round_index,
                            nbytes=int(leg.nbits / 8 + 0.5),
                            detail=leg.direction or act.detail,
                        )
                else:
                    recorder.record(
                        start=begin,
                        end=env.now,
                        phase=act.phase,
                        actor=act.actor,
                        round_index=round_index,
                        nbytes=act.nbytes,
                        detail=act.detail,
                    )
            index += 1
        return outcome

    @staticmethod
    def _resolve_abort(
        failure: Preemption,
        attempts: int,
        recovery: TrackRecovery | None,
        activities: "list",
        index: int,
        skipped: set[int],
    ) -> tuple[str, int]:
        """Pick one abort's resolution: ``(kind, resume_index)``.

        ``kind`` is ``"retry"`` while budget remains, then ``"reroute"``
        (with the index of the next activity executable *without* any
        dead client — a relay leg still touching one would preempt again
        instantly) when the track's recovery mode allows it and such a
        live successor exists, else ``"surrender"``.
        """
        if recovery is not None and attempts < recovery.max_retries:
            return "retry", index
        if recovery is not None and recovery.mode == "reroute":
            dead = skipped | {failure.client}
            for j in range(index + 1, len(activities)):
                clients = demand_clients(activities[j].demand)
                if clients and not clients & dead:
                    return "reroute", j
        return "surrender", index

    # ------------------------------------------------------------------
    # demand resolution
    # ------------------------------------------------------------------
    def _perform(
        self,
        demand: Demand,
        slowdown: dict[int, float] | None,
        progress: "_TransferProgress | None" = None,
        leg_log: "list[tuple[TransmitLeg, float, float]] | None" = None,
    ) -> "Generator[Event, Any, None]":
        injector = self.failure_injector
        if isinstance(demand, TransmitDemand) and self.medium is not None:
            # Resume semantics: legs a previous preempted attempt already
            # completed are skipped (``progress`` only ever advances under
            # an armed injector, so the unset-injector path is untouched).
            start_leg = progress.legs_done if progress is not None else 0
            for leg in demand.legs[start_leg:]:
                leg_begin = self.env.now
                if injector is not None:
                    yield from self._transfer_preemptible(
                        leg, demand, injector, progress
                    )
                else:
                    yield self.medium.transfer(
                        leg.nbits,
                        client=leg.client,
                        rate_fn=leg.rate_fn,
                        nominal=demand.nominal_hz,
                    )
                if leg_log is not None:
                    leg_log.append((leg, leg_begin, self.env.now))
            return
        if isinstance(demand, ComputeDemand):
            seconds = demand.base_seconds
            if slowdown and demand.client is not None:
                seconds *= slowdown.get(demand.client, 1.0)
            if demand.client is not None:
                device = self.device(demand.client)
                yield device.request()
                if injector is not None:
                    deadline = injector.up_deadline(demand.client, self.env.now)
                    if deadline is not None and deadline < self.env.now + seconds:
                        # The up-window closes before the job finishes:
                        # run to the failure instant, free the device
                        # slot, abandon the work.  (A deadline in the
                        # past means the client is already down — the
                        # job aborts before it starts.)
                        if deadline > self.env.now:
                            yield self.env.timeout(deadline - self.env.now)
                        device.release()
                        raise Preemption(demand.client, self.env.now)
                yield self.env.timeout(seconds)
                device.release()
            else:
                yield self.env.timeout(seconds)
            return
        # A fixed duration, or a TransmitDemand without a medium
        # (static subchannels): resolve at the nominal share.
        yield self.env.timeout(demand_nominal_s(demand))

    def _transfer_preemptible(
        self,
        leg: TransmitLeg,
        demand: TransmitDemand,
        injector: Any,
        progress: "_TransferProgress | None" = None,
    ) -> "Generator[Event, Any, None]":
        """One leg on the shared medium, raced against its client's churn.

        The completion time of a contended flow is unknown up front (any
        membership change reschedules it), so the leg races an any-of
        against a timeout at the transmitter's up-window deadline; losing
        the race cancels the flow on the medium — shares recompute over
        the surviving transmitter set at that exact instant — and raises
        :class:`Preemption`.  An exact tie resolves by queue order, which
        depends on the link engine: a flow priced once (the static
        engine, or a dense link no membership change re-rated) drew its
        completion ticket at submission, before the deadline timeout
        existed, and completes; on a contended link any re-rate draws
        the completion a fresh ticket *behind* the deadline's, so the
        deadline wins — the leg aborts with at most float residue left
        and the retry closes it.  Both outcomes are deterministic and
        conserve bits (``bits_delivered + undelivered == nbits``).

        ``progress`` carries partial-transfer state across retries: the
        leg submits only ``nbits - bits_delivered`` to the medium, and an
        abort folds the service the flow received (settled by
        :meth:`FairShareLink.abort`) back into ``progress`` so the next
        attempt resumes where this one was cut.
        """
        env = self.env
        delivered = progress.bits_delivered if progress is not None else 0.0
        remaining = leg.nbits - delivered
        deadline = injector.up_deadline(leg.client, env.now)
        if deadline is not None and deadline <= env.now:
            raise Preemption(leg.client, env.now)  # down before the leg starts
        if remaining > 0.0:
            done = self.medium.transfer(
                remaining,
                client=leg.client,
                rate_fn=leg.rate_fn,
                nominal=demand.nominal_hz,
            )
            if deadline is None:
                yield done
            else:
                yield env.any_of([done, env.timeout(deadline - env.now)])
                if not done.triggered:
                    undelivered = self.medium.abort(done)
                    if progress is not None and undelivered is not None:
                        progress.bits_delivered = leg.nbits - undelivered
                    raise Preemption(leg.client, env.now)
        if progress is not None:
            progress.legs_done += 1
            progress.bits_delivered = 0.0
