"""DES-resident aggregation server and staleness policies.

The paper's GSFL protocol synchronizes the ``M`` group pipelines at a
per-round barrier: "after all groups have completed the model training
process" the AP FedAvg-aggregates and the next round begins.  The
event-driven runtime makes that barrier a *choice* rather than a
structural necessity — this module turns aggregation into a first-class
server process living inside the :class:`~repro.sim.runtime.Runtime`:

* :class:`SyncBarrier` — the degenerate policy.  It owns the classic
  stage/barrier replay (``all_of`` over the parallel tracks of each
  stage), so round-barrier semantics live *in the policy*, not in the
  engine; schemes running under it are bit-for-bit identical to the
  historical per-round pipeline.
* :class:`PolynomialStaleness` (``--aggregation async``) — FedAsync-style
  barrier-free aggregation: the server merges every unit (group/client)
  update the moment it arrives, damped by ``(1 + staleness)^{-alpha}``.
* :class:`BoundedStaleness` (``--aggregation bounded:K``) — barrier-free
  with a max-lag gate: a unit may run at most ``K`` rounds ahead of the
  slowest unit, so fast groups lap stragglers but pause before anyone
  falls hopelessly stale.  ``bounded:0`` degenerates exactly to the sync
  barrier and is parsed as such.

Staleness is measured in **unit rounds**: when a unit commits its round
``c`` (1-based count after the commit), its update's staleness is
``max(0, max_u completed_u - c)`` — how many rounds the fastest unit is
ahead at commit time.  Under the bounded gate this value provably never
exceeds ``K``: a unit may only *start* a round while it is at most ``K``
ahead of the slowest, so at any commit the front-runner can have banked
at most ``K`` more rounds than the committer.

The :class:`AggregationServer` owns the global model payload (via an
``apply_update`` callback so it stays scheme-agnostic), gates unit starts
through the policy, applies staleness-weighted merges, and logs every
commit as an :class:`UpdateRecord` — the rows behind the
``aggregation_update`` entries of the ``--trace-out`` JSONL export.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Generator, Sequence

from repro.sim.engine import Environment

if TYPE_CHECKING:  # pragma: no cover - type-only imports (layering)
    from repro.schemes.base import Activity, Stage
    from repro.sim.events import Event
    from repro.sim.runtime import Runtime, TrackRecovery
    from repro.sim.trace import TraceRecorder

__all__ = [
    "StalenessPolicy",
    "SyncBarrier",
    "PolynomialStaleness",
    "BoundedStaleness",
    "parse_aggregation",
    "AGGREGATION_MODES",
    "UnitRoundWork",
    "RetryAt",
    "UpdateRecord",
    "AbortRecord",
    "AggregationServer",
]

#: canonical aggregation-mode spellings (``bounded:K`` for any integer K)
AGGREGATION_MODES = ("sync", "async", "bounded:K")


class StalenessPolicy:
    """How the aggregation server treats update lag.

    ``synchronous`` routes the scheme driver onto the classic barriered
    round loop; ``max_lag`` (``None`` = unbounded) gates how many rounds
    a unit may run ahead of the slowest one; :meth:`weight` damps an
    update by its observed staleness.
    """

    name = "base"
    synchronous = False
    max_lag: int | None = None

    def weight(self, staleness: int) -> float:
        """Multiplier applied to an update that is ``staleness`` rounds old."""
        return 1.0


class SyncBarrier(StalenessPolicy):
    """Degenerate policy: the paper's per-round barrier.

    Every unit waits for every other unit each round (``max_lag = 0``)
    and the server aggregates the full cohort at once — plain FedAvg.
    This class also *owns* the barriered stage replay: stages run one
    after another, the parallel tracks of a stage joined by an
    ``all_of`` barrier.  Standalone replays (tests, benchmarks) call
    ``SyncBarrier().resolve_round(runtime, ...)`` directly.
    """

    name = "sync"
    synchronous = True
    max_lag = 0

    def resolve_round(
        self,
        runtime: "Runtime",
        stages: "Sequence[Stage]",
        recorder: "TraceRecorder | None",
        round_index: int,
        compute_slowdown: dict[int, float] | None = None,
        recovery: "TrackRecovery | None" = None,
    ) -> float:
        """Replay one round's stages with barrier semantics; returns span.

        ``recovery`` (mid-activity failure model) applies per track: a
        preempted track retries, re-routes, or surrenders on its own; the
        stage barrier waits for every track's outcome either way, so a
        surrendered track simply stops contributing latency.  Under the
        barrier the aggregation math already ran at stage-construction
        time, so sync-mode recovery is a *timing* semantics — the learned
        weights stay those of the round-start membership (the
        learning/timing decoupling the scenario layer guarantees).
        """
        env = runtime.env
        start = env.now

        def round_process() -> "Generator[Event, Any, None]":
            for stage in stages:
                if not stage.tracks:
                    continue
                procs = [
                    env.process(
                        runtime.run_track(
                            acts, recorder, round_index, compute_slowdown, recovery
                        )
                    )
                    for acts in stage.tracks.values()
                ]
                yield env.all_of(procs)

        done = env.process(round_process())
        env.run(done)
        return env.now - start


class PolynomialStaleness(StalenessPolicy):
    """FedAsync-style polynomial decay: ``weight = (1 + s)^(-alpha)``.

    No gate — fast units lap slow ones freely; their updates simply count
    for less the staler they arrive.
    """

    name = "async"
    max_lag = None

    def __init__(self, alpha: float = 0.5) -> None:
        if alpha < 0:
            raise ValueError(f"staleness decay alpha must be >= 0, got {alpha}")
        self.alpha = alpha

    def weight(self, staleness: int) -> float:
        if staleness < 0:
            raise ValueError(f"staleness must be >= 0, got {staleness}")
        return float((1.0 + staleness) ** -self.alpha)


class BoundedStaleness(PolynomialStaleness):
    """Bounded-staleness (SSP-style): polynomial decay + a max-lag gate.

    A unit that has completed ``c`` rounds may start its next round only
    once ``c - min_u completed_u <= K``; otherwise it pauses until a
    slower unit commits.  Observed staleness is therefore bounded by
    ``K`` (see the module docstring for the argument).
    """

    def __init__(self, max_lag: int, alpha: float = 0.5) -> None:
        super().__init__(alpha=alpha)
        if max_lag < 1:
            raise ValueError(
                f"bounded staleness needs max_lag >= 1 (0 is the sync barrier), "
                f"got {max_lag}"
            )
        self.max_lag = max_lag
        self.name = f"bounded:{max_lag}"


def parse_aggregation(spec: str) -> StalenessPolicy:
    """Resolve an ``--aggregation`` spec to a policy instance.

    ``"sync"`` → :class:`SyncBarrier`; ``"async"`` →
    :class:`PolynomialStaleness`; ``"bounded:K"`` →
    :class:`BoundedStaleness` for ``K >= 1`` and :class:`SyncBarrier` for
    ``K = 0`` (a zero-lag gate *is* the barrier — the regression suite
    pins that equivalence bitwise).
    """
    if not isinstance(spec, str):
        raise ValueError(f"aggregation spec must be a string, got {spec!r}")
    if spec == "sync":
        return SyncBarrier()
    if spec == "async":
        return PolynomialStaleness()
    if spec.startswith("bounded:"):
        raw = spec.split(":", 1)[1]
        try:
            lag = int(raw)
        except ValueError:
            raise ValueError(f"bounded staleness wants an integer lag, got {raw!r}")
        if lag < 0:
            raise ValueError(f"staleness bound must be >= 0, got {lag}")
        return SyncBarrier() if lag == 0 else BoundedStaleness(lag)
    raise ValueError(
        f"unknown aggregation mode {spec!r}; expected one of {AGGREGATION_MODES}"
    )


# ----------------------------------------------------------------------
# asynchronous engine
# ----------------------------------------------------------------------
@dataclass
class UnitRoundWork:
    """One unit-round handed to the server engine by a scheme.

    ``activities`` is the unit's sequential DES track (transmissions,
    compute, the final aggregation demand); ``payload`` is the trained
    update the server merges on completion (``None`` → the round counts
    for progress but commits nothing — e.g. every member down);
    ``weight`` is the unit's FedAvg sample weight; ``slowdowns`` are
    per-client straggler multipliers applied while resolving compute
    demands; ``loss_sum``/``num_contributors`` feed the per-round
    training-loss bookkeeping.  ``recovery`` carries the scheme's
    mid-activity failure semantics (``None`` → preemption impossible or
    an abort surrenders the track).
    """

    activities: "list[Activity]"
    payload: object | None
    weight: float
    slowdowns: dict[int, float] | None = None
    loss_sum: float = 0.0
    num_contributors: int = 0
    recovery: "TrackRecovery | None" = None


@dataclass(frozen=True)
class RetryAt:
    """Returned by a work function instead of work: retry the same unit
    round once the clock reaches ``time_s`` (waiting out a churn window)."""

    time_s: float


@dataclass(frozen=True)
class UpdateRecord:
    """One applied aggregation commit (the ``aggregation_update`` trace row)."""

    unit: int
    round_index: int
    time_s: float
    staleness: int
    alpha: float
    weight: float


@dataclass(frozen=True)
class AbortRecord:
    """One aborted or partial unit-round contribution.

    Kept on the server *separately* from :class:`UpdateRecord` commits:
    ``outcome="partial"`` means the unit still committed but with one
    relay member rerouted around (``client``); ``outcome="surrender"``
    means the unit-round delivered nothing — progress advanced, no merge.
    """

    unit: int
    round_index: int
    time_s: float
    outcome: str
    client: int | None = None


class AggregationServer:
    """DES-resident owner of the global model under asynchronous policies.

    The server never touches model math directly: ``apply_update(payload,
    alpha)`` is supplied by the scheme and mutates the scheme's global
    state, keeping this engine reusable for property tests with synthetic
    payloads.  ``alpha`` is the unit's normalized sample weight times the
    policy's staleness weight, so with homogeneous speeds every commit
    moves the global model by roughly its FedAvg share.
    """

    def __init__(
        self,
        runtime: "Runtime",
        policy: StalenessPolicy,
        num_units: int,
        total_weight: float,
        apply_update: Callable[[object, float], None],
    ) -> None:
        if policy.synchronous:
            raise ValueError(
                "AggregationServer drives barrier-free policies; the sync "
                "barrier runs through the classic round loop"
            )
        if num_units < 1:
            raise ValueError(f"need at least one unit, got {num_units}")
        if total_weight <= 0:
            raise ValueError(f"total_weight must be positive, got {total_weight}")
        self.runtime = runtime
        self.env: Environment = runtime.env
        self.policy = policy
        self.total_weight = float(total_weight)
        self.apply_update = apply_update
        #: completed unit-rounds per unit (the gate and staleness source)
        self.completed = [0] * num_units
        self.updates: list[UpdateRecord] = []
        #: aborted / partial contributions, distinct from the commit log
        self.aborted: list[AbortRecord] = []
        self._progress = self.env.event()

    # ------------------------------------------------------------------
    # gate
    # ------------------------------------------------------------------
    def may_start(self, unit: int) -> bool:
        """Whether ``unit`` may begin its next round under the lag gate."""
        lag = self.policy.max_lag
        if lag is None:
            return True
        return self.completed[unit] - min(self.completed) <= lag

    def gate(self, unit: int) -> "Generator[Event, Any, None]":
        """Process generator: wait until the lag gate clears for ``unit``."""
        while not self.may_start(unit):
            yield self._progress

    # ------------------------------------------------------------------
    # commit
    # ------------------------------------------------------------------
    def commit(self, unit: int, work: UnitRoundWork) -> UpdateRecord | None:
        """Apply one finished unit-round; returns the logged record.

        Progress always advances (gated peers wake even for an empty
        round); the merge itself is skipped when ``payload`` is ``None``.
        """
        self.completed[unit] += 1
        record = None
        if work.payload is not None:
            count = self.completed[unit]
            staleness = max(0, max(self.completed) - count)
            alpha = (work.weight / self.total_weight) * self.policy.weight(staleness)
            self.apply_update(work.payload, alpha)
            record = UpdateRecord(
                unit=unit,
                round_index=count - 1,
                time_s=self.env.now,
                staleness=staleness,
                alpha=alpha,
                weight=work.weight,
            )
            self.updates.append(record)
        # Wake gated units: fresh event per commit, everyone re-checks.
        fired, self._progress = self._progress, self.env.event()
        fired.succeed()
        return record

    def _apply_outcome(
        self, unit: int, round_index: int, work: UnitRoundWork, outcome: "object"
    ) -> None:
        """Fold a track's failure outcome into the unit-round contribution.

        Rerouted members mark the commit *partial* (the surviving chain
        still delivers); a surrendered track drops the payload and its
        loss bookkeeping entirely — the round advances progress (the lag
        gate must not deadlock on a dead unit) but commits nothing.
        """
        for client in outcome.rerouted:
            self.aborted.append(
                AbortRecord(unit, round_index, self.env.now, "partial", client)
            )
        if outcome.surrendered:
            self.aborted.append(
                AbortRecord(
                    unit,
                    round_index,
                    self.env.now,
                    "surrender",
                    outcome.surrendered_client,
                )
            )
            work.payload = None
            work.loss_sum = 0.0
            work.num_contributors = 0

    # ------------------------------------------------------------------
    # engine
    # ------------------------------------------------------------------
    def run(
        self,
        work_fn: Callable[[int, int], "UnitRoundWork | RetryAt"],
        num_rounds: int,
        recorder: "TraceRecorder | None" = None,
        on_commit: Callable[[int, int, UnitRoundWork, UpdateRecord | None], None]
        | None = None,
    ) -> None:
        """Run every unit for ``num_rounds`` rounds, barrier-free.

        One DES process per unit: gate → ``work_fn(unit, round)`` (the
        scheme eagerly trains *at the simulated start time*, so churn and
        snapshot state are resolved against the live clock) → resolve the
        activity track → commit.  ``work_fn`` may return :class:`RetryAt`
        to wait out a dead window and be asked again.  ``on_commit`` runs
        after every commit (eval/round bookkeeping in the scheme driver).
        """
        if num_rounds < 1:
            raise ValueError(f"num_rounds must be >= 1, got {num_rounds}")
        env = self.env

        def unit_process(unit: int) -> "Generator[Event, Any, None]":
            for round_index in range(num_rounds):
                yield from self.gate(unit)
                while True:
                    work = work_fn(unit, round_index)
                    if not isinstance(work, RetryAt):
                        break
                    if work.time_s <= env.now:
                        raise RuntimeError(
                            f"unit {unit} round {round_index}: retry time "
                            f"{work.time_s} does not advance the clock "
                            f"(now={env.now})"
                        )
                    yield env.timeout(work.time_s - env.now)
                outcome = yield from self.runtime.run_track(
                    work.activities, recorder, round_index, work.slowdowns,
                    work.recovery,
                )
                if outcome is not None:
                    self._apply_outcome(unit, round_index, work, outcome)
                record = self.commit(unit, work)
                if on_commit is not None:
                    on_commit(unit, round_index, work, record)

        procs = [env.process(unit_process(u)) for u in range(len(self.completed))]
        env.run(env.all_of(procs))
