"""Client-population dynamics: churn, partial participation, stragglers.

The paper evaluates a static fleet; real edge deployments are anything
but.  This layer injects three orthogonal disturbances into any scheme,
resolved against the runtime's *absolute* clock so a long round genuinely
sees more churn than a short one:

* **availability churn** — each client alternates between up and down
  windows, read off the toggle streams of
  :mod:`repro.experiments.availability` (one renewal process behind the
  exponential default, diurnal waves, correlated cell outages and
  handoff gaps, or a recorded trace replayed exactly, selected by
  ``DynamicsConfig.availability``); clients that are down when a round
  starts sit the round out;
* **partial participation** — of the available clients, only a sampled
  fraction joins each round (the classic cross-device FL setting);
* **straggler injection** — participating clients are slowed by a
  multiplicative factor on their *compute* demands with some
  probability.  Stragglers change timing only — the trained weights are
  bitwise unaffected, which keeps the learning/timing decoupling honest
  and testable.

The **failure model** selects the granularity at which churn bites:

* ``"none"`` — clients never fail: churn windows are ignored entirely
  (participation sampling and stragglers still apply);
* ``"round"`` — the default, and the historical behaviour: a client
  inside a down-window when a round (or async unit-round) starts sits
  that round out, but work in flight is never interrupted;
* ``"mid-activity"`` — churn preempts *running* activities: the instant
  a transmitting or computing client's up-window closes, its in-flight
  flow/job is aborted by the runtime and the scheme's protocol-level
  recovery (retry after the client recovers, re-route the relay chain,
  or surrender the round) kicks in, bounded by ``max_retries``.  The
  scheme installs its :class:`ClientDynamics` as the runtime's
  ``failure_injector``: :meth:`ClientDynamics.up_deadline` and
  :meth:`ClientDynamics.recovery_s` are the two queries the runtime
  races in-flight activities against.

All draws flow through spawned per-purpose generators, so a scenario's
dynamics replay identically for a fixed seed regardless of scheme.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro.experiments.availability import (
    make_availability_process,
    parse_availability,
)
from repro.utils.validation import (
    check_in_choices,
    check_non_negative,
    check_positive,
    check_positive_finite,
)

__all__ = ["FAILURE_MODELS", "DynamicsConfig", "RoundConditions", "ClientDynamics"]

#: supported failure models (granularity of churn resolution)
FAILURE_MODELS = ("none", "round", "mid-activity")

#: the type each field must hold, and its name in errors; a bool is
#: never a number here (``True`` would pass as ``1``)
_FIELD_TYPES = (
    (("seed", "min_participants", "max_retries"), numbers.Integral, "an integer"),
    (("participation", "churn_uptime_s", "churn_downtime_s", "straggler_rate",
      "straggler_slowdown"), numbers.Real, "a real number"),
    (("failure_model", "availability"), str, "a string"),
)


@dataclass
class DynamicsConfig:
    """Declarative description of client-population dynamics.

    Defaults are the identity: everyone always available, everyone
    participates, nobody straggles.  ``availability`` selects the churn
    process shape (see :mod:`repro.experiments.availability`):
    ``"exponential"`` (default), ``"diurnal[:PERIOD[:AMP]]"``,
    ``"cells[:K]"``, ``"handoff"``, or ``"trace:<trace.jsonl>"``.
    """

    participation: float = 1.0
    churn_uptime_s: float | None = None
    churn_downtime_s: float | None = None
    straggler_rate: float = 0.0
    straggler_slowdown: float = 4.0
    min_participants: int = 1
    failure_model: str = "round"
    max_retries: int = 2
    seed: int = 0
    availability: str = "exponential"

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "DynamicsConfig":
        """Re-check every invariant; returns self.

        Called from ``__post_init__`` *and* again by
        :class:`ClientDynamics`: the dataclass is mutable, and a zero (or
        negative) churn window smuggled in after construction would make
        ``rng.exponential(0)`` emit zero-length windows — the availability
        trace then never advances past ``t`` and
        :meth:`ClientDynamics.available_at` loops forever.  An infinite
        window is no better: an infinite down-window sends the all-down
        wait to ``t = inf``, where the trace again never advances, and an
        infinite up-window silently turns churn off.  Degenerate windows
        must fail loudly, wherever they come from.  Each field's type is
        checked first: a replayed trace may carry any JSON value, an
        integer too large for a float among them.
        """
        for names, kind, what in _FIELD_TYPES:
            for name in names:
                value = getattr(self, name)
                if value is None and name.startswith("churn_"):
                    continue
                if isinstance(value, bool) or not isinstance(value, kind):
                    raise ValueError(f"{name} must be {what}, got {value!r}")
                if kind is numbers.Real:
                    try:
                        float(value)
                    except OverflowError:
                        raise ValueError(
                            f"{name} must be {what}, got a number too large for a float"
                        ) from None
        check_non_negative("seed", self.seed)
        if not 0.0 < self.participation <= 1.0:
            raise ValueError(
                f"participation must be in (0, 1], got {self.participation}"
            )
        if (self.churn_uptime_s is None) != (self.churn_downtime_s is None):
            raise ValueError("churn uptime and downtime must be given together")
        if self.churn_uptime_s is not None:
            check_positive_finite("churn_uptime_s", self.churn_uptime_s)
            check_positive_finite("churn_downtime_s", self.churn_downtime_s)
        if not 0.0 <= self.straggler_rate <= 1.0:
            raise ValueError(
                f"straggler_rate must be in [0, 1], got {self.straggler_rate}"
            )
        # NaN and inf both pass ``< 1`` and price every straggler's
        # activities at a NaN or infinite duration.
        if not (math.isfinite(self.straggler_slowdown) and self.straggler_slowdown >= 1.0):
            raise ValueError(
                f"straggler_slowdown must be finite and >= 1, got {self.straggler_slowdown}"
            )
        check_non_negative("min_participants", self.min_participants)
        check_in_choices("failure_model", self.failure_model, FAILURE_MODELS)
        check_non_negative("max_retries", self.max_retries)
        if parse_availability(self.availability).needs_windows and self.churn_uptime_s is None:
            raise ValueError(
                f"availability {self.availability!r} requires churn windows "
                f"(churn_uptime_s / churn_downtime_s)"
            )
        return self

    @property
    def has_churn(self) -> bool:
        """Whether churn windows shape availability at all.

        ``failure_model="none"`` switches the churn trace off wholesale —
        clients are treated as always up — so the one knob cleanly covers
        every query path (round membership, recovery scans, preemption
        deadlines).  A trace-replay spec carries its own toggle streams
        and needs no windows.
        """
        if self.failure_model == "none":
            return False
        if self.availability.startswith("trace:"):
            return True
        return self.churn_uptime_s is not None


@dataclass(frozen=True)
class RoundConditions:
    """One round's resolved disturbances."""

    round_index: int
    available: tuple[int, ...]
    participants: tuple[int, ...]
    slowdowns: dict[int, float] = field(default_factory=dict)
    #: absolute simulated time the round's conditions were resolved at
    now_s: float = 0.0


class ClientDynamics:
    """Stateful per-run realization of a :class:`DynamicsConfig`.

    :meth:`begin_round` must be called per round, in order — the base
    scheme loop owns that contract (including the one re-resolution it
    performs after waiting out an all-down churn window) — so the random
    streams are consumed deterministically.  Every resolution is appended
    to :attr:`round_log` (re-resolutions included) for diagnostics and
    trace export.
    """

    def __init__(self, config: DynamicsConfig, num_clients: int) -> None:
        check_positive("num_clients", num_clients)
        self.config = config.validate()
        self.num_clients = num_clients
        root = np.random.SeedSequence([config.seed, 0xD15C])
        avail_seed, part_seed, strag_seed = root.spawn(3)
        # The availability process owns the per-client toggle streams
        # (None = identity: always up).  It spawns its generators off the
        # availability seed branch, so the default exponential process
        # consumes randomness exactly as the historical inline loop did.
        self._process = make_availability_process(
            config.availability,
            num_clients,
            avail_seed,
            config.churn_uptime_s,
            config.churn_downtime_s,
        )
        self._part_rng = np.random.default_rng(part_seed)
        self._strag_rng = np.random.default_rng(strag_seed)
        self.round_log: list[RoundConditions] = []

    # ------------------------------------------------------------------
    # availability trace
    # ------------------------------------------------------------------
    def _toggle_after(self, client: int, t: float) -> "tuple[bool, float | None]":
        """Whether ``client`` is up at ``t``, and its first toggle after
        ``t`` (``None`` when a finite replay stream records no further
        toggle: the client keeps its final state)."""
        toggles = self._process.toggles(client, t)
        idx = bisect_right(toggles, t)
        return idx % 2 == 0, (toggles[idx] if idx < len(toggles) else None)

    def available_at(self, client: int, t: float) -> bool:
        """Whether ``client`` is up at absolute time ``t``."""
        return not self.config.has_churn or self._toggle_after(client, t)[0]

    def availability_toggles(self, client: int, horizon: float) -> list[float]:
        """Toggle stream of ``client`` clipped to ``[0, horizon]``.

        This is the trace-export form: replaying the clipped stream via
        ``availability="trace:..."`` reproduces :meth:`available_at`
        exactly for every ``t <= horizon`` (the clip keeps toggles
        landing exactly on the horizon, mirroring ``bisect_right``).
        """
        if not self.config.has_churn:
            return []
        return [t for t in self._process.toggles(client, horizon) if t <= horizon]

    def next_recovery_s(self, t: float, clients: "list[int] | None" = None) -> float | None:
        """Earliest absolute time after ``t`` at which a currently-down
        client comes back up (``None`` without churn, or if nobody is
        down).  The scheme driver uses this to wait out an all-down
        window instead of freezing the clock on a zero-cost round;
        ``clients`` restricts the scan to one unit's members (async
        pipelines wait only for their own group).  A client whose finite
        replay trace ends in a down state never recovers and contributes
        no candidate."""
        if not self.config.has_churn:
            return None
        candidates = []
        for c in range(self.num_clients) if clients is None else clients:
            up, toggle = self._toggle_after(c, t)
            if not up and toggle is not None:
                candidates.append(toggle)
        return min(candidates, default=None)

    # ------------------------------------------------------------------
    # the runtime's failure source (mid-activity preemption)
    # ------------------------------------------------------------------
    def up_deadline(self, client: int, now: float) -> float | None:
        """Absolute instant the current up-window of ``client`` closes:
        until when work started at ``now`` may run.

        ``now`` itself when the client is already inside a down-window
        (the activity aborts before it begins), or ``None`` when no
        failure lies ahead (no churn, or a replay trace that ends up).
        """
        if not self.config.has_churn:
            return None
        up, toggle = self._toggle_after(client, now)
        return toggle if up else now

    def recovery_s(self, client: int, now: float) -> float | None:
        """Absolute instant ``client`` next comes back up (``None`` when
        it is not down at ``now`` — retry immediately)."""
        return self.next_recovery_s(now, clients=[client])

    # ------------------------------------------------------------------
    # per-round resolution
    # ------------------------------------------------------------------
    def begin_round(self, round_index: int, now_s: float) -> RoundConditions:
        """Resolve availability, participation and stragglers for a round."""
        cfg = self.config
        available = tuple(
            c for c in range(self.num_clients) if self.available_at(c, now_s)
        )
        if cfg.participation < 1.0 and available:
            # Round half away from zero: floor(p*n + 0.5).  Plain round()
            # banker's-rounds half-cases to even (0.5 * 5 available -> 2),
            # making the sampled fraction dip inconsistently with fleet
            # size; half-cases now always round up.
            k = int(math.floor(cfg.participation * len(available) + 0.5))
            k = min(len(available), max(k, min(cfg.min_participants, len(available)), 1))
            picked = self._part_rng.choice(len(available), size=k, replace=False)
            participants = tuple(sorted(available[i] for i in picked))
        else:
            participants = available
        conditions = RoundConditions(
            round_index=round_index,
            available=available,
            participants=participants,
            slowdowns=self._draw_stragglers(participants),
            now_s=now_s,
        )
        self.round_log.append(conditions)
        return conditions

    def unit_round_conditions(
        self, members: "list[int]", now_s: float
    ) -> tuple[list[int], dict[int, float]]:
        """Resolve one *unit's* round under barrier-free aggregation.

        Async pipelines start rounds at different simulated times, so
        disturbances resolve per unit rather than per global round:
        availability is the churn trace at ``now_s``; participation
        becomes a per-member Bernoulli draw, topped up with uniform draws
        to the unit-scoped floor ``min(min_participants, |present|)`` (at
        least one, so a unit cannot stall on sampling alone and low
        participation is not biased toward the first member); stragglers
        draw as usual.  Draws consume the shared generators in DES event
        order — deterministic for a fixed seed.  The returned list always
        preserves the *caller's member order* (meaningful for GSFL relay
        chains), whether or not the top-up fired — downstream iteration
        order must not depend on which sampling path ran.
        """
        cfg = self.config
        present = [c for c in members if self.available_at(c, now_s)]
        if cfg.participation < 1.0 and present:
            floor = max(1, min(cfg.min_participants, len(present)))
            sampled = [
                c for c in present if self._part_rng.random() < cfg.participation
            ]
            if len(sampled) < floor:
                remaining = [c for c in present if c not in sampled]
                picked = self._part_rng.choice(
                    len(remaining), size=floor - len(sampled), replace=False
                )
                chosen = set(sampled).union(remaining[i] for i in picked)
                sampled = [c for c in present if c in chosen]
            present = sampled
        return present, self._draw_stragglers(present)

    def _draw_stragglers(self, participants: "tuple[int, ...] | list[int]") -> dict[int, float]:
        """One straggler draw per participant, in order: the slowdown of
        each one that straggles."""
        cfg = self.config
        slowdowns: dict[int, float] = {}
        if cfg.straggler_rate > 0.0:
            for c in participants:
                if self._strag_rng.random() < cfg.straggler_rate:
                    slowdowns[c] = cfg.straggler_slowdown
        return slowdowns
