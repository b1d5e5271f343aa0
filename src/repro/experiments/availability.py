"""Pluggable client-availability processes behind :class:`ClientDynamics`.

The dynamics layer historically hardwired one availability model: an
exponential on/off renewal process per client.  The scenario catalog
needs more worlds — diurnal waves, whole cells going dark together,
mobility-style handoffs, and exact replay of a recorded fleet history —
so the model is factored into an :class:`AvailabilityProcess`: an object
owning per-client sorted **toggle streams** (state before the first
toggle is "up", flipping at every entry; a toggle landing exactly at
``t`` counts as flipped, i.e. windows are half-open ``[start, end)``).

Processes are named by a compact spec string carried in
``DynamicsConfig.availability``:

* ``"exponential"`` — the historical per-client exponential renewal
  process.  This implementation reproduces the original draw order
  bitwise (the golden-history suite pins it).
* ``"diurnal[:PERIOD[:AMPLITUDE]]"`` — renewal process whose window
  *means* ride a sinusoid of ``PERIOD`` seconds: at peak phase
  up-windows stretch by ``1+AMPLITUDE`` and down-windows shrink by the
  same factor (off-peak mirrors it), modelling day/night availability
  waves.
* ``"cells[:K]"`` — correlated outages: clients map onto ``K``
  contiguous cells and every cell shares *one* renewal stream, so a
  whole cell goes dark (and recovers) together.
* ``"handoff"`` — mobility flavor: exponential dwell time in coverage,
  then a *fixed* ``churn_downtime_s`` gap (the handoff blackout) before
  service resumes.
* ``"trace:PATH"`` — exact replay: toggle streams are loaded from the
  ``availability`` rows of a JSONL trace previously written by
  ``--trace-out``, making the export format double as a trace-in
  format.  Replayed streams are *finite*: beyond the recorded horizon
  clients keep their final state.

All stochastic processes draw from generators spawned off the dynamics
seed, so a spec replays identically for a fixed seed regardless of
scheme or query order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.devtools.trace_schema import read_rows
from repro.utils.validation import check_positive, check_positive_finite

__all__ = [
    "AVAILABILITY_KINDS",
    "AvailabilitySpec",
    "parse_availability",
    "AvailabilityProcess",
    "ExponentialRenewal",
    "DiurnalRenewal",
    "CellCorrelated",
    "HandoffRenewal",
    "TraceReplay",
    "make_availability_process",
]

#: supported availability-process kinds (spec prefixes)
AVAILABILITY_KINDS = ("exponential", "diurnal", "cells", "handoff", "trace")

_DEFAULT_DIURNAL_PERIOD_S = 2.0
_DEFAULT_DIURNAL_AMPLITUDE = 0.8
_DEFAULT_NUM_CELLS = 4


@dataclass(frozen=True)
class AvailabilitySpec:
    """Parsed form of a ``DynamicsConfig.availability`` spec string."""

    kind: str
    period_s: float = _DEFAULT_DIURNAL_PERIOD_S
    amplitude: float = _DEFAULT_DIURNAL_AMPLITUDE
    num_cells: int = _DEFAULT_NUM_CELLS
    path: str = ""

    @property
    def needs_windows(self) -> bool:
        """Whether the spec is meaningless without churn up/down windows."""
        return self.kind in ("diurnal", "cells", "handoff")


def parse_availability(spec: str) -> AvailabilitySpec:
    """Parse an availability spec string; raises ``ValueError`` on bad specs."""
    if not isinstance(spec, str) or not spec:
        raise ValueError(f"availability spec must be a non-empty string, got {spec!r}")
    if spec == "exponential":
        return AvailabilitySpec("exponential")
    if spec == "handoff":
        return AvailabilitySpec("handoff")
    if spec == "diurnal" or spec.startswith("diurnal:"):
        parts = spec.split(":")
        if len(parts) > 3:
            raise ValueError(f"malformed diurnal spec {spec!r} (diurnal[:PERIOD[:AMP]])")
        period = _DEFAULT_DIURNAL_PERIOD_S
        amplitude = _DEFAULT_DIURNAL_AMPLITUDE
        try:
            if len(parts) >= 2:
                period = float(parts[1])
            if len(parts) == 3:
                amplitude = float(parts[2])
        except ValueError:
            raise ValueError(f"malformed diurnal spec {spec!r} (diurnal[:PERIOD[:AMP]])")
        if period <= 0:
            raise ValueError(f"diurnal period must be positive, got {period}")
        if not 0.0 <= amplitude < 1.0:
            raise ValueError(
                f"diurnal amplitude must be in [0, 1) to keep window means "
                f"positive, got {amplitude}"
            )
        return AvailabilitySpec("diurnal", period_s=period, amplitude=amplitude)
    if spec == "cells" or spec.startswith("cells:"):
        parts = spec.split(":")
        if len(parts) > 2:
            raise ValueError(f"malformed cells spec {spec!r} (cells[:K])")
        cells = _DEFAULT_NUM_CELLS
        if len(parts) == 2:
            try:
                cells = int(parts[1])
            except ValueError:
                raise ValueError(f"malformed cells spec {spec!r} (cells[:K])")
        if cells < 1:
            raise ValueError(f"cell count must be >= 1, got {cells}")
        return AvailabilitySpec("cells", num_cells=cells)
    if spec.startswith("trace:"):
        path = spec[len("trace:"):]
        if not path:
            raise ValueError("trace spec needs a path: trace:<trace.jsonl>")
        return AvailabilitySpec("trace", path=path)
    raise ValueError(
        f"unknown availability spec {spec!r}; expected one of "
        f"{', '.join(AVAILABILITY_KINDS)} (diurnal[:PERIOD[:AMP]], cells[:K], "
        f"trace:<path>)"
    )


class AvailabilityProcess:
    """Per-client alternating up/down toggle streams.

    ``toggles(client, t)`` returns the client's sorted toggle list with
    coverage guaranteed past ``t`` (``toggles[-1] > t``) for infinite
    processes; a :attr:`finite` process returns its fixed recorded list
    and the client simply keeps its final state beyond the horizon.
    """

    #: finite processes never extend their streams (trace replay)
    finite = False

    def toggles(self, client: int, t: float) -> list[float]:
        raise NotImplementedError


class _RenewalProcess(AvailabilityProcess):
    """Alternating renewal process; subclasses draw the window lengths.

    The extension loop is verbatim the historical
    ``ClientDynamics.available_at`` loop: same float arithmetic, same
    per-client generator consumption order, so any subclass whose
    ``_window_s`` matches the old draw is bitwise-identical to it.
    """

    def __init__(self, num_clients: int, seed_seq: np.random.SeedSequence) -> None:
        # One generator per client: lazy trace extension stays
        # deterministic no matter which client is queried first.
        self._rngs = [np.random.default_rng(s) for s in seed_seq.spawn(num_clients)]
        self._toggles: list[list[float]] = [[] for _ in range(num_clients)]

    def toggles(self, client: int, t: float) -> list[float]:
        toggles = self._toggles[client]
        rng = self._rngs[client]
        while not toggles or toggles[-1] <= t:
            last = toggles[-1] if toggles else 0.0
            up = len(toggles) % 2 == 0
            toggles.append(last + self._window_s(rng, up, last))
        return toggles

    def _window_s(self, rng: np.random.Generator, up: bool, start: float) -> float:
        raise NotImplementedError


class ExponentialRenewal(_RenewalProcess):
    """The historical model: independent exponential on/off windows."""

    def __init__(
        self,
        num_clients: int,
        seed_seq: np.random.SeedSequence,
        up_s: float,
        down_s: float,
    ) -> None:
        super().__init__(num_clients, seed_seq)
        check_positive_finite("churn_uptime_s", up_s)
        check_positive_finite("churn_downtime_s", down_s)
        self._up_s = up_s
        self._down_s = down_s

    def _window_s(self, rng: np.random.Generator, up: bool, start: float) -> float:
        return float(rng.exponential(self._up_s if up else self._down_s))


class DiurnalRenewal(_RenewalProcess):
    """Renewal process with sinusoidally modulated window means.

    At phase ``m = 1 + amplitude * sin(2*pi*start/period)`` the mean
    up-window is ``churn_uptime_s * m`` and the mean down-window
    ``churn_downtime_s / m`` — peak hours keep clients up longer *and*
    bring them back faster.  ``amplitude < 1`` keeps ``m`` positive.
    """

    def __init__(
        self,
        num_clients: int,
        seed_seq: np.random.SeedSequence,
        up_s: float,
        down_s: float,
        period_s: float,
        amplitude: float,
    ) -> None:
        super().__init__(num_clients, seed_seq)
        check_positive_finite("churn_uptime_s", up_s)
        check_positive_finite("churn_downtime_s", down_s)
        check_positive("period_s", period_s)
        if not 0.0 <= amplitude < 1.0:
            raise ValueError(f"amplitude must be in [0, 1), got {amplitude}")
        self._up_s = up_s
        self._down_s = down_s
        self._period_s = period_s
        self._amplitude = amplitude

    def phase_multiplier(self, t: float) -> float:
        """The window-mean multiplier at absolute time ``t``."""
        return 1.0 + self._amplitude * math.sin(2.0 * math.pi * t / self._period_s)

    def _window_s(self, rng: np.random.Generator, up: bool, start: float) -> float:
        m = self.phase_multiplier(start)
        mean = self._up_s * m if up else self._down_s / m
        return float(rng.exponential(mean))


class HandoffRenewal(_RenewalProcess):
    """Mobility flavor: exponential coverage dwell, fixed handoff gap.

    Down-windows are the *constant* ``churn_downtime_s`` (the blackout
    while a client re-associates after leaving coverage) and consume no
    randomness.
    """

    def __init__(
        self,
        num_clients: int,
        seed_seq: np.random.SeedSequence,
        up_s: float,
        down_s: float,
    ) -> None:
        super().__init__(num_clients, seed_seq)
        check_positive_finite("churn_uptime_s", up_s)
        check_positive_finite("churn_downtime_s", down_s)
        self._up_s = up_s
        self._down_s = down_s

    def _window_s(self, rng: np.random.Generator, up: bool, start: float) -> float:
        if up:
            return float(rng.exponential(self._up_s))
        return self._down_s


class CellCorrelated(AvailabilityProcess):
    """Correlated outages: one shared renewal stream per cell.

    Clients map onto ``num_cells`` contiguous cells
    (``cell = client * num_cells // num_clients``); every client in a
    cell shares the cell's toggle list, so outages take the whole cell
    dark together — the scenario the per-client models can never
    produce.
    """

    def __init__(
        self,
        num_clients: int,
        seed_seq: np.random.SeedSequence,
        up_s: float,
        down_s: float,
        num_cells: int,
    ) -> None:
        check_positive_finite("churn_uptime_s", up_s)
        check_positive_finite("churn_downtime_s", down_s)
        check_positive("num_cells", num_cells)
        num_cells = min(num_cells, num_clients)
        self.num_cells = num_cells
        self.cell_of = [c * num_cells // num_clients for c in range(num_clients)]
        self._rngs = [np.random.default_rng(s) for s in seed_seq.spawn(num_cells)]
        self._toggles: list[list[float]] = [[] for _ in range(num_cells)]
        self._up_s = up_s
        self._down_s = down_s

    def toggles(self, client: int, t: float) -> list[float]:
        cell = self.cell_of[client]
        toggles = self._toggles[cell]
        rng = self._rngs[cell]
        while not toggles or toggles[-1] <= t:
            last = toggles[-1] if toggles else 0.0
            window = self._up_s if len(toggles) % 2 == 0 else self._down_s
            toggles.append(last + float(rng.exponential(window)))
        return toggles


class TraceReplay(AvailabilityProcess):
    """Re-drive availability from a recorded ``--trace-out`` JSONL file.

    Reads the trace's ``availability`` rows (one per client, sorted
    toggle times clipped to the recorded horizon).  Streams are finite:
    queries beyond the horizon see each client frozen in its final
    recorded state, which is exactly what a shorter-or-equal replay run
    observes from the original infinite process.
    """

    finite = True

    def __init__(self, path: str, num_clients: int) -> None:
        check_positive("num_clients", num_clients)
        # Clients without a row never toggled inside the recorded horizon:
        # they stay up for the whole replay.
        self._toggles: list[list[float]] = [[] for _ in range(num_clients)]
        for line, row in read_rows(path, "availability"):
            client = row["client"]
            if client >= num_clients:
                raise ValueError(
                    f"{path}:{line}: availability row for client {client} "
                    f"outside fleet of {num_clients}"
                )
            self._toggles[client] = row["toggles"]

    def toggles(self, client: int, t: float) -> list[float]:
        return self._toggles[client]


def make_availability_process(
    spec: "str | AvailabilitySpec",
    num_clients: int,
    seed_seq: np.random.SeedSequence,
    up_s: "float | None",
    down_s: "float | None",
) -> "AvailabilityProcess | None":
    """Realize the availability process for one dynamics instance.

    Returns ``None`` for the identity case (``exponential`` with no churn
    windows — clients are simply always up).  ``seed_seq`` is the
    dynamics' availability seed branch; every process spawns its
    generators from it so the historical exponential stream is untouched.
    """
    if isinstance(spec, str):
        spec = parse_availability(spec)
    if spec.kind == "trace":
        return TraceReplay(spec.path, num_clients)
    if spec.needs_windows and up_s is None:
        raise ValueError(
            f"availability {spec.kind!r} requires churn windows "
            f"(churn_uptime_s / churn_downtime_s)"
        )
    if up_s is None:
        return None
    if spec.kind == "exponential":
        return ExponentialRenewal(num_clients, seed_seq, up_s, down_s)
    if spec.kind == "diurnal":
        return DiurnalRenewal(
            num_clients, seed_seq, up_s, down_s, spec.period_s, spec.amplitude
        )
    if spec.kind == "cells":
        return CellCorrelated(num_clients, seed_seq, up_s, down_s, spec.num_cells)
    if spec.kind == "handoff":
        return HandoffRenewal(num_clients, seed_seq, up_s, down_s)
    raise ValueError(f"unknown availability kind {spec.kind!r}")
