"""Client-availability processes behind :class:`ClientDynamics`.

A process owns per-client sorted **toggle streams**: state before the
first toggle is "up", flipping at every entry; a toggle landing exactly
at ``t`` counts as flipped, i.e. windows are half-open ``[start, end)``.
Processes are named by a compact spec string carried in
``DynamicsConfig.availability``:

* ``"exponential"`` — the historical per-client exponential on/off
  renewal process, reproducing the original draw order bitwise (the
  golden-history suite pins it).
* ``"diurnal[:PERIOD[:AMPLITUDE]]"`` — window *means* ride a sinusoid of
  ``PERIOD`` seconds: at peak phase up-windows stretch by
  ``1+AMPLITUDE`` and down-windows shrink by the same factor (off-peak
  mirrors it), modelling day/night availability waves.
* ``"cells[:K]"`` — correlated outages: clients map onto ``K``
  contiguous cells and every cell shares *one* stream, so a whole cell
  goes dark (and recovers) together.
* ``"handoff"`` — mobility flavor: exponential dwell time in coverage,
  then a *fixed* ``churn_downtime_s`` gap (the handoff blackout) that
  draws no randomness.
* ``"trace:PATH"`` — exact replay of the ``availability`` rows of a
  JSONL trace previously written by ``--trace-out``.  Replayed streams
  end at the recorded horizon; beyond it clients keep their final state.

The four windowed kinds are one :class:`RenewalProcess`: the same lazy
renewal loop over one generator per stream, with the window law read off
the parsed spec.  Its generators are spawned off the dynamics seed, so a
spec replays identically for a fixed seed regardless of scheme or query
order.
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
    "RenewalProcess",
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


class RenewalProcess:
    """Alternating up/down renewal streams for every windowed spec kind.

    Client ``c`` reads stream ``stream_of[c] = c * S // N`` of ``S``
    streams: ``S = N`` (one per client), or ``min(K, N)`` under
    ``cells:K``.  Each stream owns one generator and one lazily extended
    toggle list, so a stream's draws do not depend on which client is
    queried first.  Window lengths are exponential with means
    ``up_s * m`` and ``down_s / m``, where ``m`` is
    :meth:`phase_multiplier` (1 but under ``diurnal``); ``handoff``
    down-windows are the constant ``down_s``.
    """

    def __init__(
        self,
        spec: AvailabilitySpec,
        num_clients: int,
        seed_seq: np.random.SeedSequence,
        up_s: float,
        down_s: float,
    ) -> None:
        check_positive_finite("churn_uptime_s", up_s)
        check_positive_finite("churn_downtime_s", down_s)
        self.spec = spec
        streams = min(spec.num_cells, num_clients) if spec.kind == "cells" else num_clients
        self.stream_of = [c * streams // num_clients for c in range(num_clients)]
        self._rngs = [np.random.default_rng(s) for s in seed_seq.spawn(streams)]
        self._toggles: list[list[float]] = [[] for _ in range(streams)]
        self._up_s = up_s
        self._down_s = down_s

    def phase_multiplier(self, t: float) -> float:
        """The window-mean multiplier at absolute time ``t``.

        ``1 + amplitude * sin(2*pi*t/period)`` under ``diurnal`` — peak
        hours keep clients up longer *and* bring them back faster;
        ``amplitude < 1`` keeps it positive — and exactly 1 otherwise.
        """
        if self.spec.kind != "diurnal":
            return 1.0
        return 1.0 + self.spec.amplitude * math.sin(2.0 * math.pi * t / self.spec.period_s)

    def toggles(self, client: int, t: float) -> list[float]:
        """The client's toggle stream, extended past ``t``."""
        stream = self.stream_of[client]
        toggles = self._toggles[stream]
        rng = self._rngs[stream]
        while not toggles or toggles[-1] <= t:
            last = toggles[-1] if toggles else 0.0
            up = len(toggles) % 2 == 0
            toggles.append(last + self._window_s(rng, up, last))
        return toggles

    def _window_s(self, rng: np.random.Generator, up: bool, start: float) -> float:
        if not up and self.spec.kind == "handoff":
            return self._down_s
        # ``x * 1.0`` and ``x / 1.0`` are exact: the non-diurnal kinds
        # draw bitwise what a plain exponential of the window would.
        m = self.phase_multiplier(start)
        return float(rng.exponential(self._up_s * m if up else self._down_s / m))


class TraceReplay:
    """Re-drive availability from a recorded ``--trace-out`` JSONL file.

    Reads the trace's ``availability`` rows (one per client, sorted
    toggle times clipped to the recorded horizon).  Queries beyond the
    horizon see each client frozen in its final recorded state, which is
    exactly what a shorter-or-equal replay run observes from the
    original process.
    """

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
        """The client's recorded stream; it may end at or before ``t``."""
        return self._toggles[client]


def make_availability_process(
    spec: "str | AvailabilitySpec",
    num_clients: int,
    seed_seq: np.random.SeedSequence,
    up_s: "float | None",
    down_s: "float | None",
) -> "RenewalProcess | TraceReplay | None":
    """Realize the availability process for one dynamics instance.

    Returns ``None`` for the identity case (no churn windows and no
    trace — clients are simply always up); ``DynamicsConfig.validate``
    has already refused a windowed kind without windows.  ``seed_seq``
    is the dynamics' availability seed branch.
    """
    if isinstance(spec, str):
        spec = parse_availability(spec)
    if spec.kind == "trace":
        return TraceReplay(spec.path, num_clients)
    if up_s is None:
        return None
    return RenewalProcess(spec, num_clients, seed_seq, up_s, down_s)
