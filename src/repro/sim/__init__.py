"""``repro.sim`` — deterministic discrete-event simulation kernel.

Generator-coroutine processes over a heap-driven event loop (SimPy-style),
counting-semaphore resources, a policy-driven shared-link model, latency
trace recording, and a demand-resolving :class:`~repro.sim.runtime.Runtime`
that prices compute/transmission demands during replay.  The wireless
training schemes are expressed as processes over this kernel.
"""

from repro.sim.engine import Environment, Process
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.resources import (
    EqualShare,
    FairShareLink,
    NominalShare,
    Resource,
    SharePolicy,
)
from repro.sim.runtime import (
    ComputeDemand,
    Preemption,
    Runtime,
    TrackOutcome,
    TrackRecovery,
    TransmitDemand,
    TransmitLeg,
)
from repro.sim.server import (
    AbortRecord,
    AggregationServer,
    BoundedStaleness,
    PolynomialStaleness,
    StalenessPolicy,
    SyncBarrier,
    UpdateRecord,
    parse_aggregation,
)
from repro.sim.trace import (
    ABORT_RESOLUTIONS,
    PHASES,
    AbortEvent,
    RetryEvent,
    TraceEvent,
    TraceRecorder,
)

__all__ = [
    "Environment",
    "Process",
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Resource",
    "SharePolicy",
    "EqualShare",
    "NominalShare",
    "FairShareLink",
    "ComputeDemand",
    "TransmitLeg",
    "TransmitDemand",
    "Runtime",
    "Preemption",
    "TrackRecovery",
    "TrackOutcome",
    "StalenessPolicy",
    "SyncBarrier",
    "PolynomialStaleness",
    "BoundedStaleness",
    "AggregationServer",
    "UpdateRecord",
    "AbortRecord",
    "parse_aggregation",
    "TraceEvent",
    "AbortEvent",
    "RetryEvent",
    "TraceRecorder",
    "PHASES",
    "ABORT_RESOLUTIONS",
]
