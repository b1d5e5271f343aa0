"""Shared resources for the simulation kernel.

:class:`Resource` is a counting semaphore with FIFO queueing — used to
model the edge server's limited pool of server-side model replicas (GSFL
hosts ``M`` replicas; a group must hold one to train) and per-device
compute exclusivity in the runtime.

:class:`FairShareLink` models a shared wireless medium: a fixed capacity
is divided among the flows in flight by a pluggable :class:`SharePolicy`,
and each flow's completion time is recomputed whenever its allocation
changes.  Flows may carry a ``rate_fn`` translating their allocated
capacity (e.g. bandwidth in Hz) into an instantaneous bitrate — this is
how per-client Shannon rates with frozen fading realizations ride on the
shared medium.  This captures the contention GSFL creates when all ``M``
groups transmit concurrently — the effect behind the latency crossover
between GSFL and SL for large ``M``.

Policies:

* :class:`EqualShare` — egalitarian processor sharing (the default, and
  the original behaviour: ``capacity / n_active`` each);
* :class:`NominalShare` — static subchannels: every flow holds exactly
  the nominal allocation it declared at :meth:`FairShareLink.transfer`
  time, scaled down proportionally only when the medium is
  oversubscribed.  Allocations are membership-independent, so completion
  times are never rescheduled and each flow's duration is *exactly*
  ``nbits / rate_fn(nominal)`` — the analytic static-share model.

Contention-aware policies driven by the wireless allocators live in
:func:`repro.wireless.bandwidth.as_share_policy` (structural typing; the
kernel only calls ``policy.allocate``).

Fleet-scale kernels
-------------------

The link picks one of two internal engines from the policy's
:attr:`~SharePolicy.incremental_kind` (``incremental=False`` pins the
dense reference used by the equivalence suite):

``"static"`` (:class:`NominalShare` while under capacity)
    Allocations are membership-independent, so an arrival prices and
    schedules only itself (same float expressions as the dense engine —
    completion times stay **bitwise** identical, the golden-history
    guarantee) and a departure touches nothing.  The first
    oversubscribing arrival demotes the link to the dense engine
    (settling every flow lazily first); the link re-arms the fast mode
    whenever it drains idle.

``"dense"`` (everything else: :class:`EqualShare`, allocator-backed
contended policies)
    Full recomputation: re-run :meth:`SharePolicy.allocate` over the
    active set, then, in one pass, settle every flow at its old rate and
    re-price the flows whose rate changed.  A re-priced flow keeps a finish instant and the
    queue ticket it would have been scheduled with; only the link's
    earliest completion is actually queued (under that ticket, so ties
    with every other event resolve as if each flow were queued).  A
    membership change over ``n`` flows costs at most ``n`` rate
    evaluations and one heap push — not ``n`` cancels, events and
    closures.  ``rate_fn`` is a deterministic function of the allocation
    for the life of its flow, so each flow remembers what it has priced
    (``allocation → bit/s``) and ``rate_fn`` is evaluated at most once
    per distinct allocation: a contended medium revisits the same few
    allocations (``B/n`` under equal shares) many times over.  The table
    lives on the flow and dies with it — a transfer re-submitted after
    an abort is a new flow with an empty table — and flows without a
    ``rate_fn`` have none.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.sim.engine import Environment
from repro.sim.events import Event

__all__ = [
    "Resource",
    "SharePolicy",
    "EqualShare",
    "NominalShare",
    "FairShareLink",
]


class Resource:
    """Counting semaphore with FIFO grant order.

    Usage::

        grant = resource.request()
        yield grant          # suspends until a slot is free
        ...                  # critical section
        resource.release()
    """

    def __init__(self, env: Environment, capacity: int) -> None:
        if not capacity > 0:  # NaN too: no request would ever be granted
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: deque[Event] = deque()

    def request(self) -> Event:
        """Return an event that fires when a slot is granted."""
        grant = Event(self.env)
        if self._in_use < self.capacity:
            self._in_use += 1
            # Grant immediately but asynchronously (deterministic ordering).
            self.env._schedule(self.env.now, grant, None)
        else:
            self._waiters.append(grant)
        return grant

    def release(self) -> None:
        """Release one slot, waking the oldest waiter if any."""
        if self._in_use <= 0:
            raise RuntimeError("release() without a matching request()")
        if self._waiters:
            grant = self._waiters.popleft()
            self.env._schedule(self.env.now, grant, None)
        else:
            self._in_use -= 1

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queued(self) -> int:
        return len(self._waiters)


@dataclass
class _Flow:
    """One in-flight transfer on a shared link."""

    remaining_bits: float
    done: Event
    last_update: float
    client: "int | None" = None
    rate_fn: "Callable[[float], float] | None" = None
    nominal: "float | None" = None
    bps: float = 0.0
    #: dense engine: what ``rate_fn`` returned, by allocation (``None``
    #: until first priced there — never, without a ``rate_fn``)
    rates: "dict[float, float] | None" = None
    #: the queued completion (dense: held by the link's earliest flow only)
    completion: Event | None = field(default=None)
    #: dense engine: instant the flow completes at ``bps`` (``None`` until
    #: priced, and while starved) and the queue ticket drawn with it
    finish_at: float | None = None
    arm_seq: int = 0
    #: False once finished or aborted
    alive: bool = True


class SharePolicy:
    """Divides a link's capacity among the flows currently in flight."""

    name = "base"
    #: which link engine the policy admits: ``"static"`` (allocations
    #: fixed at admission while feasible — the link prices each flow
    #: once) or ``"dense"`` (full recomputation on every membership
    #: change)
    incremental_kind = "dense"

    def allocate(self, flows: Sequence[_Flow], capacity: float) -> list[float]:
        """Capacity units granted to each flow (same order as ``flows``)."""
        raise NotImplementedError

    def update(
        self,
        added: Sequence[_Flow],
        removed: Sequence[_Flow],
        capacity: float,
        load: float,
    ) -> "tuple[list[float], float] | None":
        """Incremental fast path for one membership change.

        ``load`` is the policy-defined total weight of the flows active
        *before* the change (the link threads it back verbatim; zeroed
        whenever the link drains idle).  Return
        ``(allocations_for_added, new_load)`` when every existing flow
        keeps its allocation, or ``None`` to force a dense
        :meth:`allocate` over the whole active set.
        """
        return None


class EqualShare(SharePolicy):
    """Egalitarian processor sharing: ``capacity / n_active`` each."""

    name = "equal"

    def allocate(self, flows: Sequence[_Flow], capacity: float) -> list[float]:
        if not flows:
            return []
        share = capacity / len(flows)
        return [share] * len(flows)


class NominalShare(SharePolicy):
    """Static subchannels: each flow holds its declared nominal allocation.

    Oversubscription (sum of nominals beyond capacity, modulo float
    round-off) scales every allocation proportionally — graceful
    congestion instead of an impossible over-capacity schedule.
    """

    name = "nominal"
    incremental_kind = "static"

    @staticmethod
    def _check_nominals(flows: Sequence[_Flow]) -> None:
        for flow in flows:
            if flow.nominal is None:
                raise ValueError(
                    "NominalShare requires every transfer to declare a "
                    "nominal allocation"
                )

    def allocate(self, flows: Sequence[_Flow], capacity: float) -> list[float]:
        self._check_nominals(flows)
        total = sum(flow.nominal for flow in flows)
        if total > capacity * (1.0 + 1e-9):
            scale = capacity / total
            return [flow.nominal * scale for flow in flows]
        return [flow.nominal for flow in flows]

    def update(
        self,
        added: Sequence[_Flow],
        removed: Sequence[_Flow],
        capacity: float,
        load: float,
    ) -> "tuple[list[float], float] | None":
        """Nominal allocations for ``added`` while the link stays feasible.

        ``load`` tracks the sum of active nominals; an arrival that would
        oversubscribe the link returns ``None`` (dense rescaling takes
        over until the link drains).
        """
        self._check_nominals(added)
        for flow in added:
            load += flow.nominal
        for flow in removed:
            load -= flow.nominal
        if load > capacity * (1.0 + 1e-9):
            return None
        return [flow.nominal for flow in added], load


class FairShareLink:
    """Shared-medium model with policy-driven capacity division.

    On every arrival or departure the remaining bits of each flow are
    charged for the service received since the last membership change,
    the policy re-allocates capacity, and completion instants are
    re-priced for flows whose instantaneous bitrate changed.  Flows whose
    allocation is membership-independent (:class:`NominalShare`) keep
    their original completion time exactly.  With the default
    :class:`EqualShare` policy and no ``rate_fn``, a single flow reduces
    to ``bits / capacity`` exactly.

    The link runs the ``"static"`` engine for :class:`NominalShare` while
    it is under capacity and the ``"dense"`` engine otherwise.
    ``incremental=False`` pins the dense reference engine regardless of
    policy — the semantic oracle the equivalence suite replays arbitrary
    schedules against.
    """

    def __init__(
        self,
        env: Environment,
        capacity_bps: float,
        policy: SharePolicy | None = None,
        incremental: bool = True,
    ) -> None:
        if not 0 < capacity_bps < math.inf:  # NaN fails both comparisons
            raise ValueError(f"capacity_bps must be positive and finite, got {capacity_bps}")
        self.env = env
        self.capacity_bps = capacity_bps
        self.policy = policy if policy is not None else EqualShare()
        self.incremental = incremental
        self._flows: dict[Event, _Flow] = {}
        self._mode = self._fast_mode() if incremental else "dense"
        # static engine: policy-owned feasibility load (sum of nominals)
        self._load = 0.0

    def _fast_mode(self) -> str:
        return getattr(self.policy, "incremental_kind", "dense")

    def transfer(
        self,
        nbits: float,
        *,
        client: int | None = None,
        rate_fn: Callable[[float], float] | None = None,
        nominal: float | None = None,
    ) -> Event:
        """Start a transfer; returns an event fired at completion.

        ``rate_fn`` maps the flow's allocated capacity to an instantaneous
        bitrate (identity when omitted: allocated capacity *is* the
        bitrate).  It must be a deterministic function of the allocation
        for the life of the flow: the dense engine evaluates it at most
        once per distinct allocation.  ``client`` attributes the flow for
        client-aware policies; ``nominal`` declares the static-model
        allocation used by :class:`NominalShare` and as a policy weight.
        """
        if not 0 < nbits < math.inf:
            raise ValueError(f"nbits must be positive and finite, got {nbits}")
        flow = _Flow(
            remaining_bits=float(nbits),
            done=Event(self.env),
            last_update=self.env.now,
            client=client,
            rate_fn=rate_fn,
            nominal=nominal,
        )
        if self._mode == "static":
            admitted = self.policy.update(
                (flow,), (), self.capacity_bps, self._load
            )
            if admitted is not None:
                allocations, self._load = admitted
                self._static_admit(flow, allocations[0])
                return flow.done
            # Oversubscribed: dense rescaling over the whole active set.
            self._demote_static()
        self._flows[flow.done] = flow
        self._dense_reallocate()
        return flow.done

    def abort(self, done: Event) -> float | None:
        """Cancel the in-flight transfer identified by its ``done`` event.

        The flow is charged for the service it received up to *now*,
        removed from the medium, and the remaining capacity is re-divided
        over the surviving transmitters at this exact instant.  The
        flow's ``done`` event never fires — an aborted transfer delivers
        nothing — and its scheduled completion is cancelled.  Returns the
        undelivered bits, or ``None`` when the flow is not in flight
        (already completed or never started here).
        """
        flow = self._flows.get(done)
        if flow is None:
            return None
        static = self._mode == "static"
        # The survivors are settled by the dense re-allocation below.
        self._lazy_settle(flow)
        if flow.completion is not None:
            self.env.cancel(flow.completion)
        flow.completion = None
        flow.alive = False
        del self._flows[done]
        if static:
            self._static_drop_load(flow)
        if not self._flows:
            self._reset_idle()
        elif not static:
            self._dense_reallocate()
        return flow.remaining_bits

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    # ------------------------------------------------------------------
    # static engine (membership-independent allocations)
    # ------------------------------------------------------------------
    def _static_admit(self, flow: _Flow, allocated: float) -> None:
        """Price and schedule one admitted flow; nobody else is touched."""
        bps = flow.rate_fn(allocated) if flow.rate_fn is not None else allocated
        flow.bps = bps
        self._flows[flow.done] = flow
        if bps <= 0.0:
            # Starved at its own subchannel: stalls forever (as the dense
            # engine would — the same rate recomputes at every change).
            flow.completion = None
            return
        completion = Event(self.env)
        flow.completion = completion
        eta = flow.remaining_bits / bps
        self.env._schedule(self.env.now + eta, completion, None)
        completion.add_callback(self._make_static_finisher(flow, completion))

    def _static_drop_load(self, flow: _Flow) -> None:
        dropped = self.policy.update((), (flow,), self.capacity_bps, self._load)
        if dropped is not None:
            self._load = dropped[1]

    def _make_static_finisher(
        self, flow: _Flow, completion: Event
    ) -> Callable[[Event], None]:
        def _finish(_: Event) -> None:
            if (
                flow.completion is not completion
                or flow.done.triggered
                or not flow.alive
            ):
                return
            flow.remaining_bits = 0.0
            flow.alive = False
            del self._flows[flow.done]
            self._static_drop_load(flow)
            if not self._flows:
                self._reset_idle()
            flow.done.succeed()

        return _finish

    def _lazy_settle(self, flow: _Flow) -> None:
        """Charge one flow for the service since its last settlement."""
        elapsed = self.env.now - flow.last_update
        if elapsed > 0.0 and flow.bps > 0.0:
            flow.remaining_bits = max(
                0.0, flow.remaining_bits - elapsed * flow.bps
            )
        flow.last_update = self.env.now

    # ------------------------------------------------------------------
    # engine demotion / idle reset
    # ------------------------------------------------------------------
    def _demote_static(self) -> None:
        """Settle every flow lazily; dense rescaling takes over.

        The dense reallocation that follows re-prices every flow it has
        no finish instant for and cancels what the flow had queued — so
        no static finisher survives to complete a flow without
        re-dividing the medium over the survivors (the hazard when a
        clamping ``rate_fn`` keeps a bitrate unchanged under rescaling).
        """
        for flow in self._flows.values():
            self._lazy_settle(flow)
        self._mode = "dense"

    def _reset_idle(self) -> None:
        """Drained links zero their load and re-arm the fast mode."""
        self._load = 0.0
        if self.incremental:
            self._mode = self._fast_mode()

    # ------------------------------------------------------------------
    # dense engine (full recomputation — the reference semantics)
    # ------------------------------------------------------------------
    def _dense_reallocate(self) -> None:
        """Charge every flow its service since the last membership change,
        re-divide capacity, re-price re-rated flows, queue the earliest.

        One pass: each flow is settled at its old bitrate in the loop that
        re-prices it (the policies read neither the bits nor the instants).
        """
        env = self.env
        now, reserve = env.now, env._reserve
        flows = list(self._flows.values())
        allocations = self.policy.allocate(flows, self.capacity_bps)
        head: _Flow | None = None
        head_at = 0.0
        for flow, allocated in zip(flows, allocations):
            elapsed = now - flow.last_update
            if elapsed > 0.0 and flow.bps > 0.0:
                left = flow.remaining_bits - elapsed * flow.bps
                flow.remaining_bits = left if left > 0.0 else 0.0
            flow.last_update = now
            rate_fn = flow.rate_fn
            if rate_fn is None:
                bps = allocated
            else:
                rates = flow.rates
                if rates is None:
                    rates = flow.rates = {}
                priced = rates.get(allocated)
                if priced is None:
                    priced = rates[allocated] = rate_fn(allocated)
                bps = priced
            at = flow.finish_at
            if at is None or bps != flow.bps:
                # Re-rated (an unchanged rate keeps its instant and ticket).
                flow.bps = bps
                if flow.completion is not None:
                    env.cancel(flow.completion)
                    flow.completion = None
                if bps <= 0.0:
                    # Starved flow: stalls until the next membership change.
                    flow.finish_at = None
                    continue
                at = flow.finish_at = now + flow.remaining_bits / bps
                flow.arm_seq = reserve()
            if head is None or at < head_at or (at == head_at and flow.arm_seq < head.arm_seq):
                head, head_at = flow, at
        if head is not None and head.completion is None:
            completion = head.completion = Event(env)
            env._schedule(head_at, completion, head, seq=head.arm_seq)
            completion.add_callback(self._dense_finish)

    def _dense_finish(self, completion: Event) -> None:
        flow: _Flow = completion.value
        if flow.completion is not completion:
            return  # superseded (rate changed since queueing)
        # The live completion is authoritative: the rate has not changed
        # since it was priced, so the transfer is done now regardless of
        # float residue in remaining_bits; the survivors are settled by the
        # re-allocation.
        flow.remaining_bits = 0.0
        flow.alive = False
        del self._flows[flow.done]
        if not self._flows:
            self._reset_idle()
        else:
            self._dense_reallocate()
        flow.done.succeed()
