"""The dense :class:`~repro.sim.resources.FairShareLink` engine as it was
before it queued only the link's earliest completion.

:class:`PerFlowArmingLink` queued a completion *per flow* and, on every
membership change, cancelled and re-created one for each flow whose rate
had changed.  It shares no code with ``repro.sim.resources`` beyond the
``_Flow`` record and the policies; ``tests/sim/test_dense_link_oracle.py``
replays arbitrary schedules through it and the engine.
"""

from __future__ import annotations

from repro.sim.engine import Environment
from repro.sim.events import Event
from repro.sim.resources import SharePolicy, _Flow


class PerFlowArmingLink:
    """The pre-rewrite dense engine: one queued completion per flow.

    Frozen reference — do not "tidy" it towards the production engine;
    its value is that it is the algorithm the contended-medium answers
    were first produced by.
    """

    def __init__(
        self, env: Environment, capacity_bps: float, policy: SharePolicy
    ) -> None:
        self.env = env
        self.capacity_bps = capacity_bps
        self.policy = policy
        self._flows: dict[Event, _Flow] = {}

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def transfer(self, nbits, *, client=None, rate_fn=None, nominal=None) -> Event:
        flow = _Flow(
            remaining_bits=float(nbits),
            done=Event(self.env),
            last_update=self.env.now,
            client=client,
            rate_fn=rate_fn,
            nominal=nominal,
        )
        self._settle()
        self._flows[flow.done] = flow
        self._reallocate()
        return flow.done

    def abort(self, done: Event) -> "float | None":
        flow = self._flows.get(done)
        if flow is None:
            return None
        self._settle()
        if flow.completion is not None:
            self.env.cancel(flow.completion)
        flow.completion = None
        del self._flows[done]
        if self._flows:
            self._reallocate()
        return flow.remaining_bits

    def _settle(self) -> None:
        now = self.env.now
        for flow in self._flows.values():
            elapsed = now - flow.last_update
            if elapsed > 0.0 and flow.bps > 0.0:
                flow.remaining_bits = max(0.0, flow.remaining_bits - elapsed * flow.bps)
            flow.last_update = now

    def _reallocate(self) -> None:
        if not self._flows:
            return
        flows = list(self._flows.values())
        allocations = self.policy.allocate(flows, self.capacity_bps)
        for flow, allocated in zip(flows, allocations):
            bps = flow.rate_fn(allocated) if flow.rate_fn is not None else allocated
            if flow.completion is not None and bps == flow.bps:
                continue  # unchanged rate: the scheduled completion stands
            flow.bps = bps
            if flow.completion is not None:
                self.env.cancel(flow.completion)
            if bps <= 0.0:
                flow.completion = None
                continue
            completion = Event(self.env)
            flow.completion = completion
            eta = flow.remaining_bits / bps
            self.env._schedule(self.env.now + eta, completion, None)
            completion.add_callback(self._make_finisher(flow, completion))

    def _make_finisher(self, flow: _Flow, completion: Event):
        def _finish(_: Event) -> None:
            if flow.completion is not completion or flow.done.triggered:
                return
            self._settle()
            flow.remaining_bits = 0.0
            del self._flows[flow.done]
            if self._flows:
                self._reallocate()
            flow.done.succeed()

        return _finish


def reference_link(env, capacity, policy):
    return PerFlowArmingLink(env, capacity, policy)
