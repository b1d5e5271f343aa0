"""Outside-in span recorder for the end-to-end benchmark's traced repeat.

Nothing under ``src/`` knows about this file: the traced child wraps the
*public* callable at each layer boundary (class attributes in place,
module-level functions through every ``from x import f`` alias), keeps
the spans in memory, and undoes every patch on exit.

Two kinds of boundary:

* **leaf** — inclusive time; while a leaf is open no other span is
  recorded, so what it calls (``Module.__call__`` under
  ``ClientHalf.forward_to_smashed``, say) is part of the leaf.
* **frame** — self time: its duration minus the durations of the spans
  recorded directly beneath it.

Generator functions must not be wrapped (the call returns before the
work runs); :data:`BOUNDARIES` names none.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from dataclasses import dataclass
from types import ModuleType
from typing import Any, Callable, Iterator

__all__ = ["Boundary", "BOUNDARIES", "Tracer"]

LEAF = True
FRAME = False

#: ``measure(args, kwargs, result)`` → amount added to the span name's counter
Measure = Callable[[tuple, dict, Any], int]


@dataclass(frozen=True)
class Boundary:
    """One public callable timed from outside.

    ``target`` is ``"func"`` or ``"Class.method"`` inside ``module``.
    ``subclasses`` also wraps every subclass override of the method.
    """

    name: str
    leaf: bool
    module: str
    target: str
    subclasses: bool = False
    measure: Measure | None = None


def _batch_size(args: tuple, kwargs: dict, result: Any) -> int:
    return len(result[1])


def _num_items(args: tuple, kwargs: dict, result: Any) -> int:
    items = kwargs["items"] if "items" in kwargs else args[2]
    return len(items)


#: layer = ``src/repro/<module>``; the span name is the metric stem
#: (``<name>_s`` seconds and ``<name>_calls`` calls in the ledger)
BOUNDARIES: tuple[Boundary, ...] = (
    Boundary("cli.main_self", FRAME, "repro.cli", "main"),
    Boundary("experiments.build", FRAME, "repro.experiments.scenario", "ExperimentScenario.build"),
    Boundary("experiments.make_scheme", FRAME, "repro.experiments.runner", "make_scheme"),
    Boundary("experiments.dynamics", LEAF, "repro.experiments.dynamics", "ClientDynamics.begin_round"),
    Boundary("experiments.dynamics", LEAF, "repro.experiments.dynamics",
             "ClientDynamics.unit_round_conditions"),
    Boundary("data.synth", LEAF, "repro.data.gtsrb", "SyntheticGTSRB.train_test"),
    Boundary("data.partition", LEAF, "repro.data.partition", "partition_iid"),
    Boundary("data.partition", LEAF, "repro.data.partition", "partition_dirichlet"),
    Boundary("data.partition", LEAF, "repro.data.partition", "make_client_datasets"),
    Boundary("data.sample_batch", LEAF, "repro.data.dataset", "DataLoader.sample_batch",
             measure=_batch_size),
    Boundary("models.build", LEAF, "repro.models.registry", "build_model"),
    Boundary("nn.client_forward", LEAF, "repro.nn.split", "ClientHalf.forward_to_smashed"),
    Boundary("nn.client_backward", LEAF, "repro.nn.split", "ClientHalf.backward_from_gradient"),
    Boundary("nn.server_fwd_bwd", LEAF, "repro.nn.split", "ServerHalf.forward_backward"),
    # Outermost unsplit passes: under any split/eval leaf these are dropped.
    Boundary("nn.full_forward", LEAF, "repro.nn.module", "Module.__call__"),
    Boundary("nn.full_backward", LEAF, "repro.nn.tensor", "Tensor.backward"),
    Boundary("nn.optim_step", LEAF, "repro.nn.optim", "SGD.step"),
    Boundary("nn.state_io", LEAF, "repro.nn.module", "Module.state_dict", subclasses=True),
    Boundary("nn.state_io", LEAF, "repro.nn.module", "Module.load_state_dict", subclasses=True),
    Boundary("nn.profile", LEAF, "repro.nn.profile", "profile_model"),
    Boundary("exec.map_groups", FRAME, "repro.exec.executors", "SerialExecutor.map_groups",
             measure=_num_items),
    Boundary("core.fedavg", LEAF, "repro.core.aggregation", "fedavg"),
    Boundary("core.mix", LEAF, "repro.core.aggregation", "mix_states"),
    Boundary("core.mix", LEAF, "repro.core.aggregation", "weighted_delta"),
    Boundary("core.make_groups", LEAF, "repro.core.grouping", "make_groups"),
    Boundary("schemes.run", FRAME, "repro.schemes.base", "Scheme.run"),
    Boundary("schemes.train_group", FRAME, "repro.schemes.split_common", "train_split_group"),
    Boundary("schemes.price", LEAF, "repro.schemes.split_common", "price_local_round"),
    Boundary("schemes.price", LEAF, "repro.schemes.split_common", "price_model_downlink"),
    Boundary("schemes.price", LEAF, "repro.schemes.split_common", "price_model_uplink"),
    Boundary("wireless.system_init", LEAF, "repro.wireless.system", "WirelessSystem.__init__"),
    Boundary("wireless.shares", LEAF, "repro.wireless.bandwidth", "BandwidthAllocator.shares",
             subclasses=True),
    Boundary("wireless.energy", LEAF, "repro.wireless.energy", "EnergyModel.per_client_energy"),
    Boundary("wireless.energy", LEAF, "repro.wireless.energy", "EnergyModel.fleet_energy"),
    Boundary("sim.sync_des", FRAME, "repro.sim.server", "SyncBarrier.resolve_round"),
    Boundary("sim.async_des", FRAME, "repro.sim.server", "AggregationServer.run"),
    Boundary("sim.commit", FRAME, "repro.sim.server", "AggregationServer.commit"),
    Boundary("sim.link_submit", FRAME, "repro.sim.resources", "FairShareLink.transfer"),
    Boundary("sim.link_abort", FRAME, "repro.sim.resources", "FairShareLink.abort"),
    Boundary("sim.codec", LEAF, "repro.sim.transport", "TransportCodec.apply", subclasses=True),
    Boundary("sim.codec", LEAF, "repro.sim.transport", "TransportCodec.apply_state",
             subclasses=True),
    Boundary("sim.trace_rows", LEAF, "repro.sim.trace", "TraceRecorder.to_rows"),
    Boundary("sim.trace_rows", LEAF, "repro.sim.trace", "TraceRecorder.abort_rows"),
    Boundary("sim.trace_rows", LEAF, "repro.sim.trace", "TraceRecorder.retry_rows"),
    Boundary("sim.trace_rows", LEAF, "repro.sim.trace", "TraceRecorder.regroup_rows"),
    Boundary("metrics.evaluate", LEAF, "repro.metrics.evaluate", "evaluate_model"),
    Boundary("metrics.evaluate", LEAF, "repro.metrics.evaluate", "evaluate_split"),
)


def _subclasses(cls: type) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Tracer:
    """In-memory span recorder plus the patches that feed it.

    A span is ``[name, start, end, parent]`` with ``parent`` the index of
    the enclosing recorded span (``-1`` at top level).  One thread only:
    the benchmark runs the serial executor.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
        self.spans: list[list[Any]] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []
        self._in_leaf = False
        self._undo: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def wrap(
        self, fn: Callable[..., Any], name: str, leaf: bool,
        measure: Measure | None = None,
    ) -> Callable[..., Any]:
        """Return ``fn`` wrapped in a span recorder."""
        if inspect.isgeneratorfunction(fn):
            raise TypeError(f"{name}: refusing to wrap generator function {fn!r}")
        tracer = self
        spans, open_, clock = self.spans, self._open, self.clock

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if tracer._in_leaf:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, clock(), 0.0, open_[-1] if open_ else -1])
            open_.append(index)
            tracer._in_leaf = leaf
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._in_leaf = False
                open_.pop()
                spans[index][2] = clock()
            if measure is not None:
                tracer.counts[name] = tracer.counts.get(name, 0) + measure(args, kwargs, result)
            return result

        wrapper.__e2e_span__ = name  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_method(
        self, cls: type, attr: str, name: str, leaf: bool,
        subclasses: bool = False, measure: Measure | None = None,
    ) -> None:
        """Wrap ``cls.attr`` in place (and every subclass override)."""
        owners = [cls, *(_subclasses(cls) if subclasses else ())]
        for owner in owners:
            fn = owner.__dict__.get(attr)
            if owner is not cls and not inspect.isfunction(fn):
                continue  # inherited, or not a plain method
            if not inspect.isfunction(fn):
                raise TypeError(f"{cls.__name__}.{attr} is not a plain function: {fn!r}")
            self._set(owner, attr, self.wrap(fn, name, leaf, measure))

    def patch_function(
        self, module: ModuleType, attr: str, name: str, leaf: bool,
        measure: Measure | None = None, prefix: str = "repro",
    ) -> None:
        """Wrap a module-level function and rebind every alias of it.

        ``from x import f`` copies the reference into the importer's
        namespace, so every loaded ``<prefix>.*`` module is scanned.
        """
        fn = module.__dict__[attr]
        wrapped = self.wrap(fn, name, leaf, measure)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
                continue
            for alias, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, alias, wrapped)

    def install(self, boundaries: tuple[Boundary, ...] = BOUNDARIES) -> None:
        """Patch every boundary (import the modules first so aliases exist)."""
        for b in boundaries:
            importlib.import_module(b.module)
        for b in boundaries:
            module = sys.modules[b.module]
            owner_name, _, attr = b.target.rpartition(".")
            if owner_name:
                self.patch_method(
                    getattr(module, owner_name), attr, b.name, b.leaf,
                    subclasses=b.subclasses, measure=b.measure,
                )
            else:
                self.patch_function(module, attr, b.name, b.leaf, measure=b.measure)

    def uninstall(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # ledger
    # ------------------------------------------------------------------
    def ledger(
        self, window: tuple[float, float] | None = None
    ) -> dict[str, dict[str, float]]:
        """Per-name ``{"self_s", "calls"}``.

        Self time is the span's duration minus its recorded children's;
        a leaf has none, so its self time is its inclusive time.  With a
        ``window`` every span is clipped to it first (``calls`` then
        counts spans that overlap the window).
        """
        lo, hi = window if window is not None else (float("-inf"), float("inf"))
        durations = [
            max(0.0, min(end, hi) - max(start, lo)) for _, start, end, _ in self.spans
        ]
        self_s = list(durations)
        for (_, _, _, parent), duration in zip(self.spans, durations):
            if parent >= 0:
                self_s[parent] -= duration
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), own in zip(self.spans, self_s):
            if end < lo or start > hi:
                continue
            row = out.setdefault(name, {"self_s": 0.0, "calls": 0})
            row["self_s"] += own
            row["calls"] += 1
        return out
