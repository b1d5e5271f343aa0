"""Experiment scenario: one bundle of dataset + model + network + scheme
hyper-parameters, buildable into everything a scheme run needs.

Two presets are provided:

* :func:`paper_scenario` — the paper's §III setting scaled to the
  synthetic substrate: 30 clients, 6 groups, 43-class GTSRB-like data,
  DeepThin-style CNN (the paper's reference [4]);
* :func:`fast_scenario` — a down-scaled variant (6 clients, 2 groups,
  10 classes, tiny CNN) for tests and quick demos.

Every scheme built from one scenario starts from bit-identical initial
weights (same model seed) and its own fading stream, as the paper compares.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro import nn
from repro.data.dataset import Dataset, Subset
from repro.core.grouping import GROUPING_STRATEGIES
from repro.data.gtsrb import GtsrbConfig, SyntheticGTSRB
from repro.data.partition import (
    make_client_datasets,
    partition_dirichlet,
    partition_iid,
)
from repro.experiments.dynamics import ClientDynamics, DynamicsConfig
from repro.models.registry import build_model, default_cut_layer
from repro.schemes.base import SchemeConfig
from repro.sim.cross_traffic import CrossTrafficConfig
from repro.utils.validation import check_in_choices, check_positive
from repro.wireless.system import WirelessConfig, WirelessSystem

__all__ = ["ExperimentScenario", "BuiltScenario", "paper_scenario", "fast_scenario"]


@dataclass
class ExperimentScenario:
    """Declarative description of one experiment."""

    num_clients: int = 30
    num_groups: int = 6
    grouping: str = "contiguous"  # GSFL partition strategy (make_groups)
    model_name: str = "deepthin"
    model_kwargs: dict = field(default_factory=dict)
    cut_layer: int | None = None  # None -> architecture default
    dataset: GtsrbConfig = field(default_factory=GtsrbConfig)
    partition: str = "iid"  # iid | dirichlet
    dirichlet_alpha: float = 0.5
    wireless: WirelessConfig | None = field(default_factory=WirelessConfig)
    scheme: SchemeConfig = field(default_factory=SchemeConfig)
    dynamics: DynamicsConfig | None = None
    cross_traffic: CrossTrafficConfig | None = None
    model_seed: int = 0

    def __post_init__(self) -> None:
        check_positive("num_clients", self.num_clients)
        check_positive("num_groups", self.num_groups)
        check_in_choices("grouping", self.grouping, GROUPING_STRATEGIES)
        check_in_choices("partition", self.partition, ("iid", "dirichlet"))
        if self.num_groups > self.num_clients:
            raise ValueError(
                f"num_groups ({self.num_groups}) cannot exceed num_clients "
                f"({self.num_clients})"
            )
        if self.wireless is not None and self.wireless.num_clients != self.num_clients:
            self.wireless = replace(self.wireless, num_clients=self.num_clients)

    def resolved_cut_layer(self) -> int:
        return (
            self.cut_layer
            if self.cut_layer is not None
            else default_cut_layer(self.model_name)
        )

    def build(self) -> "BuiltScenario":
        """Materialize the datasets and, when priced, the model profile."""
        factory = SyntheticGTSRB(self.dataset)
        train, test = factory.train_test()
        if self.partition == "iid":
            parts = partition_iid(len(train), self.num_clients, seed=self.dataset.seed)
        else:
            parts = partition_dirichlet(
                train.labels,
                self.num_clients,
                alpha=self.dirichlet_alpha,
                seed=self.dataset.seed,
            )
        client_datasets = make_client_datasets(train, parts)

        profile = (
            None if self.wireless is None
            else nn.profile_model(self.make_model(), factory.input_shape)
        )
        return BuiltScenario(
            scenario=self,
            client_datasets=client_datasets,
            test_dataset=test,
            wireless=self.wireless,
            profile=profile,
            input_shape=factory.input_shape,
        )

    def make_model(self) -> nn.Sequential:
        """Fresh model with the scenario's fixed init seed."""
        kwargs = dict(self.model_kwargs)
        kwargs.setdefault("num_classes", self.dataset.num_classes)
        kwargs.setdefault("seed", self.model_seed)
        if self.model_name in ("deepthin", "micro_cnn"):
            kwargs.setdefault("image_size", self.dataset.image_size)
        elif self.model_name == "mlp":
            kwargs.setdefault(
                "input_shape", (3, self.dataset.image_size, self.dataset.image_size)
            )
        return build_model(self.model_name, **kwargs)


@dataclass
class BuiltScenario:
    """Materialized scenario: everything a scheme constructor consumes.

    ``wireless`` is the scenario's config as it stood at build time (None:
    unpriced); a caller that prices outside a scheme realizes its own
    ``WirelessSystem(built.wireless)``.
    """

    scenario: ExperimentScenario
    client_datasets: list[Subset]
    test_dataset: Dataset
    wireless: WirelessConfig | None
    profile: nn.ModelProfile | None
    input_shape: tuple[int, int, int]

    def scheme_kwargs(self) -> dict:
        """Common keyword arguments for any Scheme subclass.

        A fresh :class:`~repro.wireless.system.WirelessSystem` (from
        ``wireless``) and :class:`~repro.experiments.dynamics.ClientDynamics`
        are realized per call: every scheme built from this scenario starts
        its own fading stream and sees the same churn/participation/straggler
        trajectory.
        """
        wireless, dynamics = self.wireless, self.scenario.dynamics
        return {
            "client_datasets": self.client_datasets,
            "test_dataset": self.test_dataset,
            "system": None if wireless is None else WirelessSystem(wireless),
            "profile": self.profile,
            "config": self.scenario.scheme,
            "dynamics": None if dynamics is None else ClientDynamics(
                dynamics, len(self.client_datasets)),
            "cross_traffic": self.scenario.cross_traffic,
        }


def paper_scenario(
    with_wireless: bool = True,
    train_per_class: int = 20,
    image_size: int = 20,
    seed: int = 0,
) -> ExperimentScenario:
    """The paper's §III configuration on the synthetic substrate.

    30 clients / 6 groups / 43 classes / DeepThin CNN, IoT-class client
    devices against a GPU edge server.  ``train_per_class`` scales total
    data volume (the real GTSRB is far larger; convergence *shape* is
    preserved at this scale while runs stay tractable).

    Cut 8 (two conv blocks client-side) is *not* the latency-minimizing
    cut: at seed 0 :func:`~repro.experiments.runner.best_cut` (``repro.cli
    cuts --scale paper``) picks cut 4 for both schemes, a GSFL round of
    4691.12 ms against 7853.03 ms for cut 8 and an SL round of 14754.42 ms
    against 40112.51 ms.  The augmentation level is tuned so the task is hard enough that
    convergence spans tens of rounds (the real GTSRB takes hundreds),
    keeping both schemes' curves out of the one-round-saturation regime.
    """
    return ExperimentScenario(
        num_clients=30,
        num_groups=6,
        model_name="deepthin",
        cut_layer=8,
        dataset=GtsrbConfig(
            image_size=image_size,
            train_per_class=train_per_class,
            test_per_class=8,
            noise_std=0.22,
            jitter=0.45,
            occlusion_prob=0.35,
            blur_prob=0.5,
            seed=seed,
        ),
        wireless=WirelessConfig(num_clients=30, seed=seed) if with_wireless else None,
        scheme=SchemeConfig(
            batch_size=16, local_steps=5, lr=0.03, eval_every=2, seed=seed
        ),
        model_seed=seed,
    )


def fast_scenario(
    with_wireless: bool = True,
    num_clients: int = 6,
    num_groups: int = 2,
    num_classes: int = 10,
    seed: int = 0,
) -> ExperimentScenario:
    """Down-scaled scenario for tests: small model, few classes."""
    return ExperimentScenario(
        num_clients=num_clients,
        num_groups=num_groups,
        model_name="micro_cnn",
        dataset=GtsrbConfig(
            num_classes=num_classes,
            image_size=16,
            train_per_class=24,
            test_per_class=6,
            noise_std=0.05,
            occlusion_prob=0.05,
            blur_prob=0.1,
            seed=seed,
        ),
        wireless=WirelessConfig(num_clients=num_clients, seed=seed)
        if with_wireless
        else None,
        scheme=SchemeConfig(batch_size=16, local_steps=2, lr=0.08, seed=seed),
        model_seed=seed,
    )
