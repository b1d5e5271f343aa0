"""Split-training engine tests: the relay-chain pricer and the split step.

:func:`price_relay_chain` is the one description of a relay chain's
round that SL (one chain of every participant), GSFL (one chain per
group) and SplitFed (one-client chains) price; :func:`split_step_math`
is the batch handshake all three train with.  SL is GSFL with one group
minus the aggregation stage: same model, losses and accuracies, byte for
byte, and a round shorter by exactly its one aggregation activity.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import nn
from repro.data.dataset import DataLoader
from repro.experiments.runner import make_scheme
from repro.experiments.scenario import fast_scenario
from repro.nn.split import split_model
from repro.schemes.pricing import LatencyModel
from repro.schemes.split_common import price_local_round, price_relay_chain, split_step_math
from repro.sim.runtime import TransmitDemand, demand_nominal_s
from repro.wireless.system import WirelessSystem

CUT = 2


@pytest.fixture(scope="module")
def built():
    scenario = fast_scenario(with_wireless=True)
    scenario.wireless = replace(scenario.wireless, deterministic_rates=True)
    return scenario.build()


def local_round(c: int, steps: int, lossy: bool, smashed: int) -> list[tuple]:
    """Expected (phase, actor, detail, nbytes) of one member's split steps."""
    me = f"client-{c}"
    step = [("client_compute", me, "forward", 0)]
    if lossy:
        step.append(("encode", me, "smashed", 0))
    step.append(("uplink_smashed", me, "", smashed))
    if lossy:
        step.append(("decode", "edge-server", f"smashed from {me}", 0))
    step.append(("server_compute", "edge-server", f"for {me}", 0))
    if lossy:
        step.append(("encode", "edge-server", f"gradient for {me}", 0))
    step.append(("downlink_gradient", me, "", smashed))
    if lossy:
        step.append(("decode", me, "gradient", 0))
    step.append(("client_compute", me, "backward", 0))
    return step * steps


def expected_chain(
    members: list[int], steps: int, lossy: bool, smashed: int, wire: int
) -> list[tuple]:
    """Expected (phase, actor, detail, nbytes) of a whole relay chain."""
    first, last = f"client-{members[0]}", f"client-{members[-1]}"
    rows: list[tuple] = []
    if lossy:
        rows.append(("encode", "edge-server", f"model for {first}", 0))
    rows.append(("model_distribution", first, "", wire))
    if lossy:
        rows.append(("decode", first, "model", 0))
    for c, nxt in zip(members, [*members[1:], None]):
        rows += local_round(c, steps, lossy, smashed)
        if nxt is None:
            continue
        if lossy:
            rows.append(("encode", f"client-{c}", "relay model", 0))
        rows.append(("model_relay", f"client-{c}", "", 2 * wire))
        if lossy:
            rows.append(("decode", f"client-{nxt}", "relay model", 0))
    if lossy:
        rows.append(("encode", last, "model upload", 0))
    rows.append(("model_upload", last, "", wire))
    if lossy:
        rows.append(("decode", "edge-server", f"model from {last}", 0))
    return rows


class TestRelayChain:
    @pytest.mark.parametrize("transport", ["float32", "int8"])
    @pytest.mark.parametrize("members", [[3], [3, 1], [3, 1, 4]])
    def test_phase_actor_detail_nbytes_sequence(self, built, transport, members):
        system = WirelessSystem(built.wireless)
        pricing = LatencyModel(system, built.profile, 8, transport=transport)
        raw = pricing.client_model_nbytes(CUT)
        wire = pricing.model_wire_nbytes(raw)
        smashed = pricing.smashed_nbytes(CUT)
        lossy = transport != "float32"
        assert smashed > 0 and (wire < raw if lossy else wire == raw)

        chain = price_relay_chain(pricing, members, CUT, 2, 1e6)
        actual = [(a.phase, a.actor, a.detail, a.nbytes) for a in chain]
        assert actual == expected_chain(members, 2, lossy, smashed, wire)

    def test_relay_hop_is_one_two_leg_demand(self, built):
        pricing = LatencyModel(WirelessSystem(built.wireless), built.profile, 8)
        chain = price_relay_chain(pricing, [3, 1], CUT, 1, 1e6)
        (relay,) = [a for a in chain if a.phase == "model_relay"]
        assert isinstance(relay.demand, TransmitDemand)
        legs = relay.demand.legs
        assert [(leg.client, leg.direction) for leg in legs] == [
            (3, "uplink"), (1, "downlink")
        ]


class TestActivityStructure:
    def test_activities_per_step(self):
        activities = price_local_round(0, CUT, 3, LatencyModel(None, None, 8), 1e6)
        # 5 activities per batch: fwd, up, server, down, bwd
        assert len(activities) == 3 * 5
        phases = [a.phase for a in activities[:5]]
        assert phases == [
            "client_compute",
            "uplink_smashed",
            "server_compute",
            "downlink_gradient",
            "client_compute",
        ]

    def test_zero_priced_without_system(self):
        chain = price_relay_chain(LatencyModel(None, None, 8), [0, 1], CUT, 2, 1e6)
        assert chain and all(a.duration_s == 0.0 and a.nbytes == 0 for a in chain)


def train(model, dataset, transport: str, rounds: int = 1, steps: int = 2) -> list[float]:
    """Mean batch loss per round of split steps through ``transport``."""
    split = split_model(model, 2)
    loader = DataLoader(dataset, batch_size=8, seed=0)
    c_opt = nn.SGD(split.client.parameters(), lr=0.05)
    s_opt = nn.SGD(split.server.parameters(), lr=0.05)
    codec = LatencyModel(None, None, 8, transport=transport).codec
    losses = []
    for _ in range(rounds):
        total = 0.0
        for _ in range(steps):
            xb, yb = loader.sample_batch()
            total += split_step_math(
                split, c_opt, s_opt, xb, yb, nn.CrossEntropyLoss(), codec
            )
        losses.append(total / steps)
    return losses


class TestSplitStep:
    def test_loss_decreases_over_rounds(self, small_cnn, small_dataset):
        losses = train(small_cnn, small_dataset, "float32", rounds=8, steps=4)
        assert losses[-1] < losses[0]


class TestWireQuantization:
    def test_quantization_changes_training(self, small_dataset):
        """With an intk transport, the server trains on lossy activations,
        so the parameter trajectory must diverge from float32."""

        def run(transport):
            model = nn.Sequential(
                nn.Conv2d(2, 3, 3, padding=1, seed=1),
                nn.ReLU(),
                nn.MaxPool2d(2),
                nn.Flatten(),
                nn.Linear(3 * 4 * 4, 5, seed=2),
            )
            train(model, small_dataset, transport)
            return model.state_dict()

        full = run("float32")
        quant = run("intk:4")
        assert any(not np.allclose(full[k], quant[k]) for k in full)

    def test_high_bit_quantization_stays_close(self, small_dataset):
        """16-bit wire should barely perturb the trajectory."""

        def run(transport):
            model = nn.Sequential(
                nn.Flatten(), nn.Linear(2 * 8 * 8, 16, seed=3), nn.ReLU(),
                nn.Linear(16, 5, seed=4),
            )
            return train(model, small_dataset, transport)[0]

        assert run("intk:16") == pytest.approx(run("float32"), rel=0.05)


class TestSLIsOneGroupGSFL:
    """SL's round is GSFL's at ``num_groups=1`` without the FedAvg stage."""

    ROUNDS = 3

    def run(self, name: str, transport: str, **overrides):
        scenario = fast_scenario(with_wireless=True, seed=0)
        scenario.scheme = replace(scenario.scheme, transport=transport)
        scheme = make_scheme(name, scenario.build(), **overrides)
        return scheme, scheme.run(self.ROUNDS)

    @pytest.mark.parametrize("transport", ["float32", "int8"])
    def test_same_training_one_aggregation_apart(self, transport):
        sl, sl_history = self.run("SL", transport)
        gsfl, gsfl_history = self.run("GSFL", transport, num_groups=1)
        assert gsfl.groups == [list(range(sl.num_clients))]

        sl_state, gsfl_state = sl.model.state_dict(), gsfl.model.state_dict()
        assert list(sl_state) == list(gsfl_state)
        for key in sl_state:
            assert sl_state[key].dtype == gsfl_state[key].dtype, key
            assert sl_state[key].tobytes() == gsfl_state[key].tobytes(), key
        for field in ("train_loss", "test_accuracy"):
            sl_values = [getattr(p, field) for p in sl_history.points]
            gsfl_values = [getattr(p, field) for p in gsfl_history.points]
            assert np.asarray(sl_values).tobytes() == np.asarray(gsfl_values).tobytes()

        aggregation_s = demand_nominal_s(
            gsfl._pricing.aggregation_demand(1, gsfl.model.num_parameters())
        )
        assert aggregation_s > 0.0
        assert len(sl.round_timings) == len(gsfl.round_timings) == self.ROUNDS
        for sl_round, gsfl_round in zip(sl.round_timings, gsfl.round_timings):
            assert gsfl_round.des_s - sl_round.des_s == pytest.approx(
                aggregation_s, rel=1e-6
            )
