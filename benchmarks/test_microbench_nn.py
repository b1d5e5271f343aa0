"""Micro-benchmarks for the hot substrate paths.

Times the numpy DNN framework's core kernels (conv forward/backward,
full split-training step), FedAvg aggregation and the DES replay loop —
the operations every experiment round is made of.  These are classic
pytest-benchmark timing loops (many iterations), useful for catching
performance regressions in the substrate.
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.core.aggregation import fedavg
from repro.models import deepthin_cnn
from repro.nn.split import split_model
from repro.nn.tensor import Tensor
from repro.schemes.base import Activity, Stage
from repro.sim.runtime import Runtime
from repro.sim.server import SyncBarrier


def test_conv_forward(benchmark):
    model = deepthin_cnn(num_classes=43, image_size=20, seed=0)
    x = np.random.default_rng(0).normal(size=(16, 3, 20, 20))
    model.eval()

    from repro.nn.tensor import no_grad

    def forward():
        with no_grad():
            return model(Tensor(x))

    out = benchmark(forward)
    assert out.shape == (16, 43)


def test_full_training_step(benchmark):
    model = deepthin_cnn(num_classes=43, image_size=20, seed=0)
    opt = nn.SGD(model.parameters(), lr=0.01)
    loss_fn = nn.CrossEntropyLoss()
    rng = np.random.default_rng(0)
    x = rng.normal(size=(16, 3, 20, 20))
    y = rng.integers(0, 43, size=16)

    def step():
        opt.zero_grad()
        loss = loss_fn(model(Tensor(x)), y)
        loss.backward()
        opt.step()
        return loss

    loss = benchmark(step)
    assert np.isfinite(loss.item())


def test_split_training_step(benchmark):
    model = deepthin_cnn(num_classes=43, image_size=20, seed=0)
    sm = split_model(model, 4)
    c_opt = nn.SGD(sm.client.parameters(), lr=0.01)
    s_opt = nn.SGD(sm.server.parameters(), lr=0.01)
    loss_fn = nn.CrossEntropyLoss()
    rng = np.random.default_rng(0)
    x = rng.normal(size=(16, 3, 20, 20))
    y = rng.integers(0, 43, size=16)

    def step():
        smashed = sm.client.forward_to_smashed(x)
        s_opt.zero_grad()
        loss, grad, _ = sm.server.forward_backward(smashed, y, loss_fn)
        s_opt.step()
        c_opt.zero_grad()
        sm.client.backward_from_gradient(grad)
        c_opt.step()
        return loss

    loss = benchmark(step)
    assert np.isfinite(loss)


def test_fedavg_aggregation(benchmark):
    states = [deepthin_cnn(seed=s).state_dict() for s in range(6)]
    weights = [1.0, 2.0, 3.0, 1.0, 2.0, 3.0]

    avg = benchmark(lambda: fedavg(states, weights))
    assert set(avg) == set(states[0])


def test_fedavg_flat_many_participants(benchmark):
    """Flat-vector FedAvg at SplitFed scale: 30 participants, one
    ``weights @ matrix`` collapse instead of a per-key Python loop."""
    states = [deepthin_cnn(seed=s).state_dict() for s in range(30)]
    weights = [float(1 + s % 5) for s in range(30)]

    avg = benchmark(lambda: fedavg(states, weights))
    assert set(avg) == set(states[0])


def test_parallel_round_serial(benchmark):
    """One GSFL round (M=6) — the whole-round reference cost."""
    from repro.experiments.runner import make_scheme
    from repro.experiments.scenario import fast_scenario

    def one_round():
        built = fast_scenario(with_wireless=True, num_clients=6, num_groups=6).build()
        return make_scheme("GSFL", built).run(1).final_accuracy

    acc = benchmark.pedantic(one_round, rounds=3, iterations=1)
    assert 0.0 <= acc <= 1.0


def test_des_replay_throughput(benchmark):
    """Replay a 6-track, 600-activity round through the event kernel."""

    def build_and_replay():
        stage = Stage("training")
        for g in range(6):
            stage.extend(
                f"group-{g}",
                [Activity(0.01 * (i % 7 + 1), "client_compute", f"g{g}") for i in range(100)],
            )
        return SyncBarrier().resolve_round(Runtime(), [stage], None, 0)

    total = benchmark(build_and_replay)
    assert total > 0
