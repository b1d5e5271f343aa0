"""A round holds one mini-batch per running task, CL pools by index, and
FL packs each trained model straight into FedAvg's matrix.

GSFL's and SplitFed's round engines hand each task its members' batch
sources; the task draws every batch at the step that trains on it, so
the memory a round needs does not grow with ``local_steps``.  CL pools
the client datasets as one ``Subset`` over their indices instead of a
concatenated copy of their images.  FL's sync round packs each client's
trained state into its row of FedAvg's ``(N, K)`` matrix as soon as it
is trained, so a participant costs the round one matrix row, not a row
and a state dict.  All are measured with ``tracemalloc``, which counts
what numpy and Python ask for, not what the allocator keeps resident.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro import nn
from repro.core.aggregation import fedavg
from repro.data.dataset import ArrayDataset, DataLoader
from repro.experiments.runner import make_scheme
from repro.experiments.scenario import fast_scenario
from repro.schemes import federated, split_common
from repro.schemes.centralized import CentralizedLearning
from repro.utils.rng import new_rng

MB = 1e6

#: (scheme, aggregation) — the sync round engines and one async unit pipeline
ROUNDS = [("GSFL", "sync"), ("SplitFed", "sync"), ("GSFL", "bounded:2")]


def _scheme(name: str, aggregation: str, local_steps: int):
    scenario = fast_scenario(with_wireless=True)
    scenario.scheme = replace(
        scenario.scheme, local_steps=local_steps, aggregation=aggregation
    )
    return make_scheme(name, scenario.build())


def _round_peak(scheme) -> int:
    """Traced peak of one round (evaluation included), in bytes."""
    tracemalloc.start()
    try:
        scheme.run(1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name,aggregation", ROUNDS)
def test_round_peak_does_not_grow_with_local_steps(name, aggregation):
    """Four times the local steps, the same working set.  Holding a
    round's batches at once would add six batches of 16 float64 images
    (0.6 MB) per client at ``local_steps=8``: 3.5 MB for a sync round of
    six clients, 1.8 MB for one three-client group's unit round."""
    short = _round_peak(_scheme(name, aggregation, local_steps=2))
    long = _round_peak(_scheme(name, aggregation, local_steps=8))
    assert long - short <= 0.5 * MB, (short / MB, long / MB)


@pytest.mark.parametrize("name,aggregation", ROUNDS)
def test_each_batch_is_drawn_at_the_step_that_trains_on_it(
    name, aggregation, monkeypatch
):
    """``DataLoader.sample_batch`` runs once per trained batch, right
    before its split step: Σ members × ``local_steps`` calls per round."""
    local_steps, rounds = 3, 2
    scheme = _scheme(name, aggregation, local_steps)
    log: list[str] = []
    sample_batch = DataLoader.sample_batch
    split_step_math = split_common.split_step_math

    def logged_sample(self):
        log.append("sample")
        return sample_batch(self)

    def logged_step(*args, **kwargs):
        log.append("step")
        return split_step_math(*args, **kwargs)

    monkeypatch.setattr(DataLoader, "sample_batch", logged_sample)
    monkeypatch.setattr(split_common, "split_step_math", logged_step)
    scheme.run(rounds)
    # every client is a member of exactly one task per round
    assert log == ["sample", "step"] * (rounds * scheme.num_clients * local_steps)


def _fl_scheme(num_clients: int, width: int = 8):
    scenario = fast_scenario(with_wireless=True, num_clients=num_clients)
    return make_scheme("FL", replace(scenario, model_kwargs={"width": width}).build())


def _aggregation_high_water(scheme, monkeypatch) -> int:
    """Traced peak while FedAvg runs in one sync FL round, above what was
    alive when the round started: everything the round holds for the
    average (the trained models, however kept, and the result)."""
    peaks = []

    def traced(*args, **kwargs):
        tracemalloc.reset_peak()
        result = fedavg(*args, **kwargs)
        peaks.append(tracemalloc.get_traced_memory()[1])
        return result

    monkeypatch.setattr(federated, "fedavg", traced)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        scheme.run(1)
    finally:
        tracemalloc.stop()
    (peak,) = peaks
    return peak - start


class TestFederatedRound:
    def test_a_participant_costs_one_matrix_row(self, monkeypatch):
        """Six more participants, six more rows of FedAvg's matrix.  Kept
        as a list until FedAvg packed them, the trained states cost a
        second copy of every row: twelve rows, 2.9 MB against the bound's
        1.9.  ``width=32`` makes micro_cnn's float64 row (0.24 MB) large
        enough for six of them to outweigh the slack.  (The round's whole
        peak does not show it: on micro_cnn, training and evaluation
        transients are larger than the states.)"""
        small, large = _fl_scheme(6, width=32), _fl_scheme(12, width=32)
        row = sum(v.nbytes for v in small.model.state_dict().values())
        grown = _aggregation_high_water(large, monkeypatch) - _aggregation_high_water(
            small, monkeypatch
        )
        assert grown <= 6 * row + 0.5 * MB, (grown / MB, row / MB)

    def test_float32_round_equals_fedavg_over_the_list_of_trained_states(self):
        """The round FL ran before its states were packed as they were
        trained, frozen here: train every participant from the global
        state, keep the list, stack it, one GEMV.  The new global state
        must match it byte for byte; the golden FL history covers float64
        only."""
        with nn.default_dtype(np.float32):
            scheme, frozen = _fl_scheme(6), _fl_scheme(6)
            scheme.run(1)
            participants = frozen._round_participants()
            states = [frozen._local_training_round(c)[0] for c in participants]
            weights = frozen._client_sample_counts(participants)
        matrix = np.stack(
            [np.concatenate([np.asarray(v).reshape(-1) for v in s.values()]) for s in states]
        )
        want = (weights / weights.sum()).astype(matrix.dtype) @ matrix
        got = scheme._global_state
        assert list(got) == list(states[0])
        flat = np.concatenate([v.reshape(-1) for v in got.values()])
        assert flat.dtype == np.float32
        assert flat.tobytes() == want.tobytes()


class TestCentralizedPool:
    def test_construction_keeps_no_copy_of_client_images(self):
        built = fast_scenario(with_wireless=True).build()
        # one construction first, so lazy one-time set-up is not counted
        CentralizedLearning(built.scenario.make_model(), **built.scheme_kwargs())
        model, kwargs = built.scenario.make_model(), built.scheme_kwargs()
        tracemalloc.start()
        try:
            scheme = CentralizedLearning(model, **kwargs)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        images = sum(ds.arrays()[0].nbytes for ds in scheme.client_datasets)
        assert kept <= 0.1 * MB < images

    @pytest.mark.parametrize("as_arrays", [False, True], ids=["subsets", "arrays"])
    def test_pooled_batches_equal_a_concatenated_copy(self, as_arrays):
        """A pool that copies every client's images into one array, its
        loader seeded as CL seeds its own, is frozen here as the reference;
        the pooled loader must draw the same batches: values, dtypes and
        order.  Client datasets that are not subsets of one dataset take
        the concatenating path."""
        built = fast_scenario(with_wireless=True).build()
        kwargs = built.scheme_kwargs()
        if as_arrays:
            kwargs["client_datasets"] = [
                ArrayDataset(*ds.arrays()) for ds in built.client_datasets
            ]
        scheme = CentralizedLearning(built.scenario.make_model(), **kwargs)
        xs, ys = zip(*(ds.arrays() for ds in built.client_datasets))
        frozen = DataLoader(
            ArrayDataset(np.concatenate(xs), np.concatenate(ys)),
            batch_size=scheme.config.batch_size,
            shuffle=True,
            seed=new_rng(scheme.config.seed + 104729),
        )
        for _ in range(40):
            got, want = scheme._pooled_loader.sample_batch(), frozen.sample_batch()
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert g.tobytes() == w.tobytes()
