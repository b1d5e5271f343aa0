"""A round holds one mini-batch per running task, CL pools by index, FL
adds each trained model straight into one running FedAvg sum, and GSFL
and SplitFed pack each trained unit straight into its FedAvg rows.

GSFL's and SplitFed's round engines hand each task its members' batch
sources; the task draws every batch at the step that trains on it, so
the memory a round needs does not grow with ``local_steps``.  CL pools
the client datasets as one ``Subset`` over their indices instead of a
concatenated copy of their images.  FL's sync round adds each client's
trained state into one running weighted sum as soon as it is trained,
so a participant costs the round no memory that outlives its training.
GSFL's and SplitFed's sync round copies each unit's trained halves into
its rows of the round's two FedAvg matrices as the unit finishes, so a
unit costs the round one row, not a kept state dict as well.
All are measured with ``tracemalloc``, which counts what numpy and
Python ask for, not what the allocator keeps resident.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro import nn
from repro.core import aggregation
from repro.core.aggregation import fedavg
from repro.data.dataset import ArrayDataset, DataLoader
from repro.experiments.runner import make_scheme
from repro.experiments.scenario import fast_scenario
from repro.schemes import federated, split_common
from repro.schemes.centralized import CentralizedLearning
from repro.utils.rng import new_rng
from tests.reference.aggregation import pack_state, running_sum_reference, summation_bound

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


def _round_high_water(scheme, monkeypatch, engine=federated.FederatedLearning) -> int:
    """Traced peak of one sync round of ``engine`` (training, uploads and
    FedAvg; evaluation runs after it) above what was alive when the round
    started: everything the round holds for the average, however kept,
    and the result."""
    peaks = []
    run_round = engine._run_round

    def traced(self, round_index):
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        stages = run_round(self, round_index)
        peaks.append(tracemalloc.get_traced_memory()[1] - start)
        return stages

    with monkeypatch.context() as patched:
        patched.setattr(engine, "_run_round", traced)
        tracemalloc.start()
        try:
            scheme.run(1)
        finally:
            tracemalloc.stop()
    (peak,) = peaks
    return peak


class TestFederatedRound:
    def test_a_participant_costs_no_row(self, monkeypatch):
        """Six more participants, not one more state row.  Each trained
        model is added into one running sum, so the round holds the sum,
        one scratch row and the client being trained, whatever the
        participant count.  Packed into an ``(N, K)`` matrix, the six
        would cost six rows (1.4 MB).  ``width=32`` makes micro_cnn's
        float64 row (0.24 MB) large enough to see."""
        small, large = _fl_scheme(6, width=32), _fl_scheme(12, width=32)
        row = sum(v.nbytes for v in small.model.state_dict().values())
        grown = _round_high_water(large, monkeypatch) - _round_high_water(
            small, monkeypatch
        )
        assert grown < row, (grown / MB, row / MB)

    def test_float32_round_is_the_running_sum_over_the_trained_states(self):
        """Train every participant from the global state and keep the
        list: the round's new global state equals the frozen running sum
        over it byte for byte, and lies within the stated bound of
        FedAvg's GEMV over the same list."""
        with nn.default_dtype(np.float32):
            scheme, frozen = _fl_scheme(6), _fl_scheme(6)
            scheme.run(1)
            participants = frozen._round_participants()
            states = [frozen._local_training_round(c)[0] for c in participants]
            weights = frozen._client_sample_counts(participants)
        got = scheme._global_state
        assert list(got) == list(states[0])
        flat = pack_state(got)
        assert flat.dtype == np.float32
        assert flat.tobytes() == running_sum_reference(states, weights).tobytes()
        gemv = pack_state(fedavg(states, weights))
        error = np.abs(flat.astype(np.float64) - gemv.astype(np.float64))
        assert np.all(error <= summation_bound(states, weights))


def _fleet_scheme(name: str, num_groups: int = 6):
    """24 ``mlp`` clients on 8×8 images, batch 4, one local step, float32:
    a unit's training is small beside its model, so rows show."""
    scenario = fast_scenario(with_wireless=False, num_clients=24, num_groups=num_groups)
    scenario.model_name = "mlp"
    scenario.dataset = replace(
        scenario.dataset, image_size=8, train_per_class=48, test_per_class=2
    )
    scenario.scheme = replace(scenario.scheme, batch_size=4, local_steps=1)
    return make_scheme(name, scenario.build())


class TestSplitFederatedRound:
    """A row here is one full float32 state (client half + server half),
    59 048 B: what a unit's two FedAvg rows hold together.  The round's
    matrices live in an anonymous memory map, which ``tracemalloc`` does
    not see; here they are heap arrays, so the trace counts every row the
    round allocates, written or not."""

    @pytest.fixture(autouse=True)
    def _traced_rows(self, monkeypatch):
        monkeypatch.setattr(aggregation, "_mapped_rows", aggregation._empty_packed)

    def test_a_unit_costs_one_row(self, monkeypatch):
        """6 → 24 groups: under 1.3 rows per added unit.  Keeping every
        unit's trained halves as copied state dicts and stacking them
        into the matrix at aggregation held each unit twice (1.88 rows
        per unit)."""
        with nn.default_dtype(np.float32):
            small, large = _fleet_scheme("GSFL", 6), _fleet_scheme("GSFL", 24)
            row = sum(v.nbytes for v in small.model.state_dict().values())
            engine = split_common.SplitFederatedScheme
            grown = _round_high_water(large, monkeypatch, engine) - _round_high_water(
                small, monkeypatch, engine
            )
        assert row == 59_048
        assert grown / 18 < 1.3 * row, grown / 18 / row

    def test_splitfed_round_holds_its_rows_and_little_else(self, monkeypatch):
        """24 one-client units must hold 24 rows (1.42 MB); the round may
        trace at most 8 rows above that.  Kept state dicts plus the
        stacked matrix traced 2.86 MB (48 rows)."""
        with nn.default_dtype(np.float32):
            scheme = _fleet_scheme("SplitFed")
            row = sum(v.nbytes for v in scheme.model.state_dict().values())
            peak = _round_high_water(scheme, monkeypatch, split_common.SplitFederatedScheme)
        assert peak < (24 + 8) * row, (peak / MB, peak / row)


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
