"""``run_group_tasks`` contract: one shared ``SplitModel``, independent tasks.

The split-federated round engine (GSFL's groups, SplitFed's and SL's
chains) trains its tasks one after another on the scheme's single
``SplitModel``.  That is sound only because a task loads its own global
halves before training and its trained halves are copied into its rows
of the round's two FedAvg matrices the moment it finishes, so *a task's
result and rows must not depend on which tasks ran before it, nor on
anything done to the model after it finished*.  These tests pin exactly
that, on the identity codec and on the lossy ones (whose relay re-coding
also goes through the shared model).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro import nn
from repro.data.dataset import DataLoader
from repro.nn.split import split_model
from repro.schemes.base import SchemeConfig
from repro.schemes.split_common import (
    GroupTask,
    _uploaded_halves,
    run_group_tasks,
    train_split_group,
)
from repro.sim.transport import parse_transport

TRANSPORTS = ["float32", "int8", "topk:0.25"]
#: (members, seed offset of their loaders) for each of three tasks
LAYOUT = [([0, 1], 0), ([2], 10), ([3, 4, 5], 20)]


def _setup(transport: str = "float32"):
    """The ``(config, codec)`` pair a scheme hands the round engine."""
    return SchemeConfig(transport=transport), parse_transport(transport)


def _split(seed: int = 1):
    """A freshly built split model; ``seed`` offsets its initialisation."""
    return split_model(
        nn.Sequential(
            nn.Conv2d(2, 3, 3, padding=1, seed=seed),
            nn.ReLU(),
            nn.MaxPool2d(2),
            nn.Flatten(),
            nn.Linear(3 * 4 * 4, 5, seed=seed + 1),
        ),
        2,
    )


def _tasks(small_dataset, indices=range(len(LAYOUT))):
    """Fresh tasks (fresh loaders) for the given positions of ``LAYOUT``.

    Their global halves come from a differently seeded model than the one
    :func:`_split` trains on, so a task that skipped loading them would
    show.
    """
    start = _split(seed=11)
    client_state, server_state = start.client.state_dict(), start.server.state_dict()
    tasks = []
    for index in indices:
        members, offset = LAYOUT[index]
        samplers = [
            DataLoader(small_dataset, batch_size=8, seed=offset + m).sample_batch
            for m in members
        ]
        tasks.append(
            GroupTask(
                index=index,
                members=members,
                samplers=samplers,
                local_steps=2,
                client_state=client_state,
                server_state=server_state,
                weight=float(len(members)),
            )
        )
    return tasks


def _unit(round_, position):
    """The ``position``-th task's result and its (client, server) rows
    from ``run_group_tasks``'s return value."""
    results, client_avg, server_avg = round_
    return results[position], client_avg.state(position), server_avg.state(position)


def _assert_same_result(a, b):
    (a, *a_rows), (b, *b_rows) = a, b
    assert a.index == b.index
    assert a.loss_sum == b.loss_sum
    assert a.num_members == b.num_members
    assert a.weight == b.weight
    for mine, theirs in zip(a_rows, b_rows):
        assert list(mine) == list(theirs)
        for key in mine:
            np.testing.assert_array_equal(mine[key], theirs[key])


class TestRunGroupTasks:
    def test_results_in_task_order(self, small_dataset):
        results, client_avg, server_avg = run_group_tasks(
            _tasks(small_dataset), _split(), *_setup()
        )
        assert [r.index for r in results] == [0, 1, 2]
        assert [r.num_members for r in results] == [2, 1, 3]
        assert client_avg.num_states == server_avg.num_states == 3

    def test_no_tasks_no_results(self):
        results, client_avg, server_avg = run_group_tasks([], _split(), *_setup())
        assert results == []
        assert client_avg.num_states == server_avg.num_states == 0

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_task_result_independent_of_predecessors(self, small_dataset, transport):
        """Task ``k`` after tasks ``0..k-1`` on one model == task ``k`` alone
        on a model nobody trained."""
        setup = _setup(transport)
        together = run_group_tasks(_tasks(small_dataset), _split(), *setup)
        for index in range(len(LAYOUT)):
            alone = run_group_tasks(_tasks(small_dataset, [index]), _split(), *setup)
            _assert_same_result(_unit(together, index), _unit(alone, 0))

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_task_order_does_not_change_results(self, small_dataset, transport):
        setup = _setup(transport)
        forward = run_group_tasks(_tasks(small_dataset), _split(), *setup)
        backward = run_group_tasks(_tasks(small_dataset, [2, 1, 0]), _split(), *setup)
        for position in range(len(LAYOUT)):
            _assert_same_result(_unit(forward, position), _unit(backward, 2 - position))

    def test_rows_do_not_alias_the_shared_model(self, small_dataset):
        split = _split()
        round_ = run_group_tasks(_tasks(small_dataset), split, *_setup())
        snapshot = [
            [{k: v.copy() for k, v in rows.items()} for rows in _unit(round_, p)[1:]]
            for p in range(len(LAYOUT))
        ]
        for param in (*split.client.parameters(), *split.server.parameters()):
            param.data[...] = np.nan
        for position, before in enumerate(snapshot):
            for rows, kept in zip(_unit(round_, position)[1:], before):
                for key, value in kept.items():
                    np.testing.assert_array_equal(rows[key], value)
        # Distinct members and batches: no two tasks pack the same model.
        first = [next(iter(_unit(round_, p)[1].values())) for p in range(len(LAYOUT))]
        assert not np.array_equal(first[0], first[1])
        assert not np.array_equal(first[1], first[2])

    def test_each_member_samples_local_steps_batches(self, small_dataset):
        calls: list[int] = []
        tasks = _tasks(small_dataset)
        for task in tasks:
            for position, sampler in enumerate(task.samplers):
                def counted(sampler=sampler, tag=task.members[position]):
                    calls.append(tag)
                    return sampler()

                task.samplers[position] = counted
        run_group_tasks(tasks, _split(), *_setup())
        # Members in relay order, each drawing ``local_steps`` batches in a row.
        assert calls == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5]


class TestUploadedHalves:
    """A barrier-free unit-round's payload (``_uploaded_halves`` with its
    default copy) outlives the next unit-round on the shared model.  Under
    a lossy codec the coded client half is a fresh allocation, so it is
    coded straight from the live arrays, not from a copy of them."""

    LOSSY = ["int8", "topk:0.25"]

    @pytest.mark.parametrize("transport", LOSSY)
    def test_payload_is_the_coded_trained_half_and_outlives_training(
        self, small_dataset, transport
    ):
        config, codec = _setup(transport)
        split = _split()
        first, second = _tasks(small_dataset, [0, 1])
        train_split_group(first, split, config, codec)
        client_state, server_state = _uploaded_halves(split, codec)
        # What coding a copy of the trained client half gives, byte for byte.
        expected = codec.apply_state(split.client.state_dict())
        kept = [
            {key: value.copy() for key, value in half.items()}
            for half in (client_state, server_state)
        ]
        assert list(client_state) == list(expected)
        for key, value in expected.items():
            assert client_state[key].tobytes() == value.tobytes()
        train_split_group(second, split, config, codec)
        for half, before in zip((client_state, server_state), kept):
            for key, value in before.items():
                np.testing.assert_array_equal(half[key], value)

    @pytest.mark.parametrize("transport", LOSSY)
    def test_taking_it_allocates_one_coded_client_half(self, transport):
        """The transient over what the payload keeps stays under half a
        client half: only the codec's per-tensor scratch, no full copy."""
        layers = []
        for seed in range(6):
            layers += [nn.Linear(32, 32, seed=seed), nn.ReLU()]
        split = split_model(nn.Sequential(*layers, nn.Linear(32, 5, seed=9)), 12)
        codec = parse_transport(transport)
        client_bytes = sum(a.nbytes for a in split.client.state_dict(copy=False).values())
        _uploaded_halves(split, codec)  # warm the codec's first-call imports
        tracemalloc.start()
        try:
            payload = _uploaded_halves(split, codec)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert payload[0] and peak - kept < client_bytes / 2
