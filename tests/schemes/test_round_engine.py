"""``run_group_tasks`` contract: one shared ``SplitModel``, independent tasks.

Every round engine (GSFL's groups, SplitFed's and PSL's clients) trains
its tasks one after another on the scheme's single ``SplitModel``.  That
is sound only because a task loads its own global halves before training
and returns copies afterwards, so *a task's result must not depend on
which tasks ran before it, nor on anything done to the model after it
returned*.  These tests pin exactly that, on the identity codec and on
the lossy ones (whose relay re-coding also goes through the shared
model).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.data.dataset import DataLoader
from repro.nn.split import split_model
from repro.schemes.base import SchemeConfig
from repro.schemes.split_common import GroupTask, run_group_tasks

TRANSPORTS = ["float32", "int8", "topk:0.25"]
#: (members, seed offset of their loaders) for each of three tasks
LAYOUT = [([0, 1], 0), ([2], 10), ([3, 4, 5], 20)]


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


def _assert_same_result(a, b):
    assert a.index == b.index
    assert a.loss_sum == b.loss_sum
    assert a.num_members == b.num_members
    assert a.weight == b.weight
    for mine, theirs in (
        (a.client_state, b.client_state),
        (a.server_state, b.server_state),
    ):
        assert list(mine) == list(theirs)
        for key in mine:
            np.testing.assert_array_equal(mine[key], theirs[key])


class TestRunGroupTasks:
    def test_results_in_task_order(self, small_dataset):
        results = run_group_tasks(_tasks(small_dataset), _split(), SchemeConfig())
        assert [r.index for r in results] == [0, 1, 2]
        assert [r.num_members for r in results] == [2, 1, 3]

    def test_no_tasks_no_results(self):
        assert run_group_tasks([], _split(), SchemeConfig()) == []

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_task_result_independent_of_predecessors(self, small_dataset, transport):
        """Task ``k`` after tasks ``0..k-1`` on one model == task ``k`` alone
        on a model nobody trained."""
        config = SchemeConfig(transport=transport)
        together = run_group_tasks(_tasks(small_dataset), _split(), config)
        for index, result in enumerate(together):
            alone = run_group_tasks(_tasks(small_dataset, [index]), _split(), config)
            _assert_same_result(result, alone[0])

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_task_order_does_not_change_results(self, small_dataset, transport):
        config = SchemeConfig(transport=transport)
        forward = run_group_tasks(_tasks(small_dataset), _split(), config)
        backward = run_group_tasks(_tasks(small_dataset, [2, 1, 0]), _split(), config)
        for result, mirrored in zip(forward, reversed(backward)):
            _assert_same_result(result, mirrored)

    def test_results_do_not_alias_the_shared_model(self, small_dataset):
        split = _split()
        results = run_group_tasks(
            _tasks(small_dataset), split, SchemeConfig()
        )
        snapshot = [
            {k: v.copy() for k, v in r.client_state.items()} for r in results
        ]
        for param in split.client.parameters():
            param.data[...] = np.nan
        for result, before in zip(results, snapshot):
            for key, value in before.items():
                np.testing.assert_array_equal(result.client_state[key], value)
        # Distinct members and batches: no two tasks return the same model.
        first = [r.client_state[next(iter(r.client_state))] for r in results]
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
        run_group_tasks(tasks, _split(), SchemeConfig())
        # Members in relay order, each drawing ``local_steps`` batches in a row.
        assert calls == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5]
