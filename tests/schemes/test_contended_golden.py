"""Contended-medium answers, pinned bitwise.

``tests/fixtures/contended/latencies.json`` freezes, as hex floats, the
per-round latencies the *pre-rewrite* dense link engine and Shannon-rate
chain resolved on the contended medium (see ``tests/fixtures/regenerate.py``):
three schemes × three allocators on a heterogeneous ``fast`` fleet, plus
two ``mid-activity`` churn runs whose abort, retry and fired-event counts
are pinned as well.  ``test_runtime_parity`` only
bounds contended latencies; this is the check that a faster engine still
resolves the *same* world — every re-rate, every tie, every abort
settlement.
"""

from __future__ import annotations

import json

import pytest

from tests.fixtures.regenerate import (
    CHURN_RUNS,
    CONTENDED_FIXTURE,
    CONTENDED_KEYS,
    contended_record,
)

GOLDEN = json.loads(CONTENDED_FIXTURE.read_text())


def test_fixture_covers_every_pinned_run():
    assert sorted(GOLDEN) == sorted(CONTENDED_KEYS)


@pytest.mark.parametrize("key", CONTENDED_KEYS)
def test_contended_run_reproduces_fixture_bitwise(key):
    assert contended_record(key) == GOLDEN[key], (
        f"{key}: contended-medium answers diverged from the fixture — either "
        f"a link/rate regression or an intentional change (regenerate and "
        f"justify it in the PR)"
    )


@pytest.mark.parametrize("key", sorted(CHURN_RUNS))
def test_churn_runs_actually_abort(key):
    assert GOLDEN[key]["aborts"] > 0
    assert GOLDEN[key]["retries"] > 0
