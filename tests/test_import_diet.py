"""Cold-start guard: ``import repro.cli`` must not pull in scipy,
``concurrent`` or ``logging``.

``scipy.stats`` is needed for one t-quantile in
``repro.metrics.multiseed.aggregate_metric``; importing it at module scope
cost every CLI run ~0.9 s and ~80 MiB.  The import now lives inside that
function, and the value pins below prove the move changed no number.
No module the CLI imports needs a worker pool, so ``concurrent.futures``
(and the ``logging`` it imports) stay unloaded too.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.metrics.multiseed import aggregate_metric

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("package", ["scipy", "concurrent", "logging"])
def test_importing_the_cli_leaves_scipy_unloaded(package):
    code = (
        "import sys, repro.cli; "
        f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "values, confidence, expected",
    [
        # (mean, std, ci_low, ci_high) recorded with the module-level import.
        ([0.5], 0.95, (0.5, 0.0, 0.5, 0.5)),
        ([0.25, 0.25, 0.25], 0.95, (0.25, 0.0, 0.25, 0.25)),
        (
            [0.61, 0.58, 0.66, 0.63, 0.57],
            0.95,
            (0.61, 0.0367423461417477, 0.5643783515862509, 0.655621648413749),
        ),
        (
            [0.61, 0.58, 0.66, 0.63, 0.57],
            0.9,
            (0.61, 0.0367423461417477, 0.57497018277952, 0.64502981722048),
        ),
    ],
)
def test_t_interval_values_are_pinned(values, confidence, expected):
    summary = aggregate_metric("m", values, confidence=confidence)
    got = (summary.mean, summary.std, summary.ci_low, summary.ci_high)
    assert got == pytest.approx(expected, rel=1e-12, abs=0.0)
