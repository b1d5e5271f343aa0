"""``repro.exec`` — the round engine's fan-out over independent work.

GSFL's ``M`` group pipelines (and SplitFed's / PSL's per-client tasks)
run in parallel in *simulated* time; the DES prices that parallelism, so
the host runs them one after another with :class:`SerialExecutor`.
"""

from repro.exec.executors import SerialExecutor

__all__ = ["SerialExecutor"]
