"""``repro.schemes`` — the training schemes compared in the paper.

* :class:`CentralizedLearning` (CL) — pooled-data edge training;
* :class:`FederatedLearning` (FL) — FedAvg over full local models;
* :class:`SplitLearning` (SL) — sequential relay split learning, the
  split-federated round with one unit of every client;
* :class:`SplitFedLearning` — per-client-replica hybrid (the §I strawman),
  the split-federated round with one-client units;
* :class:`ParallelSplitLearning` (PSL) — concurrent client halves against
  one server model.

GSFL itself lives in :mod:`repro.core.gsfl` (it is the paper's
contribution, not a baseline); import it from ``repro.core``.
"""

from repro.schemes.base import Activity, RoundTiming, Scheme, SchemeConfig, Stage
from repro.schemes.centralized import CentralizedLearning
from repro.schemes.federated import FederatedLearning
from repro.schemes.parallel_split import ParallelSplitLearning
from repro.schemes.pricing import LatencyModel
from repro.schemes.split import SplitLearning
from repro.schemes.splitfed import SplitFedLearning

__all__ = [
    "Activity",
    "Stage",
    "RoundTiming",
    "Scheme",
    "SchemeConfig",
    "LatencyModel",
    "CentralizedLearning",
    "FederatedLearning",
    "SplitLearning",
    "SplitFedLearning",
    "ParallelSplitLearning",
]
