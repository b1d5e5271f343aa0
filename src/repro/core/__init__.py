"""``repro.core`` — the paper's contribution and its design knobs.

GSFL itself (:mod:`repro.core.gsfl`), client grouping strategies and
between-round regrouping policies, FedAvg aggregation, cut-layer
analysis, and inter-group bandwidth apportioning (the §IV
future-work axes, built for the ablations).
"""

from repro.core.aggregation import fedavg, weighted_delta
from repro.core.cut_layer import CutAnalysis, analyze_cuts
from repro.core.gsfl import GroupSplitFederatedLearning
from repro.core.grouping import (
    GROUPING_STRATEGIES,
    channel_aware_groups,
    compute_balanced_groups,
    contiguous_groups,
    make_groups,
    random_groups,
    validate_groups,
)
from repro.core.regroup import (
    REGROUP_POLICIES,
    AbortHistoryRegroup,
    AvailabilityAwareRegroup,
    RegroupContext,
    RegroupPolicy,
    make_regroup_policy,
)
from repro.core.resource import (
    GroupWorkload,
    equal_bandwidth_split,
    minmax_bandwidth_split,
)

__all__ = [
    "GroupSplitFederatedLearning",
    "fedavg",
    "weighted_delta",
    "GROUPING_STRATEGIES",
    "contiguous_groups",
    "random_groups",
    "compute_balanced_groups",
    "channel_aware_groups",
    "make_groups",
    "validate_groups",
    "REGROUP_POLICIES",
    "RegroupContext",
    "RegroupPolicy",
    "AvailabilityAwareRegroup",
    "AbortHistoryRegroup",
    "make_regroup_policy",
    "CutAnalysis",
    "analyze_cuts",
    "GroupWorkload",
    "equal_bandwidth_split",
    "minmax_bandwidth_split",
]
