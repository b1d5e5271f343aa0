"""``repro.core`` — the paper's contribution and its design knobs.

GSFL itself (:mod:`repro.core.gsfl`), client grouping strategies and
between-round regrouping policies and FedAvg aggregation.
"""

from repro.core.aggregation import fedavg, weighted_delta
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
]
