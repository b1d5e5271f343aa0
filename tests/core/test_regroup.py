"""Property battery for the between-round regrouping policies.

Invariants (hammered with Hypothesis-generated fleets and churn traces,
example budgets from the ``ci``/``weekly`` profiles in ``conftest.py``):

* **partition exactness** — every policy returns an exact partition of
  the same client set into the same number of groups, sizes within one;
* **static no-op** — the static policy is no policy at all;
* **down clients never mid-chain** — under ``availability_aware`` the
  currently-down members of each chain form a *suffix* (a down client is
  never a relay hop an up client depends on);
* **termination** — regrouping over arbitrary churn schedules (and a
  full GSFL run with regrouping armed under heavy churn) terminates.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grouping import contiguous_groups, validate_groups
from repro.core.regroup import (
    REGROUP_POLICIES,
    AbortHistoryRegroup,
    AvailabilityAwareRegroup,
    RegroupContext,
    make_regroup_policy,
)
from repro.experiments.dynamics import ClientDynamics, DynamicsConfig

churn_means = st.floats(
    min_value=0.05, max_value=5.0, allow_nan=False, allow_infinity=False
)
seeds = st.integers(min_value=0, max_value=2**20)
fleets = st.tuples(st.integers(2, 40), st.integers(1, 8)).filter(
    lambda nm: nm[1] <= nm[0]
)


def make_dynamics(uptime, downtime, seed, num_clients):
    return ClientDynamics(
        DynamicsConfig(
            churn_uptime_s=uptime,
            churn_downtime_s=downtime,
            failure_model="mid-activity",
            seed=seed,
        ),
        num_clients,
    )


#: every policy that is an object: ``"static"`` maps to none, so the
#: scheme driver skips the hook
ACTIVE_POLICIES = tuple(name for name in REGROUP_POLICIES if name != "static")


def abort_counts_strategy(num_clients):
    return st.dictionaries(
        st.integers(0, num_clients - 1), st.integers(0, 9), max_size=num_clients
    )


class TestPartitionInvariants:
    @given(
        fleet=fleets,
        name=st.sampled_from(ACTIVE_POLICIES),
        uptime=churn_means,
        downtime=churn_means,
        seed=seeds,
        now=st.floats(min_value=0.0, max_value=50.0),
        data=st.data(),
    )
    def test_every_policy_returns_balanced_exact_partition(
        self, fleet, name, uptime, downtime, seed, now, data
    ):
        n, m = fleet
        policy = make_regroup_policy(name)
        context = RegroupContext(
            round_index=1,
            now_s=now,
            dynamics=make_dynamics(uptime, downtime, seed, n),
            abort_counts=data.draw(abort_counts_strategy(n)),
        )
        groups = policy.regroup(contiguous_groups(n, m), context)
        validate_groups(groups, n)
        assert len(groups) == m
        sizes = [len(g) for g in groups]
        assert max(sizes) - min(sizes) <= 1

    @given(fleet=fleets, rounds=st.integers(1, 6), seed=seeds)
    @settings(max_examples=25)
    def test_repeated_regrouping_stays_a_partition(self, fleet, rounds, seed):
        """Policies are stateful (EWMA); iterating them must stay exact."""
        n, m = fleet
        policy = AbortHistoryRegroup()
        groups = contiguous_groups(n, m)
        for r in range(1, rounds + 1):
            context = RegroupContext(
                round_index=r,
                now_s=float(r),
                abort_counts={c: (c * r + seed) % 3 for c in range(n)},
            )
            groups = policy.regroup(groups, context)
            validate_groups(groups, n)


class TestStaticNoOp:
    def test_make_regroup_policy_static_is_none(self):
        """The scheme driver skips the hook entirely for static."""
        assert make_regroup_policy("static") is None

    def test_make_regroup_policy_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown regroup policy"):
            make_regroup_policy("astrology")


class TestAvailabilityAware:
    @given(
        fleet=fleets,
        uptime=churn_means,
        downtime=churn_means,
        seed=seeds,
        now=st.floats(min_value=0.0, max_value=50.0),
    )
    def test_down_clients_form_a_chain_suffix(
        self, fleet, uptime, downtime, seed, now
    ):
        """A currently-down client is never mid-chain: every member after
        the first down one in a chain is down too."""
        n, m = fleet
        dynamics = make_dynamics(uptime, downtime, seed, n)
        context = RegroupContext(round_index=1, now_s=now, dynamics=dynamics)
        groups = AvailabilityAwareRegroup().regroup(contiguous_groups(n, m), context)
        validate_groups(groups, n)
        for chain in groups:
            seen_down = False
            for client in chain:
                up = dynamics.available_at(client, now)
                if seen_down:
                    assert not up, (chain, client)
                seen_down = seen_down or not up

    @given(
        fleet=fleets,
        uptime=churn_means,
        downtime=churn_means,
        seed=seeds,
        now=st.floats(min_value=0.0, max_value=50.0),
    )
    def test_chains_ordered_by_remaining_uptime(
        self, fleet, uptime, downtime, seed, now
    ):
        """Within each chain the oracle remaining up-time never increases
        toward the tail (short-lived clients sink to the end)."""
        n, m = fleet
        dynamics = make_dynamics(uptime, downtime, seed, n)
        policy = AvailabilityAwareRegroup()
        context = RegroupContext(round_index=1, now_s=now, dynamics=dynamics)
        groups = policy.regroup(contiguous_groups(n, m), context)
        for chain in groups:
            remaining = [
                policy._remaining_uptime(dynamics, c, now) for c in chain
            ]
            assert remaining == sorted(remaining, reverse=True)

    def test_no_signal_keeps_the_partition(self):
        before = contiguous_groups(9, 3)
        # No dynamics at all.
        assert AvailabilityAwareRegroup().regroup(
            before, RegroupContext(round_index=1, now_s=0.0)
        ) == before
        # Dynamics without churn: every client scores +inf, no signal.
        dynamics = ClientDynamics(DynamicsConfig(), 9)
        assert AvailabilityAwareRegroup().regroup(
            before, RegroupContext(round_index=1, now_s=0.0, dynamics=dynamics)
        ) == before


class TestAbortHistory:
    def test_no_evidence_keeps_the_partition(self):
        before = contiguous_groups(8, 2)
        after = AbortHistoryRegroup().regroup(
            before, RegroupContext(round_index=1, now_s=0.0)
        )
        assert after == before

    def test_flaky_client_leaves_the_chain_tail(self):
        """The chain anchor (final upload — un-reroutable) goes to the
        client with the cleanest abort record, never the flakiest one."""
        policy = AbortHistoryRegroup()
        context = RegroupContext(
            round_index=1, now_s=0.0, abort_counts={0: 4, 1: 4, 5: 1}
        )
        groups = policy.regroup(contiguous_groups(6, 2), context)
        validate_groups(groups, 6)
        score = policy._score
        for chain in groups:
            assert score[chain[-1]] == min(score[c] for c in chain)

    def test_ewma_decays_old_evidence(self):
        policy = AbortHistoryRegroup(decay=0.5)
        ctx = lambda counts: RegroupContext(  # noqa: E731
            round_index=1, now_s=0.0, abort_counts=counts
        )
        groups = contiguous_groups(4, 2)
        policy.regroup(groups, ctx({0: 8}))
        assert policy._score[0] == 8.0
        policy.regroup(groups, ctx({}))
        assert policy._score[0] == 4.0
        policy.regroup(groups, ctx({0: 1}))
        assert policy._score[0] == 3.0

    def test_rejects_bad_decay(self):
        with pytest.raises(ValueError, match="decay"):
            AbortHistoryRegroup(decay=1.0)


class TestTermination:
    @given(
        uptime=churn_means,
        downtime=churn_means,
        seed=seeds,
        name=st.sampled_from(ACTIVE_POLICIES),
        rounds=st.integers(1, 8),
    )
    @settings(max_examples=20)
    def test_regrouping_over_arbitrary_churn_terminates(
        self, uptime, downtime, seed, name, rounds
    ):
        policy = make_regroup_policy(name)
        dynamics = make_dynamics(uptime, downtime, seed, 12)
        groups = contiguous_groups(12, 4)
        now = 0.0
        for r in range(1, rounds + 1):
            now += uptime + downtime  # advance past whole churn cycles
            context = RegroupContext(
                round_index=r,
                now_s=now,
                dynamics=dynamics,
                abort_counts={c: (c + r) % 2 for c in range(12)},
            )
            groups = policy.regroup(groups, context)
            validate_groups(groups, 12)

    @pytest.mark.parametrize("name", ["availability_aware", "abort_history"])
    def test_gsfl_run_with_regrouping_under_heavy_churn_terminates(self, name):
        """End-to-end: a GSFL run with regrouping armed under the PR-4
        churn setting finishes and its trace carries regroup rows."""
        from dataclasses import replace

        from repro.experiments.runner import make_scheme
        from repro.experiments.scenario import fast_scenario

        scenario = fast_scenario(with_wireless=True)
        scenario.dynamics = DynamicsConfig(
            churn_uptime_s=0.15,
            churn_downtime_s=0.05,
            failure_model="mid-activity",
            max_retries=2,
            seed=0,
        )
        scenario.scheme = replace(scenario.scheme, regroup=name, regroup_every=1)
        scheme = make_scheme("GSFL", scenario.build())
        history = scheme.run(3)
        assert len(history.points) == 3
        assert len(scheme.recorder.regroups) == 2  # rounds 1 and 2
        assert all(e.policy == name for e in scheme.recorder.regroups)
        for event in scheme.recorder.regroups:
            validate_groups([list(g) for g in event.groups], scheme.num_clients)

    def test_regroup_requires_sync_aggregation(self):
        from dataclasses import replace

        from repro.experiments.runner import make_scheme
        from repro.experiments.scenario import fast_scenario

        scenario = fast_scenario(with_wireless=True)
        scenario.scheme = replace(
            scenario.scheme, regroup="availability_aware", aggregation="async"
        )
        with pytest.raises(ValueError, match="synchronous aggregation"):
            make_scheme("GSFL", scenario.build())

    def test_regroup_every_gates_the_cadence(self):
        from dataclasses import replace

        from repro.experiments.runner import make_scheme
        from repro.experiments.scenario import fast_scenario

        scenario = fast_scenario(with_wireless=True)
        scenario.dynamics = DynamicsConfig(
            churn_uptime_s=0.15,
            churn_downtime_s=0.05,
            failure_model="mid-activity",
            seed=0,
        )
        scenario.scheme = replace(
            scenario.scheme, regroup="availability_aware", regroup_every=2
        )
        scheme = make_scheme("GSFL", scenario.build())
        scheme.run(4)
        assert [e.round_index for e in scheme.recorder.regroups] == [2]
