"""Training-scheme integration tests on the fast scenario.

These verify protocol-level invariants (equivalences, trace structure,
storage accounting) rather than absolute accuracy numbers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.gsfl import GroupSplitFederatedLearning
from repro.experiments.runner import make_scheme
from repro.experiments.scenario import fast_scenario
from repro.metrics.history import TrainingHistory
from repro.schemes.base import SchemeConfig
from repro.schemes.splitfed import SplitFedLearning


@pytest.fixture(scope="module")
def built():
    return fast_scenario(with_wireless=True).build()


@pytest.fixture(scope="module")
def built_nolatency():
    return fast_scenario(with_wireless=False).build()


class TestSchemeBasics:
    @pytest.mark.parametrize("name", ["CL", "FL", "SL", "SplitFed", "GSFL"])
    def test_runs_and_improves_over_chance(self, built, name):
        scheme = make_scheme(name, built)
        history = scheme.run(3)
        assert isinstance(history, TrainingHistory)
        assert len(history) == 3
        # 10 classes -> chance 0.1; even 3 rounds beats it for every scheme
        assert history.final_accuracy > 0.15

    @pytest.mark.parametrize("name", ["CL", "FL", "SL", "SplitFed", "GSFL"])
    def test_latency_strictly_increases(self, built, name):
        history = make_scheme(name, built).run(3)
        lats = history.latencies
        assert np.all(np.diff(lats) > 0)

    def test_no_wireless_means_zero_latency(self, built_nolatency):
        history = make_scheme("GSFL", built_nolatency).run(2)
        assert history.total_latency_s == 0.0

    def test_training_deterministic_on_shared_system(self, built):
        """Learning curves replay exactly; latencies are allowed to differ
        because consecutive runs consume the shared fading stream."""
        h1 = make_scheme("GSFL", built).run(2)
        h2 = make_scheme("GSFL", built).run(2)
        np.testing.assert_allclose(h1.accuracies, h2.accuracies)

    def test_full_runs_deterministic_on_fresh_scenarios(self):
        """Rebuilding the scenario replays everything bit-for-bit,
        including the fading realizations behind the latency axis."""
        h1 = make_scheme("GSFL", fast_scenario(with_wireless=True).build()).run(2)
        h2 = make_scheme("GSFL", fast_scenario(with_wireless=True).build()).run(2)
        np.testing.assert_allclose(h1.accuracies, h2.accuracies)
        np.testing.assert_allclose(h1.latencies, h2.latencies)

    def test_eval_every(self, built):
        scenario = fast_scenario(with_wireless=False)
        scenario.scheme = SchemeConfig(
            batch_size=8, local_steps=1, lr=0.05, eval_every=2, seed=0
        )
        b = scenario.build()
        history = make_scheme("SL", b).run(4)
        assert [p.round_index for p in history.points] == [2, 4]


class TestEquivalences:
    def test_gsfl_single_group_matches_sl_plus_aggregation(self, built_nolatency):
        """M=1 GSFL is SL with a (no-op) single-participant FedAvg."""
        sl = make_scheme("SL", built_nolatency)
        h_sl = sl.run(2)
        gsfl = make_scheme("GSFL", built_nolatency, num_groups=1)
        h_gsfl = gsfl.run(2)
        np.testing.assert_allclose(h_sl.accuracies, h_gsfl.accuracies, atol=1e-12)

    def test_gsfl_singleton_groups_match_splitfed(self, built_nolatency):
        """M=N GSFL degenerates to SplitFed (same math, different name)."""
        n = len(built_nolatency.client_datasets)
        sf = make_scheme("SplitFed", built_nolatency)
        h_sf = sf.run(2)
        gsfl = make_scheme("GSFL", built_nolatency, num_groups=n)
        h_gsfl = gsfl.run(2)
        np.testing.assert_allclose(h_sf.accuracies, h_gsfl.accuracies, atol=1e-12)

    def test_schemes_start_from_identical_weights(self, built):
        a = make_scheme("SL", built)
        b = make_scheme("GSFL", built)
        sa, sb = a.model.state_dict(), b.model.state_dict()
        for k in sa:
            np.testing.assert_allclose(sa[k], sb[k])


class TestTraces:
    def test_sl_has_single_serial_transmitter(self, built):
        scheme = make_scheme("SL", built)
        scheme.run(1)
        # In SL no two non-wait activities may overlap in time.
        events = sorted(scheme.recorder.events, key=lambda e: (e.start, e.end))
        for prev, nxt in zip(events, events[1:]):
            assert nxt.start >= prev.end - 1e-9

    def test_gsfl_trace_has_parallel_groups(self, built):
        scheme = make_scheme("GSFL", built)
        scheme.run(1)
        events = scheme.recorder.events
        overlaps = 0
        for i, a in enumerate(events):
            for b in events[i + 1 :]:
                if a.start < b.end and b.start < a.end and a.duration > 0 and b.duration > 0:
                    overlaps += 1
        assert overlaps > 0  # groups genuinely overlap in simulated time

    def test_gsfl_round_has_expected_phases(self, built):
        scheme = make_scheme("GSFL", built)
        scheme.run(1)
        phases = {e.phase for e in scheme.recorder.events}
        assert {
            "model_distribution",
            "client_compute",
            "uplink_smashed",
            "server_compute",
            "downlink_gradient",
            "model_relay",
            "model_upload",
            "aggregation",
        } <= phases

    def test_fl_trace_phases(self, built):
        scheme = make_scheme("FL", built)
        scheme.run(1)
        phases = {e.phase for e in scheme.recorder.events}
        assert {"model_distribution", "client_compute", "model_upload", "aggregation"} <= phases
        assert "uplink_smashed" not in phases  # FL never moves activations

    def test_cl_uploads_data_once(self, built):
        scheme = make_scheme("CL", built)
        scheme.run(2)
        uploads = scheme.recorder.filter(phases=["data_upload"])
        assert len(uploads) == len(built.client_datasets)
        assert all(e.round_index == 0 for e in uploads)

    def test_smashed_payload_bytes_match_profile(self, built):
        scheme = make_scheme("GSFL", built)
        scheme.run(1)
        cut = built.scenario.resolved_cut_layer()
        expected = built.profile.smashed_bytes(cut, built.scenario.scheme.batch_size)
        for e in scheme.recorder.filter(phases=["uplink_smashed"]):
            assert e.nbytes == expected


class TestStorageAccounting:
    def test_gsfl_hosts_m_replicas_splitfed_n(self, built):
        gsfl = make_scheme("GSFL", built)
        sf = make_scheme("SplitFed", built)
        assert isinstance(gsfl, GroupSplitFederatedLearning)
        assert isinstance(sf, SplitFedLearning)
        assert gsfl.server_side_replicas() == built.scenario.num_groups
        assert sf.server_side_replicas() == len(built.client_datasets)
        assert gsfl.server_storage_bytes() < sf.server_storage_bytes()

    def test_storage_ratio_is_n_over_m(self, built):
        gsfl = make_scheme("GSFL", built)
        sf = make_scheme("SplitFed", built)
        n = len(built.client_datasets)
        m = built.scenario.num_groups
        assert sf.server_storage_bytes() / gsfl.server_storage_bytes() == pytest.approx(
            n / m
        )


class TestSchemeConfigValidation:
    @pytest.mark.parametrize("value", [0, -64])
    def test_eval_batch_size_must_be_positive(self, value):
        """``eval_batch_size=0`` used to be accepted and only fail inside
        the first evaluation, after a round had already trained."""
        with pytest.raises(ValueError, match="eval_batch_size must be > 0"):
            SchemeConfig(eval_batch_size=value)

    def test_evaluation_walks_64_sample_slabs_by_default(self):
        assert SchemeConfig().eval_batch_size == 64


class TestGsflConfiguration:
    def test_explicit_groups(self, built_nolatency):
        n = len(built_nolatency.client_datasets)
        groups = [[i] for i in range(n)]
        scheme = make_scheme("GSFL", built_nolatency, groups=groups)
        assert scheme.num_groups == n

    def test_invalid_groups_rejected(self, built_nolatency):
        with pytest.raises(ValueError):
            make_scheme("GSFL", built_nolatency, groups=[[0, 0], [1]])

    def test_bandwidth_shares_length_checked(self, built):
        with pytest.raises(ValueError):
            make_scheme("GSFL", built, bandwidth_shares=[1e6])

    def test_custom_bandwidth_shares_change_latency(self, built):
        equal = make_scheme("GSFL", built).run(1).total_latency_s
        m = built.scenario.num_groups
        total = built.system.allocator.total_bandwidth_hz
        skew = [total * 0.5] + [total * 0.5 / (m - 1)] * (m - 1)
        skewed = make_scheme("GSFL", built, bandwidth_shares=skew).run(1).total_latency_s
        assert skewed != pytest.approx(equal)

    def test_grouping_strategy_passthrough(self, built):
        scheme = make_scheme("GSFL", built, grouping="random")
        flat = sorted(c for g in scheme.groups for c in g)
        assert flat == list(range(len(built.client_datasets)))
