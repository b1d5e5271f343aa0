"""Stage/track/runtime machinery tests: the DES resolution of fixed
demands must agree with the analytic stage algebra, trace events must
tile the timeline, and a persistent runtime must carry an absolute clock
across rounds."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schemes.base import Activity, Stage
from repro.sim.runtime import Runtime
from repro.sim.trace import TraceRecorder


def act(d, phase="client_compute", actor="a"):
    return Activity(d, phase, actor)


class TestStageAlgebra:
    def test_stage_duration_is_max_of_track_sums(self):
        stage = Stage("s")
        stage.extend("t1", [act(1.0), act(2.0)])
        stage.extend("t2", [act(2.5)])
        assert stage.duration_s == pytest.approx(3.0)

    def test_empty_stage_zero(self):
        assert Stage("s").duration_s == 0.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Activity(-0.1, "wait", "a")

    def test_nominal_matches_lower_bound_for_fixed_demands(self):
        stage = Stage("s")
        stage.extend("t", [act(1.5), act(0.5)])
        assert stage.nominal_duration_s == pytest.approx(stage.duration_s)


class TestReplay:
    def test_single_track_sums(self):
        rec = TraceRecorder()
        stage = Stage("s")
        stage.extend("t", [act(1.0), act(2.0), act(0.5)])
        total = Runtime().execute_round([stage], rec, round_index=0)
        assert total == pytest.approx(3.5)
        assert len(rec) == 3

    def test_parallel_tracks_overlap(self):
        stage = Stage("s")
        stage.extend("t1", [act(5.0)])
        stage.extend("t2", [act(3.0)])
        total = Runtime().execute_round([stage], None, 0)
        assert total == pytest.approx(5.0)

    def test_stages_are_barriers(self):
        s1 = Stage("train")
        s1.extend("t1", [act(5.0)])
        s1.extend("t2", [act(1.0)])
        s2 = Stage("agg")
        s2.extend("server", [act(2.0, phase="aggregation", actor="edge-server")])
        rec = TraceRecorder()
        total = Runtime().execute_round([s1, s2], rec, 0)
        assert total == pytest.approx(7.0)
        agg = rec.filter(phases=["aggregation"])[0]
        assert agg.start == pytest.approx(5.0)  # waits for slow track

    def test_persistent_runtime_uses_absolute_timestamps(self):
        """Successive rounds on one runtime continue the clock — no
        per-round restart, no start-offset bookkeeping."""
        runtime = Runtime()
        rec = TraceRecorder()
        stage = Stage("s")
        stage.extend("t", [act(2.0)])
        d0 = runtime.execute_round([stage], rec, round_index=0)
        stage2 = Stage("s")
        stage2.extend("t", [act(3.0)])
        d1 = runtime.execute_round([stage2], rec, round_index=1)
        assert (d0, d1) == (pytest.approx(2.0), pytest.approx(3.0))
        assert runtime.now == pytest.approx(5.0)
        second = rec.events_in_round(1)[0]
        assert second.start == pytest.approx(2.0)
        assert second.end == pytest.approx(5.0)

    def test_track_events_are_contiguous(self):
        stage = Stage("s")
        stage.extend("t", [act(1.0), act(2.0), act(3.0)])
        rec = TraceRecorder()
        Runtime().execute_round([stage], rec, 0)
        events = sorted(rec.events, key=lambda e: e.start)
        for prev, nxt in zip(events, events[1:]):
            assert nxt.start == pytest.approx(prev.end)

    def test_zero_duration_activities_allowed(self):
        stage = Stage("s")
        stage.extend("t", [act(0.0), act(0.0)])
        assert Runtime().execute_round([stage], None, 0) == pytest.approx(0.0)

    @given(
        st.lists(
            st.lists(st.floats(0.0, 10.0), min_size=1, max_size=4),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_replay_equals_analytic_for_any_stage(self, track_durations):
        """Property: DES resolution == max-of-sums for arbitrary stages."""
        stage = Stage("s")
        for i, durations in enumerate(track_durations):
            stage.extend(f"t{i}", [act(d) for d in durations])
        expected = max(sum(ds) for ds in track_durations)
        assert Runtime().execute_round([stage], None, 0) == pytest.approx(expected)

    @given(
        st.lists(
            st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0)), min_size=1, max_size=5
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_multi_stage_sum_property(self, pairs):
        """Rounds of two-track stages: total = sum of per-stage maxima."""
        stages = []
        for i, (a, b) in enumerate(pairs):
            stage = Stage(f"s{i}")
            stage.extend("t1", [act(a)])
            stage.extend("t2", [act(b)])
            stages.append(stage)
        expected = sum(max(a, b) for a, b in pairs)
        assert Runtime().execute_round(stages, None, 0) == pytest.approx(expected)
