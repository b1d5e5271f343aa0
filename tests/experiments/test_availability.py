"""Unit tests for the availability processes: one renewal class behind
every windowed spec kind, and trace replay."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.experiments.availability import (
    AVAILABILITY_KINDS,
    AvailabilitySpec,
    RenewalProcess,
    TraceReplay,
    make_availability_process,
    parse_availability,
)
from repro.experiments.dynamics import ClientDynamics, DynamicsConfig


def windowed(spec, num_clients, seed, up_s, down_s):
    """The renewal process behind a windowed ``spec``."""
    process = make_availability_process(
        spec, num_clients, np.random.SeedSequence(seed), up_s, down_s
    )
    assert isinstance(process, RenewalProcess)
    return process


def first_toggles(process, client, n):
    """First ``n`` toggles of an infinite process's per-client stream."""
    t = 0.0
    while True:
        stream = process.toggles(client, t)
        if len(stream) >= n:
            return list(stream[:n])
        t = stream[-1]


class TestParseAvailability:
    def test_kinds_cover_every_spec_prefix(self):
        assert AVAILABILITY_KINDS == (
            "exponential", "diurnal", "cells", "handoff", "trace"
        )

    def test_exponential(self):
        assert parse_availability("exponential") == AvailabilitySpec("exponential")

    def test_handoff(self):
        assert parse_availability("handoff").kind == "handoff"

    def test_diurnal_defaults(self):
        spec = parse_availability("diurnal")
        assert spec.kind == "diurnal"
        assert spec.period_s == 2.0 and spec.amplitude == 0.8

    def test_diurnal_params(self):
        spec = parse_availability("diurnal:5.5:0.25")
        assert spec.period_s == 5.5 and spec.amplitude == 0.25

    def test_cells_defaults_and_params(self):
        assert parse_availability("cells").num_cells == 4
        assert parse_availability("cells:7").num_cells == 7

    def test_trace(self):
        assert parse_availability("trace:/tmp/t.jsonl").path == "/tmp/t.jsonl"

    def test_needs_windows(self):
        assert parse_availability("diurnal").needs_windows
        assert parse_availability("cells").needs_windows
        assert parse_availability("handoff").needs_windows
        assert not parse_availability("exponential").needs_windows
        assert not parse_availability("trace:x").needs_windows

    @pytest.mark.parametrize(
        "spec",
        ["", "weibull", "diurnal:1:2:3", "diurnal:x", "diurnal:0",
         "diurnal:2:1.0", "diurnal:2:-0.1", "cells:0", "cells:x",
         "cells:1:2", "trace:"],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_availability(spec)

    @pytest.mark.parametrize("spec", ["diurnal", "cells:2", "handoff"])
    def test_config_requires_windows(self, spec):
        with pytest.raises(ValueError, match="requires churn windows"):
            DynamicsConfig(availability=spec)

    def test_config_rejects_unknown_spec(self):
        with pytest.raises(ValueError, match="unknown availability"):
            DynamicsConfig(availability="weibull")


class TestRenewalWindows:
    @pytest.mark.parametrize("spec", ["exponential", "diurnal", "cells", "handoff"])
    @pytest.mark.parametrize(
        "up_s, down_s, field",
        [(math.inf, 5.0, "churn_uptime_s"), (5.0, 0.0, "churn_downtime_s")],
    )
    def test_every_windowed_process_rejects_a_non_finite_or_zero_window(
        self, spec, up_s, down_s, field
    ):
        """An infinite window turns churn off; a zero one never lets a
        toggle stream advance.  Each process names the field."""
        with pytest.raises(ValueError, match=f"{field} must be > 0 and finite"):
            make_availability_process(
                spec, 4, np.random.SeedSequence(0), up_s, down_s
            )


#: seed 7, up 10 s / down 5 s, rounded to 12 decimals
PIN_CONFIG = dict(churn_uptime_s=10.0, churn_downtime_s=5.0, seed=7)


def pinned_streams(spec, num_clients):
    dyn = ClientDynamics(DynamicsConfig(**PIN_CONFIG, availability=spec), num_clients)
    return {c: [round(t, 12) for t in first_toggles(dyn._process, c, 6)]
            for c in range(num_clients)}


class TestExponentialRenewal:
    #: first six toggles of the pre-refactor inline loop (seed 7,
    #: up 10 s / down 5 s, 3 clients), rounded to 12 decimals — pins the
    #: factored-out process bitwise to the historical draw order.
    PINNED = {
        0: [1.332254212355, 4.975150094378, 6.684817498011,
            19.833342257205, 19.87544566155, 22.887783581675],
        1: [0.892473822154, 12.243203941087, 16.555511445478,
            22.904309828451, 28.135699063226, 43.997958983862],
        2: [10.502237826864, 11.262193059314, 16.322148524287,
            16.46208100283, 30.552458565622, 32.295935824514],
    }

    def test_bitwise_identical_to_historical_stream(self):
        assert pinned_streams("exponential", 3) == self.PINNED

    def test_identity_process_is_none(self):
        seq = np.random.SeedSequence(0)
        assert make_availability_process("exponential", 3, seq, None, None) is None

    @pytest.mark.parametrize("spec", ["exponential", "diurnal", "cells:2", "handoff"])
    def test_query_order_does_not_change_streams(self, spec):
        a = windowed(spec, 3, 1, 1.0, 0.5)
        b = windowed(spec, 3, 1, 1.0, 0.5)
        a.toggles(2, 10.0)  # touch clients in a different order
        for c in range(3):
            assert first_toggles(a, c, 8) == first_toggles(b, c, 8)


class TestWindowedPins:
    """The first six toggles of each windowed kind as the separate
    per-kind classes drew them (seed 7, up 10 s / down 5 s): folding
    them into one renewal class changed no draw."""

    DIURNAL = {
        0: [1.332254212355, 13.139148612171, 14.269775440061,
            22.489065036643, 22.564831291214, 24.253868868122],
        1: [0.892473822154, 9.864444067189, 12.751601181811,
            16.813967065235, 24.354416878419, 33.588600468254],
        2: [10.502237826864, 10.924439815455, 16.936299393054,
            17.057031733255, 29.138534154728, 31.769349672188],
    }
    #: 5 clients over 4 cells: clients 0 and 1 share cell 0's stream,
    #: and the four cell streams are the first four exponential ones
    CELLS = {
        0: TestExponentialRenewal.PINNED[0],
        1: TestExponentialRenewal.PINNED[0],
        2: TestExponentialRenewal.PINNED[1],
        3: TestExponentialRenewal.PINNED[2],
        4: [5.956329024678, 6.786578349644, 19.62624393461,
            23.575473469669, 38.394435368707, 43.227859094305],
    }
    HANDOFF = {
        0: [1.332254212355, 6.332254212355, 13.618045976401,
            18.618045976401, 20.327713380034, 25.327713380034],
        1: [0.892473822154, 5.892473822154, 28.59393406002,
            33.59393406002, 37.906241564411, 42.906241564411],
        2: [10.502237826864, 15.502237826864, 17.022148291764,
            22.022148291764, 27.082103756738, 32.082103756738],
        3: [5.956329024678, 10.956329024678, 12.61682767461,
            17.61682767461, 30.456493259576, 35.456493259576],
    }

    def test_diurnal(self):
        assert pinned_streams("diurnal:2.0:0.8", 3) == self.DIURNAL

    def test_cells(self):
        assert pinned_streams("cells:4", 5) == self.CELLS

    def test_handoff(self):
        assert pinned_streams("handoff", 4) == self.HANDOFF


class TestDiurnalRenewal:
    def test_phase_multiplier_extremes(self):
        p = windowed("diurnal:4.0:0.8", 1, 0, 1.0, 0.5)
        assert p.phase_multiplier(1.0) == pytest.approx(1.8)   # peak
        assert p.phase_multiplier(3.0) == pytest.approx(0.2)   # trough
        assert p.phase_multiplier(0.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("spec", ["exponential", "cells", "handoff"])
    def test_other_kinds_ride_no_wave(self, spec):
        p = windowed(spec, 1, 0, 1.0, 0.5)
        assert [p.phase_multiplier(t) for t in (0.0, 0.5, 1.0, 3.0)] == [1.0] * 4

    def test_zero_amplitude_is_exponential(self):
        flat = windowed("diurnal:2.0:0", 2, 3, 1.0, 0.5)
        expo = windowed("exponential", 2, 3, 1.0, 0.5)
        for c in range(2):
            assert first_toggles(flat, c, 10) == first_toggles(expo, c, 10)

    def test_deterministic_for_seed(self):
        mk = lambda: windowed("diurnal:2.0:0.8", 2, 9, 0.3, 0.1)
        assert first_toggles(mk(), 0, 12) == first_toggles(mk(), 0, 12)

    def test_modulation_shifts_window_means(self):
        # Pin the phase: up-windows drawn at peak should, on average,
        # be ~(1+amp)/(1-amp) times those drawn at the trough.
        rng = np.random.default_rng(0)
        p = windowed("diurnal:4.0:0.8", 1, 0, 1.0, 0.5)
        peak = [p._window_s(rng, True, 1.0) for _ in range(2000)]
        trough = [p._window_s(rng, True, 3.0) for _ in range(2000)]
        assert np.mean(peak) / np.mean(trough) == pytest.approx(9.0, rel=0.25)


class TestCellCorrelated:
    def test_cell_mapping_is_contiguous(self):
        p = windowed("cells:4", 12, 0, 1.0, 0.5)
        assert p.stream_of == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]

    def test_cell_count_clamped_to_fleet(self):
        p = windowed("cells:8", 3, 0, 1.0, 0.5)
        assert p.stream_of == [0, 1, 2]

    @pytest.mark.parametrize("spec", ["exponential", "diurnal", "handoff"])
    def test_other_kinds_give_every_client_its_own_stream(self, spec):
        assert windowed(spec, 5, 0, 1.0, 0.5).stream_of == [0, 1, 2, 3, 4]

    def test_same_cell_shares_stream_cross_cell_differs(self):
        p = windowed("cells:2", 6, 5, 1.0, 0.5)
        assert p.toggles(0, 5.0) is p.toggles(2, 5.0)  # cell 0
        assert p.toggles(3, 5.0) is p.toggles(5, 5.0)  # cell 1
        assert first_toggles(p, 0, 6) != first_toggles(p, 3, 6)

    def test_whole_cell_goes_dark_together(self):
        dyn = ClientDynamics(
            DynamicsConfig(
                churn_uptime_s=0.5, churn_downtime_s=0.2,
                availability="cells:2", seed=11,
            ),
            num_clients=6,
        )
        for t in np.linspace(0.0, 5.0, 50):
            states = [dyn.available_at(c, float(t)) for c in range(6)]
            assert len(set(states[:3])) == 1
            assert len(set(states[3:])) == 1


class TestHandoffRenewal:
    def test_down_gap_is_constant(self):
        p = windowed("handoff", 2, 4, 1.0, 0.25)
        for c in range(2):
            stream = first_toggles(p, c, 10)
            # entry 2k ends an up window, entry 2k+1 ends the following
            # down window: every (2k, 2k+1) gap is exactly the blackout
            gaps = [stream[i + 1] - stream[i] for i in range(0, 10, 2)]
            assert gaps == pytest.approx([0.25] * 5)

    def test_down_windows_consume_no_randomness(self):
        """Every up-window is the stream's next draw: the blackouts
        between them took none."""
        p = windowed("handoff", 2, 4, 1.0, 0.25)
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(4).spawn(2)]
        for c in range(2):
            stream = [0.0] + first_toggles(p, c, 10)
            ups = [stream[i + 1] - stream[i] for i in range(0, 10, 2)]
            assert ups == pytest.approx([rngs[c].exponential(1.0) for _ in range(5)])
        before = rngs[0].bit_generator.state
        assert p._window_s(rngs[0], False, 3.0) == 0.25
        assert rngs[0].bit_generator.state == before


class TestTraceReplay:
    def _write(self, tmp_path, rows):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        return str(path)

    def test_streams_load_and_stay_finite(self, tmp_path):
        path = self._write(tmp_path, [
            # repro: disable=TRC001 (minimal fixture row; the replay parser must tolerate partial meta)
            {"type": "meta"},
            {"type": "availability", "client": 0, "toggles": [1.0, 2.0]},
            {"type": "availability", "client": 2, "toggles": [0.5]},
        ])
        p = TraceReplay(path, 3)
        assert p.toggles(0, 100.0) == [1.0, 2.0]
        assert p.toggles(1, 100.0) == []  # unrecorded client: always up
        assert p.toggles(2, 100.0) == [0.5]

    def test_replay_drives_available_at(self, tmp_path):
        path = self._write(tmp_path, [
            {"type": "availability", "client": 0, "toggles": [1.0, 2.0]},
        ])
        dyn = ClientDynamics(
            DynamicsConfig(availability=f"trace:{path}"), num_clients=1
        )
        assert dyn.config.has_churn
        assert dyn.available_at(0, 0.5)
        assert not dyn.available_at(0, 1.0)   # toggle AT t counts as flipped
        assert not dyn.available_at(0, 1.5)
        assert dyn.available_at(0, 2.0)
        assert dyn.available_at(0, 99.0)      # frozen in final state
        assert dyn.up_deadline(0, 3.0) is None

    def test_trace_ending_down_never_recovers(self, tmp_path):
        path = self._write(tmp_path, [
            {"type": "availability", "client": 0, "toggles": [1.0]},
        ])
        dyn = ClientDynamics(
            DynamicsConfig(availability=f"trace:{path}"), num_clients=1
        )
        assert not dyn.available_at(0, 2.0)
        assert dyn.next_recovery_s(2.0) is None

    def test_client_out_of_range_rejected(self, tmp_path):
        path = self._write(tmp_path, [
            {"type": "availability", "client": 5, "toggles": [1.0]},
        ])
        with pytest.raises(ValueError, match="outside fleet"):
            TraceReplay(path, 3)

    def test_non_increasing_toggles_rejected(self, tmp_path):
        path = self._write(tmp_path, [
            {"type": "availability", "client": 0, "toggles": [2.0, 1.0]},
        ])
        with pytest.raises(ValueError, match="strictly increasing"):
            TraceReplay(path, 1)

    def test_non_positive_toggle_rejected(self, tmp_path):
        path = self._write(tmp_path, [
            {"type": "availability", "client": 0, "toggles": [0.0, 1.0]},
        ])
        with pytest.raises(ValueError, match="positive"):
            TraceReplay(path, 1)

    @pytest.mark.parametrize("toggles", ["[1.0, NaN]", "[1.0, Infinity]", "[NaN]"])
    def test_non_finite_toggle_rejected_with_location(self, tmp_path, toggles):
        """``json`` parses ``NaN`` / ``Infinity``; neither is a toggle time."""
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"type": "meta"}\n'
            f'{{"type": "availability", "client": 0, "toggles": {toggles}}}\n'
        )
        with pytest.raises(ValueError, match=r"trace\.jsonl:2: toggles must be finite"):
            TraceReplay(str(path), 1)

    @pytest.mark.parametrize("toggles", [[1.0, "soon"], [None], 3.0])
    def test_non_numeric_toggle_rejected_with_location(self, tmp_path, toggles):
        path = self._write(tmp_path, [
            {"type": "availability", "client": 0, "toggles": toggles},
        ])
        with pytest.raises(ValueError, match=r"trace\.jsonl:1: toggles must be numbers"):
            TraceReplay(path, 1)

    def test_missing_file_rejected(self):
        with pytest.raises(ValueError, match="cannot read"):
            TraceReplay("/nonexistent/trace.jsonl", 1)

    def test_non_jsonl_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="not JSONL"):
            TraceReplay(str(path), 1)
