import math
import random
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from conftest import long_capture, noise_study, traced_peak
from pathfuse import (
    CadPath,
    Frame,
    FusedPath,
    ParseError,
    PoseSeries,
    TrackerErrorModel,
    ValidationError,
    filter_outliers,
    format_demo_csv,
    fuse,
    parse_demo,
    synth_demo,
)
from pathfuse import _read, demo, fusion
from pathfuse.cad import arc_fraction, arc_lengths
from pathfuse.demo import _wrap_angle as wrap_angle

HEADER = "t_s,x_mm,y_mm,z_mm,az_deg,el_deg,roll_deg"


def make_series(n=50, seed=0, spread=200.0):
    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.uniform(0.004, 0.006, n))
    pos = np.cumsum(rng.uniform(-1, 1, (n, 3)), axis=0) * spread / n
    orient = rng.uniform(-math.pi / 2, math.pi / 2, (n, 3))
    return PoseSeries(t, pos, orient)


class TestSeriesType:
    def test_requires_two_samples(self):
        with pytest.raises(ValidationError):
            PoseSeries(np.array([0.0]), np.zeros((1, 3)), np.zeros((1, 3)))

    def test_requires_strictly_increasing_time(self):
        with pytest.raises(ValidationError, match="increase"):
            PoseSeries(np.array([0.0, 1.0, 1.0]), np.zeros((3, 3)), np.zeros((3, 3)))

    def test_requires_matching_shapes(self):
        with pytest.raises(ValidationError, match="shape"):
            PoseSeries(np.array([0.0, 1.0]), np.zeros((3, 3)), np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        pos = np.zeros((2, 3))
        pos[1, 1] = math.inf
        with pytest.raises(ValidationError):
            PoseSeries(np.array([0.0, 1.0]), pos, np.zeros((2, 3)))

    def test_arrays_read_only(self):
        s = make_series()
        with pytest.raises(ValueError):
            s.positions[0, 0] = 1.0


class TestCsv:
    def test_round_trip_accuracy(self):
        s = make_series(n=40, seed=3)
        back = parse_demo(format_demo_csv(s))
        assert np.max(np.abs(back.t - s.t)) <= 5e-10
        assert np.max(np.abs(back.positions - s.positions)) <= 5e-10
        assert np.max(np.abs(back.orientations - s.orientations)) <= 5e-10

    def test_parses_degrees(self):
        text = f"{HEADER}\n0.0,1.0,2.0,3.0,90.0,0.0,-45.0\n0.5,2.0,2.0,3.0,90.0,0.0,-45.0\n"
        s = parse_demo(text)
        assert math.isclose(s.orientations[0, 0], math.pi / 2)
        assert math.isclose(s.orientations[0, 2], -math.pi / 4)

    def test_accepts_crlf_bom_and_blank_lines(self):
        text = "﻿" + HEADER + "\r\n0,0,0,0,0,0,0\r\n\r\n1,1,0,0,0,0,0\r\n"
        s = parse_demo(text.encode("utf-8"))
        assert len(s) == 2

    def test_bad_header_reports_line_one(self):
        with pytest.raises(ParseError, match="header") as exc:
            parse_demo("t,x\n")
        assert exc.value.line == 1

    def test_bad_field_count_reports_physical_line(self):
        text = f"{HEADER}\n0,0,0,0,0,0,0\n\n1,2,3\n"
        with pytest.raises(ParseError, match="7 fields") as exc:
            parse_demo(text)
        assert exc.value.line == 4

    def test_bad_number(self):
        with pytest.raises(ParseError, match="bad number") as exc:
            parse_demo(f"{HEADER}\n0,0,zero,0,0,0,0\n")
        assert exc.value.line == 2

    def test_non_finite_rejected(self):
        with pytest.raises(ParseError, match="non-finite"):
            parse_demo(f"{HEADER}\n0,0,inf,0,0,0,0\n1,0,0,0,0,0,0\n")

    def test_non_monotonic_time(self):
        text = f"{HEADER}\n0,0,0,0,0,0,0\n1,1,0,0,0,0,0\n0.5,2,0,0,0,0,0\n"
        with pytest.raises(ValidationError, match="line 4"):
            parse_demo(text)

    def test_too_short(self):
        with pytest.raises(ValidationError, match="2 samples"):
            parse_demo(f"{HEADER}\n0,0,0,0,0,0,0\n")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_demo("")

    def test_not_utf8(self):
        with pytest.raises(ParseError, match="UTF-8"):
            parse_demo(b"\xff\xfe\x00bad")

    @pytest.mark.parametrize("boms", [1, 2])
    def test_str_and_bytes_strip_the_same_boms(self, boms):
        # one BOM is stripped from either input type; a second is part of the header line
        text = "\ufeff" * boms + f"{HEADER}\n0,0,0,0,0,0,0\n1,1,0,0,0,0,0\n"
        got = [outcome(parse_demo, data) for data in (text, text.encode())]
        assert got[0] == got[1]
        assert (got[0][0] == "ParseError") == (boms == 2)


# Text the mutations insert: line breaks that splitlines honours (float()
# strips several of them as whitespace), blank and whitespace-only lines, a
# BOM, number syntax float() accepts or rejects, and a comma.
INSERTS = ["\r", "\n", "\x85", "\u2028", "\x1c", "\v", "\f", "\t", " ", "\n\n", "\n  \t\n",
           "\ufeff", "1_0", "_", "\u0661\u0662", "nan", "1e400", "e5", ","]


def mutate_capture(rows, rng):
    """One or two seeded edits of a capture's rows, returned as CSV text."""
    rows = [list(r) for r in rows]
    for _ in range(rng.randint(1, 2)):
        op = rng.randrange(6)  # 3 to 5 leave the rows as they are
        r = rng.randrange(len(rows))
        if op == 0:  # a repeated or a decreasing timestamp
            rows[r][0] = rows[r - 1][0] if rng.random() < 0.5 else rows[r][0] - 1.0
        elif op == 1:  # a single data row
            rows = rows[r : r + 1]
        elif op == 2:  # replace a whole field
            rows[r][rng.randrange(7)] = rng.choice(["1_0", "\u0661\u0662", " 3 ", "nan", "1e400", "-0"])
    text = f"{HEADER}\n" + "".join(",".join(map(str, r)) + "\n" for r in rows)
    for _ in range(rng.randint(0, 2)):
        op = rng.randrange(4)
        if op == 0:  # delete one character
            k = rng.randrange(len(text))
            text = text[:k] + text[k + 1 :]
        elif op == 1:  # drop one comma
            k = rng.choice([i for i, c in enumerate(text) if c == ","])
            text = text[:k] + text[k + 1 :]
        else:  # insert anywhere, or at the end of a field where float() ignores whitespace
            ends = [i for i, c in enumerate(text) if c in ",\n"]
            k = rng.randrange(len(text) + 1) if op == 2 else rng.choice(ends)
            text = text[:k] + rng.choice(INSERTS) + text[k:]
    return text.encode() if rng.random() < 0.5 else text


def read_by_lines(data):
    """parse_demo with every row read by ``csv_row``, as it reads each input the gate declines."""
    with mock.patch.object(_read, "plain_rows", lambda *args: None):
        return parse_demo(data)


def outcome(parse, data):
    try:
        s = parse(data)
    except (ParseError, ValidationError) as e:
        return type(e).__name__, str(e), getattr(e, "line", None)
    return s.t.tobytes(), s.positions.tobytes(), s.orientations.tobytes()


def mutated_captures(cases=600, seed=5):
    s = make_series(n=8, seed=1)
    rows = np.column_stack([s.t, s.positions, np.degrees(s.orientations)]).tolist()
    rng = random.Random(seed)
    return [mutate_capture(rows, rng) for _ in range(cases)]


def is_plain(data):
    """Whether parse_demo reads the rows of ``data`` through the plain-number gate."""
    read = []
    gate = _read.plain_rows
    with mock.patch.object(_read, "plain_rows", lambda *args: read.append(gate(*args)) or read[-1]):
        try:
            parse_demo(data)
        except (ParseError, ValidationError):
            pass
    return bool(read) and read[0] is not None


class TestArrayReader:
    def test_matches_the_line_reader_on_mutated_captures(self):
        cases = mutated_captures()
        mismatches = [d for d in cases if outcome(parse_demo, d) != outcome(read_by_lines, d)]
        assert mismatches == []
        assert sum(map(is_plain, cases)) >= 40
        kinds = {outcome(read_by_lines, d)[0] for d in cases}
        assert {"ParseError", "ValidationError"} <= kinds

    def test_a_gate_that_admits_vertical_breaks_is_caught(self, monkeypatch):
        # splitlines() breaks lines at \v, \f and \x1c, while loadtxt strips them from
        # the ends of a field: a row split in two would be read as one.
        monkeypatch.setattr(_read, "_NUMBER_BYTES", _read._NUMBER_BYTES + b"\v\f\x1c")
        cases = mutated_captures()
        assert any(outcome(parse_demo, d) != outcome(read_by_lines, d) for d in cases)

    def test_blank_lines_keep_the_array_path(self):
        plain = format_demo_csv(make_series(n=30, seed=6)).decode()
        lines = plain.splitlines()
        gappy = "\n".join(lines[:5] + ["", "  \t"] + lines[5:20] + [""] + lines[20:]) + "\n\n \n"
        assert is_plain(gappy)
        assert outcome(parse_demo, gappy) == outcome(parse_demo, plain) == outcome(read_by_lines, gappy)

    def test_reads_a_long_capture(self):
        data = format_demo_csv(make_series(n=20_005, seed=4))
        assert is_plain(data)
        assert outcome(parse_demo, data) == outcome(read_by_lines, data)

    def test_crlf_str_and_bom_inputs_keep_the_array_path(self):
        plain = format_demo_csv(make_series(n=30, seed=7)).decode()
        crlf = plain.replace("\n", "\r\n")
        for data in (crlf, crlf.encode(), "\ufeff" + plain, b"\xef\xbb\xbf" + plain.encode()):
            assert is_plain(data)
            assert outcome(parse_demo, data) == outcome(read_by_lines, data) == outcome(parse_demo, plain)

    @pytest.mark.parametrize(
        "text, plain",
        [
            ("\ufeff{h}\n{rows}\n", True),  # a BOM
            ("{h}\r\n{rows}\n", True),  # a CRLF header
            ("{h}\n{rows}", True),  # no newline after the last row
            ("{h}", False),  # a header with no newline
            ("\ufeff{h}\r", False),
            ("{h}\n", False),  # a header only
            ("{h}\n\n{rows}\n\n \t\n", True),  # blank and whitespace-only lines
            ("t_s,x_mm,y_mm,z_mm,az_deg,\u00e9l_deg,roll_deg\n{rows}\n", False),  # a non-ASCII header
        ],
    )
    def test_header_edges_keep_their_path_and_outcome(self, text, plain):
        text = text.format(h=HEADER, rows="0,1,2,3,10,20,30\n0.5,1,2,3,10,20,30\n1,4,5,6,1,2,3")
        for data in (text, text.encode()):
            assert is_plain(data) == plain
            assert outcome(parse_demo, data) == outcome(read_by_lines, data)

    @pytest.mark.parametrize("body", ["", "\n", "0,0,0,0,0,0,0\n"])
    def test_short_bodies_raise_as_before_without_warnings(self, body):
        for data in (f"{HEADER}\n{body}", f"{HEADER}\n{body}".encode()):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                # a one-row body reads through the gate, then fails the count
                assert is_plain(data) == (body == "0,0,0,0,0,0,0\n")
                with pytest.raises(ValidationError, match="at least 2 samples"):
                    parse_demo(data)

    @pytest.mark.parametrize(
        "rows, error, message",
        [
            # a time step that does not increase, above a bad row
            (["0", "0.5", "", "0.5", "1,1,2"], ValidationError,
             r"^timestamps must strictly increase \(line 5: 0\.5 after 0\.5\)$"),
            (["0", "1", "0.25", "0.5", "2,x"], ValidationError,
             r"^timestamps must strictly increase \(line 4: 0\.25 after 1\.0\)$"),
            # a bad row above such a step
            (["0", "1", "", "2,x", "0.5"], ParseError, r"^line 5: expected 7 fields, got 8$"),
            (["0", "1e999", "0"], ParseError, r"^line 3: non-finite value in row$"),
            # no bad row: the step alone, on the gate's path, blank lines counted
            (["0", "", " ", "1", "1"], ValidationError,
             r"^timestamps must strictly increase \(line 6: 1\.0 after 1\.0\)$"),
        ],
    )
    def test_the_first_fault_in_line_order_is_raised(self, rows, error, message):
        text = f"{HEADER}\n" + "".join(f"{r},1,2,3,10,20,30\n" if r.strip() else r + "\n" for r in rows)
        for data in (text, text.encode(), "\ufeff" + text.replace("\n", "\r\n")):
            with pytest.raises(error, match=message):
                parse_demo(data)


    def test_a_valid_capture_is_read_without_the_line_reader(self, monkeypatch):
        data = format_demo_csv(make_series(n=30, seed=8))
        want = outcome(parse_demo, data)
        monkeypatch.setattr(demo, "csv_lines", lambda *args: pytest.fail("csv_lines read a valid capture"))
        monkeypatch.setattr(demo, "csv_row", lambda *args: pytest.fail("csv_row read a valid capture"))
        for given in (data, data.decode("ascii")):
            assert outcome(parse_demo, given) == want

    @settings(deadline=None, max_examples=150)
    @given(
        st.lists(st.integers(1, 400), min_size=2, max_size=12),
        st.sampled_from(["back", "equal", "fields", "number", "non-finite"]),
        st.data(),
    )
    def test_one_injected_fault_raises_what_a_line_reader_raises(self, steps, fault, data):
        """Rows in strictly increasing time, blank lines between them, and one fault."""
        rows = [[sum(steps[: i + 1]) / 64, *(float(v) for v in range(6))] for i in range(len(steps))]
        fields = [[repr(v) for v in row] for row in rows]
        r = data.draw(st.integers(1 if fault in ("back", "equal") else 0, len(rows) - 1), label="row")
        if fault in ("back", "equal"):
            fields[r][0] = repr(rows[r - 1][0] - (1.0 if fault == "back" else 0.0))
        elif fault == "fields":
            fields[r] = fields[r][: data.draw(st.sampled_from([1, 5, 7]), label="width")] + ["0.5"]
        else:
            bad = ["x", "", "1..5", "--1"] if fault == "number" else ["inf", "-nan", "1e999"]
            fields[r][data.draw(st.integers(0, 6), label="field")] = data.draw(st.sampled_from(bad), label="bad")
        lines = [HEADER] + [",".join(f) for f in fields]
        for _ in range(data.draw(st.integers(0, 3), label="blank lines")):
            lines.insert(data.draw(st.integers(1, len(lines)), label="at"), data.draw(st.sampled_from(["", " \t"])))
        text = "\n".join(lines) + "\n"
        want = oracles.capture_fault(text)
        assert want is not None
        for given in (text, text.encode()):
            assert outcome(parse_demo, given)[:2] == want


class TestFormat:
    def test_bytes_match_per_row_formatting(self):
        rng = np.random.default_rng(8)
        n = 300
        t = np.cumsum(rng.uniform(1e-3, 5.0, n)) + np.where(np.arange(n) > n // 2, 2e6, 0.0)
        vals = rng.choice([-0.0, 0.0, 1e-12, -1e-12, 4.9999999995e-10, 1e6, -3.5e7, 123456.75], (n, 6))
        vals = np.where(rng.random((n, 6)) < 0.5, vals, rng.normal(0.0, 500.0, (n, 6)))
        s = PoseSeries(t, vals[:, :3], vals[:, 3:])
        assert format_demo_csv(s) == oracles.demo_csv(s.t, s.positions, s.orientations)

    @pytest.mark.parametrize("angle", [1e307, -1e307])
    def test_an_angle_beyond_the_float_range_in_degrees_is_refused(self, angle):
        s = make_series(n=5)
        orient = s.orientations.copy()
        orient[3, 1] = angle
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="beyond the float range"):
                format_demo_csv(PoseSeries(s.t, s.positions, orient))


class TestFilter:
    def _spiked(self, n=200, spikes=(30, 90, 150)):
        t = np.arange(n) * 0.01
        x = 10.0 * np.sin(t)  # smooth, slow
        clean = np.column_stack([x, np.zeros(n), np.zeros(n)])
        pos = clean.copy()
        for i in spikes:
            pos[i, 0] += 100.0
        return PoseSeries(t, pos, np.zeros((n, 3))), clean, spikes

    def test_spikes_replaced_clean_untouched(self):
        s, clean, spikes = self._spiked()
        f = filter_outliers(s, window=11, k=3.0)
        for i in spikes:
            assert abs(f.positions[i, 0] - clean[i, 0]) < 1.0
        mask = np.ones(len(s), dtype=bool)
        mask[list(spikes)] = False
        # unflagged samples are bit-identical
        assert np.array_equal(f.positions[mask], s.positions[mask])
        assert np.array_equal(f.orientations, s.orientations)
        assert np.array_equal(f.t, s.t)

    def test_idempotent_on_spiked_data(self):
        s, _, _ = self._spiked()
        once = filter_outliers(s)
        twice = filter_outliers(once)
        assert np.array_equal(once.positions, twice.positions)
        assert np.array_equal(once.orientations, twice.orientations)

    def test_long_capture_holds_no_full_length_work_array(self):
        # tracemalloc peaks in (6, n) float arrays of a 28,011-sample capture,
        # measured with Python 3.11 and numpy 2.4: 2.8 with the flags set in
        # each Hampel pass and the medians freed before the series copies its
        # arrays, 5.7 with the MAD, |x - median| and the threshold built as
        # full-length arrays after the passes
        demo, _ = long_capture()
        filter_outliers(demo)  # builds the sorting network a first call builds
        peak, _ = traced_peak(lambda: filter_outliers(demo))
        assert peak < 4.0 * demo.positions.nbytes * 2

    def test_constant_series_unchanged(self):
        n = 30
        s = PoseSeries(np.arange(n) * 0.1, np.ones((n, 3)) * 7.0, np.ones((n, 3)) * 0.5)
        f = filter_outliers(s, window=5)
        assert np.array_equal(f.positions, s.positions)
        assert np.array_equal(f.orientations, s.orientations)

    def test_edge_spike_caught(self):
        n = 40
        pos = np.full((n, 3), 5.0)
        pos[0, 2] += 200.0
        s = PoseSeries(np.arange(n) * 0.1, pos, np.zeros((n, 3)))
        f = filter_outliers(s, window=11)
        assert f.positions[0, 2] == 5.0

    def test_angle_wraparound_not_flagged(self):
        # stream jitters across the +/-pi seam; numerically huge jumps,
        # geometrically tiny ones
        n = 60
        rng = np.random.default_rng(2)
        base = math.pi - 0.01 + rng.normal(0.0, 0.003, n)
        wrapped = np.where(base > math.pi, base - 2 * math.pi, base)
        orient = np.column_stack([wrapped, np.zeros(n), np.zeros(n)])
        s = PoseSeries(np.arange(n) * 0.1, np.zeros((n, 3)), orient)
        f = filter_outliers(s, window=11, k=3.0)
        assert np.array_equal(f.orientations, s.orientations)

    def test_angle_spike_replacement_is_wrapped(self):
        n = 41
        az = np.full(n, math.pi - 0.05)
        az[20] = 0.3  # far from the cluster
        s = PoseSeries(np.arange(n) * 0.1, np.zeros((n, 3)), np.column_stack([az, np.zeros(n), np.zeros(n)]))
        f = filter_outliers(s, window=11)
        got = f.orientations[20, 0]
        assert -math.pi < got <= math.pi
        assert abs(got - (math.pi - 0.05)) < 1e-9

    def test_matches_a_per_channel_oracle(self):
        # 2 % position spikes, and yaw that hovers around +/-pi with a few angle spikes
        n = 400
        truth = FusedPath(np.array([[0.0, 0.0, 0.0], [400.0, 0.0, 0.0]]), np.array([[0.0, 0.0, math.pi]] * 2),
                          np.full(2, 100.0), Frame.S)
        s = synth_demo(truth, TrackerErrorModel(spike_rate=0.02, orient_noise_sigma=2.0, seed=9), 100.0)
        orient = s.orientations.copy()
        orient[np.random.default_rng(9).integers(0, n, (8, 3)), np.arange(3)] += 1.0
        s = PoseSeries(s.t, s.positions, wrap_angle(orient))
        assert len(s) == n + 1 and np.any(s.orientations[:, 0] > 3.1) and np.any(s.orientations[:, 0] < -3.1)

        pos, orient = s.positions.copy(), s.orientations.copy()
        for c in range(3):
            med, flags = oracles.hampel(s.positions[:, c], 11, 3.0)
            pos[flags, c] = med[flags]
            med, flags = oracles.hampel(np.unwrap(s.orientations[:, c]), 11, 3.0)
            orient[flags, c] = wrap_angle(med[flags])
        f = filter_outliers(s)
        assert f.positions.tobytes() == pos.tobytes() and f.orientations.tobytes() == orient.tobytes()
        assert np.sum(f.positions != s.positions) >= 6 and np.sum(f.orientations != s.orientations) >= 8

    @pytest.mark.parametrize("window", [3, 11, 101])
    def test_angles_filtered_on_read_samples_are_filter_outliers_angles(self, monkeypatch, window):
        n, rng = 400, np.random.default_rng(window)
        turns = np.linspace(0.0, 6 * math.pi, n)[:, None] + rng.normal(0.0, 0.05, (n, 3))
        turns[rng.random((n, 3)) < 0.05] += 1.5
        s = PoseSeries(np.arange(n) / 100.0, np.zeros((n, 3)), wrap_angle(turns))
        want = filter_outliers(s, window).orientations
        sizes, hampel = [], demo._hampel
        monkeypatch.setattr(demo, "_hampel", lambda x, *args: sizes.append(x.shape[1]) or hampel(x, *args))
        h = window // 2
        cases = [np.array([0]), np.array([n - 1]), np.array([n // 2]), np.array([h + 1, n - h - 2]),
                 *(np.flatnonzero(rng.random(n) < p) for p in (0.01, 0.1, 0.5)), slice(None)]
        for read in cases:
            got = demo._filtered(s.orientations, window, 3.0, read, angles=True)
            assert got.tobytes() == want[read].tobytes()
        # a gather shorter than the window filters the whole series; one sample away from
        # the ends, a run's context holds exactly one window
        assert sizes[:4] == [n, n, window, 2 * window]

    def test_window_validation(self):
        s = make_series(n=20)
        with pytest.raises(ValueError):
            filter_outliers(s, window=4)
        with pytest.raises(ValueError):
            filter_outliers(s, window=1)
        with pytest.raises(ValueError, match="exceeds"):
            filter_outliers(s, window=21)
        with pytest.raises(ValueError):
            filter_outliers(s, k=0.0)
        # a window that is not an integer is refused, not truncated; numpy integers pass
        for window, shown in ((5.9, "5.9"), ("11", "'11'"), (np.float64(11.0), "11.0")):
            with pytest.raises(ValueError, match=f"odd integer >= 3, got .*{shown}"):
                filter_outliers(s, window=window)
        assert filter_outliers(s, window=np.int64(5)).positions.tobytes() == filter_outliers(s, 5).positions.tobytes()
        # a bool is refused for either argument, though operator.index(True) is 1
        for flag in (True, np.True_):
            with pytest.raises(ValueError, match=re.escape(f"window must be an odd integer >= 3, got {flag!r}")):
                filter_outliers(s, window=flag)
            with pytest.raises(ValueError, match=re.escape(f"k must be a number, got {flag!r}")):
                filter_outliers(s, k=flag)

    def test_window_past_the_bound_is_refused(self, monkeypatch):
        widest = demo.MAX_FILTER_WINDOW
        s = make_series(n=widest + 2)
        pos = s.positions.copy()
        pos[50, 0] += 1000.0
        s = PoseSeries(s.t, pos, s.orientations)
        assert filter_outliers(s, window=widest).positions[50, 0] < pos[50, 0] - 900.0
        monkeypatch.setattr(demo, "_hampel", None)  # refused before anything is sorted
        with pytest.raises(ValueError, match=f"window must be at most {widest}, got {widest + 2}"):
            filter_outliers(s, window=widest + 2)
        with pytest.raises(ValueError, match=f"window must be at most {widest}, got 20001"):
            filter_outliers(s, window=20001)  # longer than the series too

    def test_unwrap_matches_np_unwrap_on_exact_steps(self):
        pi = math.pi
        p = np.array([
            [0.0, pi, 0.0, -pi, 0.0, pi, 2 * pi, pi],  # steps of exactly +pi and -pi
            [-0.0, -0.0, 3.5 * pi, -0.0, -3.25 * pi, -0.0, 0.0, -0.0],  # -0.0 samples, steps over 3 pi
            [pi, -pi, np.nextafter(pi, 0), -pi, pi, -np.nextafter(pi, 0), 7.0, -7.0],
        ])
        for q in (p, p[:, :2], p[:, 3:5], -p):  # rows of length 2 too
            assert demo._unwrap(q).tobytes() == np.unwrap(q).tobytes()
        zeros = demo._unwrap(np.full((3, 4), -0.0))  # the first sample keeps its sign, the rest get + 0.0
        assert np.signbit(zeros[:, 0]).all() and not np.signbit(zeros[:, 1:]).any()

    def test_unwrap_matches_np_unwrap_seeded(self):
        rng = np.random.default_rng(19)
        specials = np.array([0.0, -0.0, math.pi, -math.pi, 2 * math.pi, 3.1, -3.1, 1e300, -1e300, np.nan])
        for case in range(300):
            n = int(rng.integers(2, 80))
            p = rng.choice(specials, (3, n)) if case % 3 == 0 else rng.uniform(-4 * math.pi, 4 * math.pi, (3, n))
            if case % 3 == 1:  # a drifting angle, wrapped to [-pi, pi)
                p = np.mod(np.cumsum(rng.normal(0.0, 0.5, (3, n)), axis=1) + math.pi, 2 * math.pi) - math.pi
            with np.errstate(invalid="ignore"):
                assert demo._unwrap(p).tobytes() == np.unwrap(p).tobytes()

    @settings(deadline=None, max_examples=200)
    @given(hnp.arrays(np.float64, st.tuples(st.just(3), st.integers(2, 30)),
                      elements=st.floats(-20.0, 20.0) | st.sampled_from([math.pi, -math.pi, 2 * math.pi, -0.0])))
    def test_unwrap_matches_np_unwrap_hypothesis(self, p):
        assert demo._unwrap(p).tobytes() == np.unwrap(p).tobytes()


class TestHampel:
    @staticmethod
    def assert_matches_oracle(x, window, k=3.0):
        med, flags = demo._hampel(x[None], window, k)
        want_med, want_flags = oracles.hampel(x, window, k)
        assert med[0].tobytes() == want_med.tobytes()
        assert np.array_equal(flags[0], want_flags)

    @pytest.mark.parametrize("window", [3, 5, 7, 9, 11, 13, 15])
    def test_random_series(self, window):
        rng = np.random.default_rng(window)
        x = rng.normal(0.0, 1.0, 80)
        x[rng.integers(0, 80, 6)] += 40.0
        self.assert_matches_oracle(x, window)

    @pytest.mark.parametrize("window", [3, 7, 15])
    def test_series_as_long_as_the_window(self, window):
        self.assert_matches_oracle(np.random.default_rng(1).normal(0.0, 1.0, window), window)

    @pytest.mark.parametrize("window", [3, 5, 11])
    def test_heavy_ties_and_signed_zeros(self, window):
        rng = np.random.default_rng(window + 100)
        x = rng.choice([-0.0, 0.0, 1.0, -2.0], 120)
        self.assert_matches_oracle(x, window)
        self.assert_matches_oracle(x, window, k=0.5)

    @pytest.mark.parametrize("window", [21, 31, 101])
    def test_wide_windows(self, window):
        rng = np.random.default_rng(window)
        x = rng.normal(0.0, 1.0, 400)
        x[rng.integers(0, 400, 20)] += 40.0
        self.assert_matches_oracle(x, window)
        self.assert_matches_oracle(np.round(x), window)  # ties

    @pytest.mark.parametrize("window", [21, 51, 101])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_series_one_window_long_or_one_more(self, window, extra):
        self.assert_matches_oracle(np.random.default_rng(window + extra).normal(0.0, 1.0, window + extra), window)

    @pytest.mark.parametrize("window", [3, 5, 11])
    def test_huge_values_overflow_where_np_median_does(self, window):
        rng = np.random.default_rng(window + 200)
        x = rng.choice([1e308, -1e308, 1.5e308, 0.0, 1.0], 90)
        x[:window] = 1.5e308  # even-length edge windows: the mean of two 1.5e308 overflows
        x[-window:] = -1.5e308
        with np.errstate(over="ignore"):
            self.assert_matches_oracle(x, window)
            med = demo._hampel(x[None], window, 3.0)[0][0]
        assert med[0] == (math.inf if window % 4 == 3 else 1.5e308) and med[-1] == -med[0]

    @pytest.mark.parametrize("window", [3, 5, 7])
    def test_subnormals(self, window):
        rng = np.random.default_rng(window + 300)
        x = rng.choice([5e-324, -5e-324, 1e-323, -1e-323, 0.0, -0.0], 120)
        self.assert_matches_oracle(x, window)
        # at window 3 the first edge window is [-5e-324, 0.0], whose np.median underflows to -0.0
        x[:window] = np.r_[-5e-324, np.zeros(window - 1)]
        self.assert_matches_oracle(x, window)
        assert np.signbit(demo._hampel(x[None], 3, 3.0)[0][0, 0])

    def test_seeded_sweep(self):
        rng = np.random.default_rng(2024)
        specials = np.array([0.0, -0.0, 1.0, -1.0, 2.5, 5e-324, -5e-324, 1e308, -1e308])
        for case in range(600):
            window = int(rng.choice(np.arange(3, 52, 2)))
            n = int(rng.integers(window, 201))
            kind = case % 3
            if kind == 0:
                x = rng.normal(0.0, 1.0, n)
                x[rng.random(n) < 0.05] += 40.0
            elif kind == 1:
                x = np.round(rng.normal(0.0, 2.0, n))
            else:
                x = rng.choice(specials, n)
            with np.errstate(over="ignore"):
                self.assert_matches_oracle(x, window)

    def test_constant_windows_flag_nothing(self):
        x = np.concatenate([np.full(20, 3.25), np.full(20, -0.0)])
        med, flags = (a[0] for a in demo._hampel(x[None], 5, 3.0))
        self.assert_matches_oracle(x, 5)
        assert not flags[:17].any() and not flags[-17:].any()
        assert np.all(med[:17] == 3.25)

    @staticmethod
    def assert_rows_match_oracle(x, window, k=3.0):
        med, flags = demo._hampel(x, window, k)
        assert med.shape == flags.shape == x.shape
        for row, got_med, got_flags in zip(x, med, flags):
            want_med, want_flags = oracles.hampel(row, window, k)
            assert got_med.tobytes() == want_med.tobytes()
            assert np.array_equal(got_flags, want_flags)

    @staticmethod
    def mixed_rows(n, seed):
        """Rows of very different scales: spiked normal, rounded ties, signed zeros, subnormals, +-1e308."""
        rng = np.random.default_rng(seed)
        spiked = rng.normal(0.0, 1.0, n)
        spiked[rng.random(n) < 0.05] += 40.0
        return np.stack([
            spiked,
            np.round(rng.normal(0.0, 2.0, n)),
            rng.choice([-0.0, 0.0, 1.0, -2.0], n),
            rng.choice([5e-324, -5e-324, 1e-323, -1e-323, 0.0, -0.0], n),
            rng.choice([1e308, -1e308, 1.5e308, 0.0, 1.0], n),
            1e-9 * rng.normal(0.0, 1.0, n),
        ])

    @pytest.mark.parametrize("window", [3, 5, 11, 21])
    def test_rows_of_different_scales_in_one_call(self, window):
        with np.errstate(over="ignore"):
            self.assert_rows_match_oracle(self.mixed_rows(150, window), window)

    @pytest.mark.parametrize("window", [3, 5, 7, 11, 21, 51, 101])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_rows_one_window_long_or_one_more(self, window, extra):
        with np.errstate(over="ignore"):
            self.assert_rows_match_oracle(self.mixed_rows(window + extra, window + extra), window)

    @pytest.mark.parametrize("pass_windows", [1, 5, 64, 100])
    @pytest.mark.parametrize("window", [3, 5, 11])
    def test_pass_boundaries_inside_rows(self, monkeypatch, pass_windows, window):
        monkeypatch.setattr(demo, "_PASS_WINDOWS", pass_windows)
        with np.errstate(over="ignore"):
            self.assert_rows_match_oracle(self.mixed_rows(47, pass_windows + window), window)

    def test_more_windows_than_one_pass(self):
        # several passes at the real size, the last one partial
        window, c = 11, 3
        block = demo._PASS_WINDOWS // c
        n = 2 * block + block // 3 + window - 1
        assert c * (n - window + 1) > demo._PASS_WINDOWS and (n - window + 1) % block
        rng = np.random.default_rng(14)
        x = rng.normal(0.0, 1.0, (c, n))
        x[rng.random((c, n)) < 0.02] += 40.0
        x[1] = np.round(x[1])
        self.assert_rows_match_oracle(x, window)

    @pytest.mark.parametrize("window", [5, 11])
    def test_rows_quiet_alone_are_quiet_together(self, window):
        # No row warns alone, but a window spanning the end of one row (0.8e308
        # then 1.5e308) and the start of the next (-1.5e308 then -0.8e308) would
        # overflow: its median is 0.8e308 away from its far end.
        n = 40
        up = np.full(n, 0.8e308)
        up[-1] = 1.5e308
        x = np.stack([up, -up[::-1], np.zeros(n), up])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for row in x:
                demo._hampel(row[None], window, 3.0)
            demo._hampel(x, window, 3.0)
        self.assert_rows_match_oracle(x, window)


class TestSortingNetwork:
    @staticmethod
    def sort(values):
        """Columns of a ``(window, m)`` array sorted by ``demo._network_sort``."""
        rows = list(np.vstack([values, np.empty((1, values.shape[1]))]))
        return np.stack(demo._network_sort(rows)[:-1])

    @pytest.mark.parametrize("window", range(3, 16, 2))
    def test_sorts_every_zero_one_input(self, window):
        # by the 0-1 principle, a network that sorts every 0/1 input sorts every input
        bits = ((np.arange(2**window) >> np.arange(window)[:, None]) & 1).astype(float)
        s = self.sort(bits)
        assert np.all(s[:-1] <= s[1:])
        assert np.array_equal(s.sum(axis=0), bits.sum(axis=0))

    def test_matches_np_sort_up_to_the_window_bound(self):
        rng = np.random.default_rng(1968)
        specials = np.array([0.0, -0.0, 1.0, -1.0, 1e308, -1e308, 5e-324])
        for window in range(3, demo.MAX_FILTER_WINDOW + 1, 2):
            values = np.round(rng.normal(0.0, 3.0, (window, 60)))  # ties
            values[:, ::3] = rng.choice(specials, (window, 20))
            # bit for bit once every zero is 0.0: a compare-exchange of -0.0 and 0.0
            # may give both outputs one sign, which _hampel's ``+ 0.0`` makes moot
            assert (self.sort(values) + 0.0).tobytes() == (np.sort(values, axis=0) + 0.0).tobytes(), window

    def test_network_sizes(self):
        assert [len(demo._sorting_network(w)[0]) for w in (3, 5, 11, 101)] == [3, 9, 38, 1121]


class TestSpeed:
    """``fuse`` takes speed from the slope of its windowed line fit of the positions."""

    def test_constant_velocity_exact(self):
        n = 20
        t = np.linspace(0.0, 1.9, n)
        pos = np.column_stack([30.0 * t, 40.0 * t, np.zeros(n)])  # speed 50
        cad = CadPath(np.array([[0.0, 0, 0], [20.0, 10.0, 0], [57.0, 76.0, 0]]))
        v = fuse(cad, PoseSeries(t, pos, np.zeros((n, 3)))).speeds
        assert np.max(np.abs(v - 50.0)) < 1e-9

    def test_quadratic_interior_exact_on_uniform_grid(self):
        # a line fit over a window symmetric about a sample has the slope of a
        # quadratic there.  The track is short enough (0.8 mm) that progress
        # is normalized time, which puts CAD point i exactly on sample i.
        n = 21
        t = np.linspace(1.0, 3.0, n)  # 0.1 s steps: 3-sample windows
        pos = np.column_stack([0.1 * t ** 2, np.zeros(n), np.zeros(n)])
        cad = CadPath(np.column_stack([50.0 * (t - 1.0), np.zeros(n), np.zeros(n)]))
        fused = fuse(cad, PoseSeries(t, pos, np.zeros((n, 3))))
        assert fused.time_parameterized
        v = fused.speeds
        assert np.max(np.abs(v[1:-1] - 0.2 * t[1:-1])) < 1e-9

    def test_two_samples(self):
        s = PoseSeries(np.array([0.0, 2.0]), np.array([[0, 0, 0], [6.0, 8.0, 0]]), np.zeros((2, 3)))
        v = fuse(CadPath(np.array([[0.0, 0, 0], [10.0, 0, 0]])), s).speeds
        assert np.allclose(v, [5.0, 5.0])


class TestWrap:
    @given(st.floats(-1e6, 1e6))
    def test_wrap_lands_in_half_open_interval(self, a):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        # same angle up to a full turn
        assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-6)
        assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-6)

    def test_boundary_convention(self):
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(-math.pi) == math.pi
        assert wrap_angle(0.0) == 0.0

    def test_array_input(self):
        w = wrap_angle(np.array([0.0, 3 * math.pi, -3 * math.pi]))
        assert np.allclose(w, [0.0, math.pi, math.pi])


class TestPathParameters:
    """``fuse``'s progress rule: arc length over total, or time under ``MIN_ARC_MM`` of travel."""

    def test_proportional_to_arc_length(self):
        pos = np.array([[0, 0, 0], [3.0, 0, 0], [3.0, 4.0, 0]])
        params, time_based = fusion._progress(pos, np.array([0.0, 1.0, 2.0]))
        assert not time_based
        assert params[0] == 0.0 and params[-1] == 1.0
        assert math.isclose(params[1], 3.0 / 7.0, rel_tol=1e-12)

    def test_matches_arc_fraction_or_time_around_the_threshold(self):
        # the progress is arc_fraction's, and the time fallback the same, on
        # travel just below, at and just above MIN_ARC_MM and far from it; the
        # travel compared is the last of the arc_lengths the progress divides
        rng = np.random.default_rng(30)
        by_time = 0
        for case in range(240):
            n = int(rng.integers(2, 60))
            t = np.cumsum(rng.uniform(0.001, 0.02, n))
            pos = np.cumsum(rng.normal(0.0, 1.0, (n, 3)), axis=0)
            travel = float(np.sum(np.linalg.norm(np.diff(pos, axis=0), axis=1)))
            pos *= [1.0 - 1e-12, 1.0, 1.0 + 1e-12, 0.5, 3.0, 1e3][case % 6] / travel
            params, time_based = fusion._progress(pos, t)
            cum = arc_lengths(pos)
            assert time_based == (cum[-1] < fusion.MIN_ARC_MM)
            want = (t - t[0]) / (t[-1] - t[0]) if time_based else arc_fraction(cum)
            assert params.tobytes() == want.tobytes()
            by_time += time_based
        assert 60 <= by_time <= 180

    def test_stationary_falls_back_to_time(self):
        pos = np.zeros((3, 3))
        params, time_based = fusion._progress(pos, np.array([0.0, 1.0, 4.0]))
        assert time_based
        assert params[0] == 0.0 and params[-1] == 1.0
        assert math.isclose(params[1], 0.25)


class TestSynth:
    def _truth(self, z=0.0):
        pos = np.array([[0.0, 0.0, z], [200.0, 0.0, z], [200.0, 150.0, z]])
        ang = np.zeros((3, 3))
        return FusedPath(pos, ang, np.array([50.0, 50.0, 50.0]), Frame.S)

    def test_timing_and_endpoints(self):
        truth = self._truth()
        model = TrackerErrorModel(z_bias_max=0, xy_noise_sigma=0, orient_noise_sigma=0)
        s = synth_demo(truth, model, 100.0)
        assert s.t[0] == 0.0
        assert math.isclose(s.t[-1], 350.0 / 50.0)  # 350 mm at 50 mm/s
        assert np.allclose(np.diff(s.t)[:-1], 0.01)
        assert np.array_equal(s.positions[0], truth.positions[0])
        assert np.allclose(s.positions[-1], truth.positions[-1])

    def test_clean_samples_on_truth_polyline(self):
        truth = self._truth()
        model = TrackerErrorModel(z_bias_max=0, xy_noise_sigma=0, orient_noise_sigma=0)
        s = synth_demo(truth, model, 75.0)
        for p in s.positions:
            assert oracles.point_to_polyline(p, truth.positions) < 1e-9

    def test_sample_count_is_bounded_before_anything_is_sampled(self, monkeypatch):
        truth = self._truth()
        model = TrackerErrorModel()
        n = len(synth_demo(truth, model, 100.0))  # 7 s at 100 Hz: 701 samples
        assert n == 701

        def no_arange(*args, **kwargs):
            raise AssertionError("samples were allocated before the bound was checked")

        monkeypatch.setattr(demo, "MAX_POINTS", n - 1)
        monkeypatch.setattr(np, "arange", no_arange)
        with pytest.raises(ValueError, match="would make 701 samples; the limit is 700"):
            synth_demo(truth, model, 100.0)
        monkeypatch.undo()
        monkeypatch.setattr(demo, "MAX_POINTS", n)
        assert len(synth_demo(truth, model, 100.0)) == n

    def test_deterministic_for_fixed_seed(self):
        truth = self._truth()
        model = TrackerErrorModel(spike_rate=0.05, seed=42)
        a = synth_demo(truth, model, 120.0)
        b = synth_demo(truth, model, 120.0)
        assert format_demo_csv(a) == format_demo_csv(b)

    def test_z_bias_saturates_at_range(self):
        # whole path sits at distance >= z_bias_range, so the bias is exactly max
        truth = self._truth(z=800.0)
        model = TrackerErrorModel(z_bias_max=60.0, z_bias_range=800.0,
                                  xy_noise_sigma=0, orient_noise_sigma=0)
        s = synth_demo(truth, model, 50.0)
        assert s.positions[0, 2] == 860.0
        assert np.all(s.positions[:, 2] >= 860.0 - 1e-9)

    def test_z_bias_linear_below_range(self):
        truth = self._truth(z=400.0)
        model = TrackerErrorModel(z_bias_max=60.0, z_bias_range=800.0,
                                  xy_noise_sigma=0, orient_noise_sigma=0)
        s = synth_demo(truth, model, 50.0)
        # first sample is at (0, 0, 400): exactly half the range
        assert s.positions[0, 2] == 430.0

    def test_spikes_hit_one_axis_at_full_magnitude(self):
        truth = self._truth()
        quiet = TrackerErrorModel(spike_rate=0.0, seed=7)
        noisy = TrackerErrorModel(spike_rate=0.1, seed=7)
        a = synth_demo(truth, quiet, 200.0)
        b = synth_demo(truth, noisy, 200.0)
        diff = b.positions - a.positions
        spiked = np.any(diff != 0.0, axis=1)
        assert spiked.sum() > 0
        for row in diff[spiked]:
            nz = np.flatnonzero(row)
            assert len(nz) == 1
            assert abs(abs(row[nz[0]]) - 100.0) < 1e-9

    def test_rejects_bad_inputs(self):
        truth = self._truth()
        with pytest.raises(ValueError):
            synth_demo(truth, TrackerErrorModel(), 0.0)
        still = FusedPath(truth.positions, truth.orientations, np.zeros(3), Frame.S)
        with pytest.raises(ValueError, match="positive"):
            synth_demo(still, TrackerErrorModel(), 100.0)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            TrackerErrorModel(z_bias_range=0.0)
        with pytest.raises(ValueError):
            TrackerErrorModel(spike_rate=1.5)
        with pytest.raises(ValueError):
            TrackerErrorModel(xy_noise_sigma=-1.0)

    @pytest.mark.parametrize("field, value", [
        ("z_bias_max", math.inf), ("z_bias_range", math.nan), ("z_bias_range", math.inf),
        ("xy_noise_sigma", math.nan), ("orient_noise_sigma", math.inf), ("spike_rate", math.nan),
    ])
    def test_model_rejects_a_field_that_is_not_finite(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            TrackerErrorModel(**{field: value})

    def test_model_rejects_a_negative_seed(self):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            TrackerErrorModel(seed=-1)

    def test_a_tiny_bias_range_saturates_without_a_warning(self):
        truth = self._truth(z=400.0)
        model = TrackerErrorModel(z_bias_range=1e-308, xy_noise_sigma=0, orient_noise_sigma=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = synth_demo(truth, model, 50.0)
        assert np.all(s.positions[:, 2] == 460.0)

    def test_orientation_noise_beyond_the_float_range_in_degrees_is_refused(self):
        s = synth_demo(self._truth(), TrackerErrorModel(orient_noise_sigma=1e308, seed=1), 50.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="beyond the float range"):
                format_demo_csv(s)

    @pytest.mark.parametrize("rate, change, message", [
        (0.0, None, "rate_hz must be positive and finite"),
        (math.inf, None, "rate_hz must be positive and finite"),
        (100.0, "speeds", "truth speeds must be positive"),
        (100.0, "positions", "truth path has no extent"),
        (100.0, "bound", "would make 701 samples; the limit is 700"),
    ])
    def test_checks_run_before_the_kept_traversal_is_looked_up(self, monkeypatch, rate, change, message):
        truth = self._truth()
        synth_demo(truth, TrackerErrorModel(), 100.0)
        if change == "bound":
            monkeypatch.setattr(demo, "MAX_POINTS", 700)
        elif change:
            a = getattr(truth, change)
            a.flags.writeable = True
            a[:] = 0.0 if change == "speeds" else a[0].copy()
        kept = demo._traversal.cache_info()
        with pytest.raises(ValueError, match=message):
            synth_demo(truth, TrackerErrorModel(), rate)
        assert demo._traversal.cache_info() == kept


# the noise study's grid of (xy sigma mm, orientation sigma deg, spike rate) cells
NOISE_CELLS = [(xy, orient, spike) for xy in (0.0, 1.0, 2.0) for orient in (0.0, 0.5, 1.0, 2.0) for spike in (0.0, 0.02)]


def study_model(cell, seed):
    xy, orient, spike = cell
    return TrackerErrorModel(z_bias_max=60.0, xy_noise_sigma=xy, orient_noise_sigma=orient, spike_rate=spike, seed=seed)


def capture_bits(s):
    return s.t.tobytes(), s.positions.tobytes(), s.orientations.tobytes()


class TestKeptTraversal:
    """``synth_demo`` keeps the last noise-free traversal and redraws only the noise."""

    truths = {name: truth for name, truth, _ in noise_study().truths()}

    @pytest.mark.parametrize("rate", [75.0, 100.0, 240.0])
    @pytest.mark.parametrize("name", ["line", "circle"])
    def test_a_warm_capture_equals_a_cold_one_bit_for_bit(self, name, rate):
        truth = self.truths[name]
        for seed, cell in enumerate(NOISE_CELLS):
            demo._traversal.cache_clear()
            cold = synth_demo(truth, study_model(cell, seed), rate)
            warm = synth_demo(truth, study_model(cell, seed), rate)
            assert demo._traversal.cache_info()[:2] == (1, 1)  # one hit, one miss
            assert capture_bits(warm) == capture_bits(cold)

    def test_interleaved_truths_and_rates_read_their_own_traversal(self):
        model = study_model((2.0, 1.0, 0.02), 5)
        keys = [("line", 100.0), ("circle", 100.0), ("line", 75.0), ("line", 100.0), ("line", 100.0)]
        cold = {}
        for name, rate in set(keys):
            demo._traversal.cache_clear()
            cold[name, rate] = capture_bits(synth_demo(self.truths[name], model, rate))
        demo._traversal.cache_clear()
        for name, rate in keys:
            assert capture_bits(synth_demo(self.truths[name], model, rate)) == cold[name, rate]
        assert demo._traversal.cache_info()[:2] == (1, 4)  # the repeated line@100 hits

    def test_a_truth_changed_in_place_is_traversed_afresh(self):
        truth = noise_study().make_truth()
        model = study_model((0.0, 0.0, 0.0), 3)
        before = synth_demo(truth, model, 100.0)
        truth.positions.flags.writeable = True
        truth.positions[4, 1] = 50.0
        changed = synth_demo(truth, model, 100.0)
        demo._traversal.cache_clear()
        fresh = synth_demo(FusedPath(truth.positions, truth.orientations, truth.speeds, Frame.S), model, 100.0)
        assert capture_bits(changed) == capture_bits(fresh) != capture_bits(before)

    def test_one_read_only_traversal_is_kept_and_none_of_it_is_returned(self):
        for name, rate in [("line", 100.0), ("circle", 240.0), ("line", 75.0)]:
            truth = self.truths[name]
            s = synth_demo(truth, study_model((1.0, 0.5, 0.02), 1), rate)
            assert demo._traversal.cache_info()[2:] == (1, 1)  # maxsize, currsize
            kept = demo._traversal(truth.positions.tobytes(), truth.orientations.tobytes(), truth.speeds.tobytes(), rate)
            assert len(kept[0]) == len(s)
            for a in kept:
                assert not a.flags.writeable
                assert not any(np.shares_memory(a, b) for b in (s.t, s.positions, s.orientations))
