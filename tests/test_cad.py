import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from pathfuse import (
    CadPath,
    DegeneratePathError,
    ParseError,
    parse_cad,
    resample_cad,
)
from pathfuse import cad
from pathfuse.cad import arc_fraction, arc_lengths, traverse

HEADER = "x_mm,y_mm,z_mm"

SQUARE = np.array([[0.0, 0, 0], [100.0, 0, 0], [100.0, 100.0, 0], [0.0, 100.0, 0]])


class TestCadPath:
    def test_lengths_open(self):
        p = CadPath(np.array([[0, 0, 0], [3.0, 0, 0], [3.0, 4.0, 0]]))
        assert np.allclose(p.segment_lengths(), [3.0, 4.0])
        assert math.isclose(p.segment_lengths().sum(), 7.0)

    def test_lengths_closed_include_return_segment(self):
        p = CadPath(SQUARE, closed=True)
        assert np.allclose(p.segment_lengths(), [100.0] * 4)
        assert math.isclose(p.segment_lengths().sum(), 400.0)

    def test_merges_coincident_neighbors(self):
        pts = np.array([[0, 0, 0], [0, 0, 0], [10.0, 0, 0], [10.0, 0, 0], [10.0, 5.0, 0]])
        p = CadPath(pts)
        assert len(p.waypoints) == 3

    def test_closed_drops_duplicate_of_first(self):
        pts = np.vstack([SQUARE, SQUARE[0]])
        p = CadPath(pts, closed=True)
        assert len(p.waypoints) == 4
        assert np.array_equal(p.waypoints, SQUARE)

    def test_degenerate_rejected(self):
        with pytest.raises(DegeneratePathError):
            CadPath(np.array([[1.0, 2, 3], [1.0, 2, 3]]))
        with pytest.raises(DegeneratePathError):
            CadPath(np.array([[1.0, 2, 3]]))
        with pytest.raises(DegeneratePathError):
            CadPath(np.empty((0, 3)))

    def test_merge_matches_the_per_waypoint_loop(self):
        rng = np.random.default_rng(3)
        eps = 1e-6
        merged = 0
        for case in range(400):
            n = int(rng.integers(2, 40))
            w = rng.normal(0.0, 50.0, (n, 3))
            kind = case % 4
            if kind == 0:  # exact duplicates
                i = rng.integers(1, n, n // 3 + 1)
                w[i] = w[i - 1]
            elif kind == 1:  # runs of near-duplicates, steps on either side of eps
                for i in rng.integers(1, n, n // 3 + 1):
                    end = min(n, i + int(rng.integers(1, 6)))
                    steps = rng.normal(0.0, 1.0, (end - i, 3))
                    steps *= rng.choice([0.4, 0.9, 1.1], (end - i, 1)) * eps / np.linalg.norm(steps, axis=1, keepdims=True)
                    w[i:end] = w[i - 1] + np.cumsum(steps, axis=0)
            elif kind == 2:  # a loop that repeats its first point, exactly or nearly
                w[-1] = w[0] + rng.choice([0.0, 0.5 * eps, 2.0 * eps])
            closed = bool(case % 3)
            want = oracles.cad_waypoints(w, closed)
            if want is None:
                with pytest.raises(DegeneratePathError):
                    CadPath(w, closed)
                continue
            got = CadPath(w, closed).waypoints
            assert got.tobytes() == want.tobytes()
            merged += len(got) < n
        assert merged > 150

    def test_merge_after_a_long_clean_prefix_matches_the_per_waypoint_loop(self):
        rng = np.random.default_rng(5)
        eps = 1e-6
        w = np.cumsum(rng.uniform(0.5, 2.0, (300, 3)), axis=0)
        steps = rng.normal(0.0, 1.0, (40, 3))
        steps *= rng.choice([0.3, 0.7, 1.3], (40, 1)) * eps / np.linalg.norm(steps, axis=1, keepdims=True)
        w[250:290] = w[249] + np.cumsum(steps, axis=0)
        for closed in (False, True):
            want = oracles.cad_waypoints(w, closed)
            assert 250 < len(want) < len(w)
            assert CadPath(w, closed).waypoints.tobytes() == want.tobytes()

    def test_merge_decides_steps_of_about_eps_as_the_per_waypoint_loop(self):
        # np.linalg.norm of a 1-D vector (a dot product) and of the rows of an
        # (n, 3) array may round a length apart: find steps of at least eps as
        # a row and below it 1-D, which the merge, measuring rows, keeps
        rng = np.random.default_rng(7)
        eps = 1e-6
        apart = []
        for _ in range(500):
            d = rng.normal(size=3)
            for k in range(-4, 5):
                v = d * (eps / np.linalg.norm(d)) * (1 + k * 1.1e-16)
                if np.linalg.norm(v[None], axis=1)[0] >= eps > np.linalg.norm(v):
                    apart.append(v)
        if not apart:
            pytest.skip("both norms round every tried step alike here")
        w = rng.uniform(1.0, 2.0, (300, 3))
        for i, v in enumerate(apart[:50]):  # from the origin, so each step is v exactly
            w[100 + 3 * i], w[101 + 3 * i] = 0.0, v  # the first after a clean prefix of 100 points
        for closed in (False, True):
            want = oracles.cad_waypoints(w, closed)
            assert CadPath(w, closed).waypoints.tobytes() == want.tobytes()

    def test_merge_decides_steps_within_ulps_of_eps_as_row_lengths(self):
        rng = np.random.default_rng(11)
        eps = 1e-6
        kept = []
        for case in range(200):
            d = rng.normal(size=(41, 3))
            # steps within 4 ulps of eps: 40 from the origin, between points far from it, and a closing one
            steps = d * (eps / np.linalg.norm(d, axis=1, keepdims=True)) * (1 + rng.integers(-4, 5, (41, 1)) * 1.1e-16)
            w = np.zeros((121, 3))
            w[1:120:3], w[2:120:3], w[120] = steps[:40], rng.uniform(1.0, 2.0, (40, 3)), steps[40]
            for closed in (False, True):
                want = oracles.cad_waypoints(w, closed)
                path = CadPath(w, closed)
                assert path.waypoints.tobytes() == want.tobytes(), f"case {case}"
                assert np.all(path.segment_lengths() >= eps), f"case {case}"
            kept += [oracles.row_length(v) >= eps for v in steps]
        assert 0.2 < np.mean(kept) < 0.8

    @pytest.mark.parametrize("closed", [False, True])
    def test_merge_of_a_resampled_loop_matches_the_per_waypoint_loop(self, closed):
        theta = np.linspace(0.0, 2.0 * np.pi, 13)[:-1]
        ring = np.column_stack([300.0 * np.cos(theta), 200.0 * np.sin(theta), np.full(12, 40.0)])
        points = oracles.split_polyline(ring, closed, CadPath(ring, closed).segment_lengths().sum() / 1200.0)
        points = np.vstack([points, points[:1]])  # closed: the repeated first point is dropped
        assert len(points) > 1200
        want = oracles.cad_waypoints(points, closed)
        assert len(want) == len(points) - closed
        assert CadPath(points, closed).waypoints.tobytes() == want.tobytes()

    def test_read_only(self):
        p = CadPath(SQUARE)
        with pytest.raises(ValueError):
            p.waypoints[0, 0] = 5.0


class TestArcParams:
    """The normalized arc length of every traversed point, as ``fuse`` takes CAD progress."""

    def test_open_values(self):
        p = CadPath(np.array([[0, 0, 0], [3.0, 0, 0], [3.0, 4.0, 0]]))
        assert np.allclose(arc_fraction(arc_lengths(traverse(p.waypoints, p.closed))), [0.0, 3.0 / 7.0, 1.0])

    def test_closed_adds_virtual_closing_point(self):
        p = CadPath(SQUARE, closed=True)
        a = arc_fraction(arc_lengths(traverse(p.waypoints, p.closed)))
        assert len(a) == 5
        assert np.allclose(a, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_endpoints_pinned(self):
        rng = np.random.default_rng(1)
        p = CadPath(np.cumsum(rng.uniform(0.1, 3.0, (12, 3)), axis=0))
        a = arc_fraction(arc_lengths(traverse(p.waypoints, p.closed)))
        assert a[0] == 0.0
        assert a[-1] == 1.0
        assert np.all(np.diff(a) >= 0)


class TestTraversal:
    def test_open_is_the_points_closed_returns_to_start(self):
        assert traverse(SQUARE, False) is SQUARE
        loop = traverse(SQUARE, True)
        assert np.array_equal(loop, np.vstack([SQUARE, SQUARE[:1]]))

    def test_arc_fraction_values(self):
        pts = np.array([[0, 0, 0], [3.0, 0, 0], [3.0, 4.0, 0]])
        assert arc_lengths(pts).tolist() == [0.0, 3.0, 7.0]
        f = arc_fraction(arc_lengths(pts))
        assert f.tolist() == [0.0, 3.0 / 7.0, 1.0]

    def test_arc_fraction_of_zero_length_is_zeros(self):
        f = arc_fraction(arc_lengths(np.ones((4, 3))))
        assert f.tolist() == [0.0] * 4


class TestResample:
    @pytest.mark.parametrize("closed", [False, True])
    def test_matches_per_segment_loop_bitwise(self, closed):
        rng = np.random.default_rng(41 if closed else 40)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            pts = rng.uniform(-300.0, 300.0, (n, 3))
            pts[rng.random((n, 3)) < 0.2] = -0.0
            p = CadPath(pts, closed=closed)
            spacing = float(rng.uniform(1.0, 80.0))
            if spacing > p.segment_lengths().sum():
                continue
            got = resample_cad(p, spacing).waypoints
            want = CadPath(oracles.split_polyline(p.waypoints, closed, spacing), closed).waypoints
            assert got.tobytes() == want.tobytes()

    def test_negative_zero_waypoint_kept(self):
        # a + 0.0 * (b - a) would turn these -0.0 coordinates into +0.0
        pts = np.array([[-0.0, 0.0, -0.0], [40.0, 0.0, 10.0], [40.0, -0.0, 50.0]])
        for closed in (False, True):
            r = resample_cad(CadPath(pts, closed=closed), 5.0)
            kept = [w for w in r.waypoints if any(np.array_equal(w, p) for p in pts)]
            assert np.array(kept).tobytes() == pts.tobytes()

    def test_corners_kept_bitwise(self):
        p = CadPath(SQUARE)
        r = resample_cad(p, 30.0)
        wps = {tuple(w) for w in r.waypoints}
        for corner in SQUARE:
            assert tuple(corner) in wps

    def test_spacing_bound_and_on_polyline(self):
        p = CadPath(SQUARE, closed=True)
        r = resample_cad(p, 30.0)
        pts = np.vstack([r.waypoints, r.waypoints[0]])
        steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        assert np.max(steps) <= 30.0 + 1e-9
        poly = np.vstack([SQUARE, SQUARE[0]])
        for w in r.waypoints:
            assert oracles.point_to_polyline(w, poly) < 1e-9

    def test_total_length_preserved(self):
        rng = np.random.default_rng(8)
        p = CadPath(np.cumsum(rng.uniform(0.5, 9.0, (9, 3)), axis=0))
        r = resample_cad(p, 2.5)
        assert math.isclose(r.segment_lengths().sum(), p.segment_lengths().sum(), rel_tol=1e-12)
        assert r.closed == p.closed

    def test_exact_division_counts(self):
        p = CadPath(np.array([[0, 0, 0], [100.0, 0, 0]]))
        r = resample_cad(p, 25.0)
        assert len(r.waypoints) == 5
        assert np.allclose(r.waypoints[:, 0], [0, 25, 50, 75, 100])

    def test_spacing_wider_than_path_keeps_every_waypoint(self):
        p = CadPath(np.array([[0, 0, 0], [3.0, 0, 0], [3.0, 4.0, 0]]))
        for spacing in (10.0, 1e6, 1e308):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                r = resample_cad(p, spacing)
            assert np.array_equal(r.waypoints, p.waypoints)
            assert r.segment_lengths().sum() == p.segment_lengths().sum() == 7.0

    def test_closed_path_wide_spacing_returns_path(self):
        p = CadPath(SQUARE, closed=True)
        r = resample_cad(p, 1e6)
        assert np.array_equal(r.waypoints, p.waypoints)
        assert r.closed

    def test_rejects_bad_spacing(self):
        p = CadPath(SQUARE)
        with pytest.raises(ValueError):
            resample_cad(p, 0.0)
        with pytest.raises(ValueError):
            resample_cad(p, -3.0)
        for spacing in (math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                resample_cad(p, spacing)

    # 5e11 points (12 TB) and infinitely many: refused before any allocation
    @pytest.mark.parametrize("far", [1e12, 1e308])
    def test_refuses_more_than_max_points(self, far):
        p = CadPath(np.array([[0.0, 0.0, 0.0], [far, 0.0, 0.0], [-far, 0.0, 0.0]]))
        with pytest.raises(ValueError, match="the limit is 1000000"):  # 1e308 overflows the lengths to inf
            resample_cad(p, 2.0)


class TestParse:
    def test_csv_open(self):
        text = f"{HEADER}\n0,0,0\n10,0,0\n10,5,0\n"
        p = parse_cad(text)
        assert not p.closed
        assert len(p.waypoints) == 3

    def test_csv_closed_directive_variants(self):
        for directive in ("# closed=true", "#closed = TRUE", "#  Closed=True"):
            text = f"{HEADER}\n{directive}\n0,0,0\n10,0,0\n10,5,0\n"
            assert parse_cad(text).closed

    def test_csv_closed_false(self):
        text = f"{HEADER}\n# closed=false\n0,0,0\n10,0,0\n"
        assert not parse_cad(text).closed

    def test_csv_unknown_directive(self):
        with pytest.raises(ParseError, match="directive"):
            parse_cad(f"{HEADER}\n# loop=yes\n0,0,0\n1,0,0\n")

    def test_csv_bad_header(self):
        with pytest.raises(ParseError) as exc:
            parse_cad("x,y\n0,0\n")
        assert exc.value.line == 1

    def test_csv_bad_field_count(self):
        with pytest.raises(ParseError) as exc:
            parse_cad(f"{HEADER}\n0,0,0\n1,2\n")
        assert exc.value.line == 3

    def test_csv_bad_number_and_non_finite(self):
        with pytest.raises(ParseError):
            parse_cad(f"{HEADER}\n0,0,zero\n1,0,0\n")
        with pytest.raises(ParseError, match="non-finite"):
            parse_cad(f"{HEADER}\n0,0,nan\n1,0,0\n")

    def test_json_round_features(self):
        doc = {"waypoints": [[0, 0, 0], [10, 0, 0], [10, 5, 0]], "closed": True}
        p = parse_cad(json.dumps(doc))
        assert p.closed
        assert len(p.waypoints) == 3

    def test_json_defaults_open(self):
        p = parse_cad(json.dumps({"waypoints": [[0, 0, 0], [1, 1, 1]]}))
        assert not p.closed

    def test_json_errors(self):
        bad = [
            "{",  # not valid JSON
            json.dumps({"closed": False}),  # no waypoints
            json.dumps({"waypoints": [[0, 0], [1, 1]]}),  # wrong arity
            json.dumps({"waypoints": [[0, 0, "a"], [1, 1, 1]]}),
            json.dumps({"waypoints": [[0, 0, True], [1, 1, 1]]}),
            json.dumps({"waypoints": [[0, 0, 0], [1, 1, 1]], "closed": "yes"}),
            json.dumps({"waypoints": "none"}),
            json.dumps([1, 2, 3]),
        ]
        for text in bad:
            with pytest.raises(ParseError):
                parse_cad(text)

    def test_degenerate_content_raises_degenerate(self):
        with pytest.raises(DegeneratePathError):
            parse_cad(f"{HEADER}\n1,2,3\n1,2,3\n")

    def test_bytes_accepted(self):
        p = parse_cad(f"{HEADER}\n0,0,0\n9,0,0\n".encode())
        assert len(p.waypoints) == 2

    @pytest.mark.parametrize("boms", [1, 2])
    def test_str_and_bytes_strip_the_same_boms(self, boms):
        # one BOM is stripped from either input type; a second is part of the header line
        text = "\ufeff" * boms + f"{HEADER}\n0,0,0\n9,0,0\n"
        for data in (text, text.encode()):
            if boms == 1:
                assert len(parse_cad(data).waypoints) == 2
            else:
                with pytest.raises(ParseError, match="expected header"):
                    parse_cad(data)


# Every CSV text TestParse reads, then rows the line reader and the gate must read alike.
CSV_CASES = [
    f"{HEADER}\n0,0,0\n10,0,0\n10,5,0\n",
    *(f"{HEADER}\n{d}\n0,0,0\n10,0,0\n10,5,0\n" for d in ["# closed=true", "#closed = TRUE", "#  Closed=True"]),
    f"{HEADER}\n# closed=false\n0,0,0\n10,0,0\n",
    f"{HEADER}\n# loop=yes\n0,0,0\n1,0,0\n",
    "x,y\n0,0\n",
    f"{HEADER}\n0,0,0\n1,2\n",
    f"{HEADER}\n0,0,zero\n1,0,0\n",
    f"{HEADER}\n0,0,nan\n1,0,0\n",
    f"{HEADER}\n1,2,3\n1,2,3\n",
    f"{HEADER}\n0,0,0\n9,0,0\n",
    f"\ufeff{HEADER}\n0,0,0\n9,0,0\n",
    f"\ufeff\ufeff{HEADER}\n0,0,0\n9,0,0\n",
    f"{HEADER}\n0,0,1e999\n1,0,0\n",  # plain bytes, an infinite value
    f"{HEADER}\n0,,0\n1,0,0\n",  # an empty field
    f"{HEADER}\n1,2,3,\n4,5,6\n",  # a trailing comma
    f"{HEADER}\n 1 ,\t2, 3e2 \n-.5,+4.,5E-3\n",  # white space, signs and exponents
    f"{HEADER}\n1,2,3\n",  # one row
    f"{HEADER}\n",  # no rows
    f"{HEADER}\n0,0,0\n1,0,0\n# loop=yes\n2,0\n",  # a bad directive before a bad row
    f"{HEADER}\n0,0,0\n1,0\n# loop=yes\n",  # a bad row before a bad directive
    f"{HEADER}\n0,0,0\n1_0,0,0\n",  # a number float() takes and the grammar does not
    f"{HEADER}\n0,0,0\n\u0661,0,0\n",  # a non-ASCII digit
]


def outcome(data):
    try:
        p = parse_cad(data)
    except (ParseError, DegeneratePathError) as e:
        return type(e).__name__, str(e), getattr(e, "line", None)
    return p.waypoints.tobytes(), p.closed


def read_by_lines(data):
    """parse_cad's outcome with every row read by ``csv_row``, as before the plain-number gate."""
    with mock.patch.object(cad, "plain_rows", lambda *args: None):
        return outcome(data)


def gate_reads(data) -> bool:
    """Whether parse_cad reads the rows of ``data`` through the plain-number gate."""
    read = []
    gate = cad.plain_rows
    with mock.patch.object(cad, "plain_rows", lambda *args: read.append(gate(*args)) or read[-1]):
        parse_cad(data)
    return len(read) == 1 and read[0] is not None


class TestPlainRows:
    @pytest.mark.parametrize("text", CSV_CASES)
    def test_csv_cases_match_the_line_reader(self, text):
        for data in (text, text.encode()):
            assert outcome(data) == read_by_lines(data)

    def test_directives_blank_lines_bom_and_crlf_keep_the_gate(self):
        rows = [f"{x!r},{-x / 3!r},{x * 1e-7!r}" for x in np.linspace(-400.0, 400.0, 12).tolist()]
        lines = ["# closed=true", "", *rows[:5], " \t", "#Closed = false", *rows[5:], "", "# closed=TRUE", ""]
        for eol in ("\n", "\r\n"):
            for bom in ("", "\ufeff"):
                text = bom + eol.join([HEADER, *lines]) + eol
                for data in (text, text.encode()):
                    assert gate_reads(data)
                    assert outcome(data) == read_by_lines(data)
                    assert parse_cad(data).closed

    def test_reads_a_long_file(self):
        rng = np.random.default_rng(3)
        text = HEADER + "\n" + "".join(f"{x!r},{y!r},{z!r}\n" for x, y, z in rng.uniform(-1e3, 1e3, (400, 3)).tolist())
        assert gate_reads(text)
        assert outcome(text) == read_by_lines(text)


FIELDS = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False).map(repr),
    st.floats(-1e6, 1e6, allow_nan=False).map("{:.3e}".format),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["+1", "-.5", "5.", " 7 ", "\t8", "1e999", "", "1_0", "nan", "0x1", "1.2.3", "\u0661", "e5"]),
)
LINES = st.one_of(
    st.lists(FIELDS, min_size=3, max_size=3).map(",".join),
    st.lists(FIELDS, min_size=2, max_size=4).map(",".join),
    st.sampled_from(["# closed=true", "#closed = FALSE", " # Closed=True ", "# loop", "", " \t"]),
)


@settings(deadline=None, max_examples=200)
@given(st.lists(LINES, max_size=12), st.sampled_from(["\n", "\r\n"]), st.booleans(), st.booleans())
def test_gate_matches_the_line_reader(lines, eol, bom, as_bytes):
    text = ("\ufeff" if bom else "") + eol.join([HEADER, *lines]) + eol
    data = text.encode() if as_bytes else text
    assert outcome(data) == read_by_lines(data)


coords = st.floats(-500, 500, allow_nan=False, width=32).map(float)


@settings(deadline=None, max_examples=40)
@given(
    st.lists(st.tuples(coords, coords, coords), min_size=2, max_size=12),
    st.floats(0.5, 50.0),
)
def test_resample_property(points, spacing):
    arr = np.array(points, dtype=float)
    try:
        p = CadPath(arr)
    except DegeneratePathError:
        return
    r = resample_cad(p, spacing)
    # length never changes, step never exceeds the request
    assert math.isclose(r.segment_lengths().sum(), p.segment_lengths().sum(), rel_tol=1e-9, abs_tol=1e-9)
    steps = np.linalg.norm(np.diff(r.waypoints, axis=0), axis=1)
    assert np.max(steps) <= spacing + 1e-6
    assert np.max(oracles.point_to_polyline_all_pairs(r.waypoints, p.waypoints)) < 1e-6
