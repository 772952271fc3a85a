import json
import math
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from conftest import NO_LIMITS, child_env, emitted, make_doc, plain_layers, shared_column_docs
from pathfuse import (
    Frame,
    FrameMismatchError,
    FusedPath,
    Layer,
    LimitViolation,
    PathLimits,
    PathMLDocument,
    ProcessParameters,
    Track,
    ValidationError,
    deviation_report,
    emit_program,
    parse_xml,
    validate_document,
    validate_path,
)
from pathfuse import _quat, program
from pathfuse.program import _movel_lines, _point_to_polyline_mm

GOLDEN = Path(__file__).parent / "data" / "golden_program.txt"
# the golden document's base -> cap move is 50.040 mm and 90 degrees
GOLDEN_LIMITS = PathLimits(max_step_mm=51.0, max_orient_step_deg=91.0)


def doc_with_points(points, process=None, tool_active=True):
    if process is None:
        process = ProcessParameters("other")
    return PathMLDocument(
        "p", process, (Layer("Layer_0", 0, (Track("Track_0", points, tool_active),)),)
    )


def pt(x=0.0, y=0.0, z=0.0, rx=0.0, ry=0.0, rz=0.0, v=50.0):
    return (x, y, z, rx, ry, rz, v)


@pytest.fixture(scope="module")
def pipeline_out(tmp_path_factory):
    """Artifacts of one scripts/run_pipeline.py run (3-layer stack, 50 mm / 30 degree limits)."""
    out = tmp_path_factory.mktemp("pipeline")
    script = Path(__file__).parents[1] / "scripts" / "run_pipeline.py"
    subprocess.run([sys.executable, str(script), "--out", str(out)], env=child_env(), check=True, capture_output=True)
    return out


class TestLimits:
    def test_defaults_valid(self):
        lim = PathLimits()
        assert lim.max_step_mm == 50.0
        assert lim.workspace_radius_mm == 3000.0

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            PathLimits(max_step_mm=0.0)
        with pytest.raises(ValueError):
            PathLimits(max_speed_mm_s=-1.0)
        with pytest.raises(ValueError):
            PathLimits(max_orient_step_deg=math.inf)
        with pytest.raises(ValueError):
            PathLimits(workspace_center=(0.0, math.nan, 0.0))


class TestValidatePath:
    def test_clean_path_passes(self):
        report = validate_path(make_doc(), PathLimits())
        assert report.passed
        assert report.violations == ()

    def test_step_measured_exactly(self):
        doc = doc_with_points([pt(0, 0, 0), pt(30.0, 40.0, 0)])
        report = validate_path(doc, PathLimits(max_step_mm=49.9))
        assert len(report.violations) == 1
        v = report.violations[0]
        assert v.rule == "step"
        assert v.point == 1
        assert math.isclose(v.measured, 50.0)

    def test_orient_step_measured_in_degrees(self):
        doc = doc_with_points([pt(rz=0.0), pt(x=1.0, rz=40.0)])
        report = validate_path(doc, PathLimits(max_orient_step_deg=30.0))
        v = report.violations[0]
        assert v.rule == "orient_step"
        assert math.isclose(v.measured, 40.0, abs_tol=1e-9)

    def test_orient_step_uses_relative_rotation(self):
        # 170 deg -> -170 deg is a 20 deg move, not 340
        doc = doc_with_points([pt(rz=170.0), pt(x=1.0, rz=-170.0)])
        report = validate_path(doc, PathLimits(max_orient_step_deg=30.0))
        assert report.passed

    @pytest.mark.parametrize("deg", [1e-7, 1e-5, 1e-3, 45.0, 179.999, 179.9999999])
    def test_orient_step_accurate_from_zero_to_a_half_turn(self, deg):
        doc = doc_with_points([pt(), pt(rz=deg)])
        (v,) = validate_path(doc, PathLimits(max_orient_step_deg=1e-9)).violations
        assert v.rule == "orient_step"
        assert abs(v.measured - deg) <= 1e-12

    def test_opposite_quaternions_are_no_step(self):
        q = _quat.from_euler_zyx(np.random.default_rng(6).uniform(-math.pi, math.pi, (50, 3)))
        assert _quat.angles_between(q, -q).tolist() == [0.0] * 50
        # a full turn about z is q -> -q; only rounding of sin(pi) is left
        assert validate_path(doc_with_points([pt(), pt(rz=360.0)]), PathLimits(max_orient_step_deg=1e-9)).passed

    def test_reachability_from_offset_center(self):
        doc = doc_with_points([pt(0, 0, 0), pt(10.0, 0, 0)])
        lim = PathLimits(workspace_center=(100.0, 0.0, 0.0), workspace_radius_mm=95.0)
        report = validate_path(doc, lim)
        v = report.violations[0]
        assert (v.rule, v.point) == ("reachability", 0)
        assert math.isclose(v.measured, 100.0)

    def test_speed_limit(self):
        doc = doc_with_points([pt(), pt(x=1.0, v=1500.0)])
        report = validate_path(doc, PathLimits(max_speed_mm_s=1000.0))
        v = report.violations[0]
        assert v.rule == "speed" and v.measured == 1500.0

    def test_rule_order_within_a_point(self):
        # one point violating everything at once: pair rules come first
        doc = doc_with_points([pt(), pt(x=200.0, rz=90.0, v=2000.0)])
        lim = PathLimits(
            max_step_mm=50.0, max_orient_step_deg=30.0,
            workspace_radius_mm=100.0, max_speed_mm_s=1000.0,
        )
        rules = [v.rule for v in validate_path(doc, lim).violations]
        assert rules == ["step", "orient_step", "reachability", "speed"]

    def test_first_point_has_no_pair_rules(self):
        doc = doc_with_points([pt(x=500.0), pt(x=501.0)])
        lim = PathLimits(workspace_radius_mm=100.0)
        report = validate_path(doc, lim)
        assert [v.rule for v in report.violations] == ["reachability", "reachability"]

    def test_traversal_order_across_tracks(self):
        bad = (pt(v=2000.0), pt(x=1.0, v=2000.0))
        doc = PathMLDocument(
            "p",
            ProcessParameters("other"),
            (
                Layer("a", 0, (Track("t0", bad, True), Track("t1", bad, True))),
                Layer("b", 5, (Track("t0", bad, True),)),
            ),
        )
        keys = [(v.layer, v.track, v.point) for v in validate_path(doc, PathLimits()).violations]
        assert keys == sorted(keys)

    def test_equal_indices_keep_listing_order(self):
        fast = (pt(v=2000.0), pt(x=1.0, v=2000.0))
        doc = PathMLDocument(
            "p",
            ProcessParameters("other"),
            tuple(Layer(name, index, (Track("t", fast, True),)) for name, index in (("a", 1), ("b", 0), ("c", 0))),
        )
        keys = [(v.layer, v.point) for v in validate_path(doc, PathLimits()).violations]
        assert keys == [(1, 0), (1, 1), (2, 0), (2, 1), (0, 0), (0, 1)]

    def test_move_between_layers_is_checked(self, pipeline_out):
        # stack run_pipeline's open base twice without running the second copy backwards
        base = parse_xml((pipeline_out / "part.aml").read_bytes())
        track = base.layers[0].tracks[0]
        lifted = track.points + np.array([0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0])
        doc = PathMLDocument(
            base.project_name,
            base.process,
            (base.layers[0], Layer("Layer_1", 1, (Track(track.name, lifted, True),))),
        )
        found = validate_path(doc, PathLimits(max_step_mm=50.0, max_orient_step_deg=30.0)).violations
        assert [(v.layer, v.track, v.point, v.rule) for v in found] == [(1, 0, 0, "step"), (1, 0, 0, "orient_step")]
        assert f"{found[0].measured:.3f}" == "400.005"
        assert found[1].measured > 30.0

    def test_pipeline_stack_passes_with_layer_height_changes(self, pipeline_out):
        doc = parse_xml((pipeline_out / "stack.aml").read_bytes())
        assert validate_path(doc, PathLimits(max_step_mm=50.0, max_orient_step_deg=30.0)).passed
        layers = sorted(doc.layers, key=lambda l: l.index)
        assert len(layers) == 3
        for below, above in zip(layers, layers[1:]):
            step = np.linalg.norm(above.tracks[0].points[0, :3] - below.tracks[-1].points[-1, :3])
            assert f"{step:.3f}" == "2.000"

    def test_violation_str(self):
        v = LimitViolation(0, 0, 1, "step", 60.8276, 50.0)
        assert str(v) == "layer 0 track 0 point 1: step 60.828 exceeds limit 50.000"


class TestDocumentRulesInReport:
    """validate_path reports validate_document's violations next to the limit ones."""

    @pytest.mark.parametrize(
        "layers",
        [(), (Layer("Layer_0", 0, (Track("Track_0", (), True),)),)],
        ids=["no_layers", "empty_track"],
    )
    def test_document_without_points_does_not_pass(self, layers):
        report = validate_path(PathMLDocument("p", ProcessParameters("other"), layers), PathLimits())
        assert report.violations == ()
        assert [v.rule for v in report.document] == ["structure"]
        assert not report.passed

    def test_nan_angle_is_a_finite_violation(self):
        doc = doc_with_points([pt(), pt(x=1.0, ry=math.nan), pt(x=2.0)])
        report = validate_path(doc, PathLimits())
        assert [(v.path, v.rule) for v in report.document] == [("Layer_0/Track_0/Point_1", "finite")]
        assert report.violations == ()
        assert not report.passed

    def test_document_part_in_validate_document_order(self):
        doc = doc_with_points([pt(v=-1.0), pt(x=100.0, rz=math.inf), pt(x=math.inf)],
                              process=ProcessParameters("adhesive", layer_height=2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning from the non-finite rows
            report = validate_path(doc, PathLimits())
        assert [v.rule for v in report.document] == ["process", "velocity", "finite", "finite"]
        assert report.document == tuple(validate_document(doc))
        assert [v.rule for v in report.violations] == ["step", "step", "reachability"]  # 100 mm, inf, inf

    def test_emit_trusts_the_report(self, monkeypatch):
        report = validate_path(make_doc(), PathLimits())
        want = emit_program(report).text
        monkeypatch.setattr(program, "validate_document", None)  # any call would raise TypeError
        assert emit_program(report).text == want


def _scaled(limits, f):
    return PathLimits(
        max_step_mm=limits.max_step_mm * f,
        max_speed_mm_s=limits.max_speed_mm_s * f,
        workspace_center=limits.workspace_center,
        workspace_radius_mm=limits.workspace_radius_mm * f,
        max_orient_step_deg=limits.max_orient_step_deg * f,
    )


coords = st.floats(-500.0, 500.0)
# Within +-30 degrees per axis, consecutive orientations stay well short of a
# half turn, where the oracle's asin of the chord loses its accuracy.
tilts = st.floats(-30.0, 30.0)
rows = st.tuples(coords, coords, coords, tilts, tilts, tilts, st.floats(0.0, 2000.0))
stacks = st.lists(st.lists(st.lists(rows, max_size=6), min_size=1, max_size=3), min_size=1, max_size=3)
limit_sets = st.builds(
    PathLimits,
    max_step_mm=st.floats(1.0, 600.0),
    max_speed_mm_s=st.floats(100.0, 1500.0),
    workspace_center=st.tuples(*[st.floats(-200.0, 200.0)] * 3),
    workspace_radius_mm=st.floats(100.0, 1000.0),
    max_orient_step_deg=st.floats(0.5, 60.0),
)


# index per listed layer: out of listing order and with duplicates
layer_indices = st.lists(st.integers(0, 2), min_size=3, max_size=3)


@settings(deadline=None, max_examples=80)
@given(stacks, layer_indices, limit_sets)
def test_validate_path_matches_per_point_oracle(layers, indices, limits):
    doc = PathMLDocument(
        "p",
        ProcessParameters("other"),
        tuple(
            Layer(f"L{li}", indices[li], tuple(Track(f"T{ti}", pts, True) for ti, pts in enumerate(tracks)))
            for li, tracks in enumerate(layers)
        ),
    )
    keys = lambda found: [v[:4] for v in found]  # noqa: E731
    # a value within rounding of its limit may fall either side; skip such ties
    assume(keys(oracles.validate_path(doc, _scaled(limits, 1.0 - 1e-9)))
           == keys(oracles.validate_path(doc, _scaled(limits, 1.0 + 1e-9))))
    want = oracles.validate_path(doc, limits)
    got = validate_path(doc, limits).violations
    assert [(v.layer, v.track, v.point, v.rule) for v in got] == keys(want)
    for v, w in zip(got, want):
        assert abs(v.measured - w[4]) <= 1e-9


class TestEmit:
    def _golden_doc(self):
        base_pts = [
            (-0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 100.0),
            (25.0, -10.5, 0.0, 0.0, 0.0, 45.0, 100.0),
            (50.0, 0.0, 0.0, 0.0, 0.0, 90.0, 120.5),
        ]
        cap_pts = [
            (0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 80.0),
            (50.0, 0.0, 2.0, 0.0, 0.0, 0.0, 80.0),
        ]
        return PathMLDocument(
            "bead",
            ProcessParameters("adhesive", glue_flow_rate=12.0, layer_height=2.0, extra={"Gas": "argon"}),
            (
                Layer("cap", 1, (Track("Track_0", cap_pts, False),)),
                Layer("base", 0, (Track("Track_0", base_pts, True),)),
            ),
        )

    def _golden_program(self):
        return emit_program(validate_path(self._golden_doc(), GOLDEN_LIMITS))

    def test_matches_golden_file(self):
        assert self._golden_program().text == GOLDEN.read_text()

    def test_layers_emitted_by_index_not_listing_order(self):
        lines = self._golden_program().lines
        base_at = lines.index("# layer: base")
        cap_at = lines.index("# layer: cap")
        assert base_at < cap_at

    def test_tool_wrapping_only_for_active_tracks(self):
        lines = self._golden_program().lines
        assert lines.count("SET_IO TOOL 1") == 1
        assert lines.count("SET_IO TOOL 0") == 1
        cap_block = lines[lines.index("# layer: cap") :]
        assert all(not l.startswith("SET_IO") for l in cap_block)

    def test_line_count_invariant(self):
        doc = self._golden_doc()
        lines = self._golden_program().lines
        points = sum(len(t.points) for l in doc.layers for t in l.tracks)
        active = sum(1 for l in doc.layers for t in l.tracks if t.tool_active)
        header = 5  # program, process_type, glue rate, layer height, one extra
        assert len(lines) == header + len(doc.layers) + points + 2 * active

    def test_refuses_failing_validation(self):
        report = validate_path(self._golden_doc(), PathLimits())
        assert report.document == ()
        with pytest.raises(ValidationError) as refused:
            emit_program(report)
        assert str(refused.value) == (
            "refusing to emit: "
            "layer 1 track 0 point 1: orient_step 45.000 exceeds limit 30.000; "
            "layer 1 track 0 point 2: orient_step 45.000 exceeds limit 30.000; "
            "layer 0 track 0 point 0: step 50.040 exceeds limit 50.000; "
            "layer 0 track 0 point 0: orient_step 90.000 exceeds limit 30.000"
        )
        assert validate_path(self._golden_doc(), GOLDEN_LIMITS).passed

    def test_golden_validates_in_emission_order(self):
        found = validate_path(self._golden_doc(), PathLimits()).violations
        assert [(v.layer, v.track, v.point, v.rule, f"{v.measured:.3f}") for v in found] == [
            (1, 0, 1, "orient_step", "45.000"),
            (1, 0, 2, "orient_step", "45.000"),
            (0, 0, 0, "step", "50.040"),
            (0, 0, 0, "orient_step", "90.000"),
        ]

    def test_refuses_empty_document(self):
        doc = PathMLDocument("p", ProcessParameters("other"), (Layer("L", 0, (Track("T", (), True),)),))
        with pytest.raises(ValidationError) as refused:
            emit_program(validate_path(doc, PathLimits()))
        assert str(refused.value) == "refusing to emit: L/T: structure: track has 0 point(s), needs at least 2"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"velocity": -1.0},
            {"xs": (0.0, math.nan, 20.0)},
            {"process": ProcessParameters("adhesive", layer_height=2.0)},
        ],
        ids=["negative_velocity", "nan_coordinate", "adhesive_without_glue_rate"],
    )
    def test_refuses_invalid_document(self, kwargs):
        # the 10 mm steps break the step limit too, except where a NaN coordinate makes them NaN
        report = validate_path(make_doc(**kwargs), PathLimits(max_step_mm=5.0))
        assert report.document
        with pytest.raises(ValidationError) as refused:
            emit_program(report)
        assert str(refused.value) == "refusing to emit: " + "; ".join(map(str, report.document + report.violations))

    def test_moves_follow_the_checked_order(self):
        # layer indices out of listing order, one of them twice; every value exact at three decimals
        rows = np.arange(5 * 3 * 7, dtype=float).reshape(5, 3, 7) / 8.0
        listed = [(2, [rows[0]]), (0, [rows[1], rows[2]]), (1, [rows[3]]), (0, [rows[4]])]
        doc = PathMLDocument("p", ProcessParameters("other"), tuple(
            Layer(f"L{li}", index, tuple(Track(f"T{ti}", pts, ti % 2 == 0) for ti, pts in enumerate(tracks)))
            for li, (index, tracks) in enumerate(listed)
        ))
        report = validate_path(doc, NO_LIMITS)
        assert report.doc is doc and report.passed
        moves = [line.split()[1:] for line in emit_program(report).lines if line.startswith("MOVEL")]
        read_back = np.array([[float(f.removeprefix("V=")) for f in fields] for fields in moves])
        assert np.array_equal(read_back, program._traverse(doc)[1])
        assert np.array_equal(read_back, np.concatenate([rows[1], rows[2], rows[4], rows[3], rows[0]]))

    def test_multiline_names_collapsed_in_comments(self):
        doc = make_doc(project="two\nline  name")
        lines = emitted(doc).lines
        assert lines[0] == "# program: two line name"

    def test_text_ends_with_newline(self):
        assert emitted(make_doc()).text.endswith("\n")


def fused(positions, frame=Frame.R, closed=False):
    arr = np.asarray(positions, dtype=float)
    n = len(arr)
    return FusedPath(arr, np.zeros((n, 3)), np.full(n, 50.0), frame, closed=closed)


class TestDeviation:
    def test_identical_paths_zero(self):
        nominal = fused([[0, 0, 0], [100.0, 0, 0], [100.0, 50.0, 0]])
        rep = deviation_report(nominal, nominal)
        assert rep.overall_max_mm == 0.0
        assert rep.within_tolerance
        assert rep.tolerance_mm == 4.0
        assert len(rep.sections) == 1
        assert rep.sections[0].point_count == 3

    def test_square_sections(self):
        nominal = fused(
            [[0.0, 0, 0], [100.0, 0, 0], [100.0, 100.0, 0], [0.0, 100.0, 0]], closed=True
        )
        executed = fused(
            [
                [0.0, -2.0, 0],
                [100.0, -2.0, 0],
                [100.0, 0.0, 0],
                [100.0, 100.0, 0],
                [0.0, 100.0, 0],
                [0.0, 0.0, 0],
            ]
        )
        breaks = (101.0 / 402.0, 202.0 / 402.0, 302.0 / 402.0)
        rep = deviation_report(executed, nominal, section_breaks=breaks)
        assert len(rep.sections) == 4
        assert math.isclose(rep.sections[0].max_deviation_mm, 2.0, abs_tol=1e-9)
        assert rep.sections[0].point_count == 2
        for s in rep.sections[1:]:
            assert s.max_deviation_mm < 1e-9
        assert math.isclose(rep.overall_max_mm, 2.0, abs_tol=1e-9)
        assert rep.within_tolerance  # 2 mm < default 4 mm

    def test_out_of_tolerance(self):
        nominal = fused([[0, 0, 0], [100.0, 0, 0]])
        executed = fused([[0, 5.0, 0], [100.0, 5.0, 0]])
        rep = deviation_report(executed, nominal)
        assert not rep.within_tolerance
        assert math.isclose(rep.overall_max_mm, 5.0)

    def test_closed_nominal_includes_closing_segment(self):
        nominal = fused(
            [[0.0, 0, 0], [100.0, 0, 0], [100.0, 100.0, 0], [0.0, 100.0, 0]], closed=True
        )
        executed = fused([[-3.0, 50.0, 0], [-3.0, 60.0, 0]])
        rep = deviation_report(executed, nominal, tolerance_mm=10.0)
        assert math.isclose(rep.overall_max_mm, 3.0)

    def test_open_nominal_has_no_closing_segment(self):
        nominal = fused([[0.0, 0, 0], [100.0, 0, 0], [100.0, 100.0, 0], [0.0, 100.0, 0]])
        executed = fused([[-3.0, 50.0, 0], [-3.0, 60.0, 0]])
        rep = deviation_report(executed, nominal, tolerance_mm=100.0)
        assert rep.overall_max_mm > 30.0

    def test_empty_middle_section(self):
        nominal = fused([[0, 0, 0], [100.0, 0, 0]])
        executed = fused([[0, 0, 0], [25.0, 0, 0], [100.0, 0, 0]])
        rep = deviation_report(executed, nominal, section_breaks=(0.4, 0.6))
        assert rep.sections[1].point_count == 0
        assert rep.sections[1].max_deviation_mm == 0.0

    def test_closed_executed_param_includes_return_leg(self):
        nominal = fused(
            [[0.0, 0, 0], [100.0, 0, 0], [100.0, 100.0, 0], [0.0, 100.0, 0]], closed=True
        )
        executed = fused(
            [[0.0, 0, 0], [100.0, 0, 0], [100.0, 100.0, 0], [0.0, 100.0, 0]], closed=True
        )
        # midpoint break: with the return leg the third corner sits at 0.5 exactly,
        # landing in section 2 under right-bisection
        rep = deviation_report(executed, nominal, section_breaks=(0.5,))
        assert rep.sections[0].point_count == 2
        assert rep.sections[1].point_count == 2

    def test_point_to_polyline_across_chunks(self, monkeypatch):
        # 39 segments make 3 blocks: passes of min(_BOUNDS // 3, 1024 // 16) = 64 points, and
        # slices of at most 1024 pairs
        monkeypatch.setattr(program, "_PAIRS", 1024)
        measured = _measured_pairs(monkeypatch)
        rng = np.random.default_rng(9)
        poly = rng.uniform(-100.0, 100.0, (40, 3))
        poly[7] = poly[6]  # a zero-length segment acts as a point
        points = rng.uniform(-120.0, 120.0, (150, 3))  # two full passes and a partial one
        got = _point_to_polyline_mm(points, poly)
        want = [oracles.point_to_polyline(p, poly) for p in points]
        assert np.max(np.abs(got - want)) < 1e-9
        assert max(measured) <= 1024
        assert len(measured) > 2 * 3  # a nearest-block measurement and a slice per pass, and more slices

    def test_pipeline_report_measures_the_executed_path(self, pipeline_out):
        report = json.loads((pipeline_out / "report.json").read_text())
        executed = json.loads((pipeline_out / "executed.json").read_text())
        nominal = json.loads((pipeline_out / "fused.json").read_text())
        xyz = lambda path: np.array([[p["x_mm"], p["y_mm"], p["z_mm"]] for p in path["points"]])  # noqa: E731
        poly = xyz(nominal)
        if nominal["closed"]:
            poly = np.vstack([poly, poly[:1]])
        want = max(oracles.point_to_polyline(p, poly) for p in xyz(executed))
        assert report["overall_max_mm"] > 0.0
        assert abs(report["overall_max_mm"] - want) <= 1e-9

    def test_json_shape(self):
        nominal = fused([[0, 0, 0], [10.0, 0, 0]])
        rep = deviation_report(nominal, nominal, section_breaks=(0.5,))
        obj = json.loads(rep.to_json())
        assert set(obj) == {"tolerance_mm", "overall_max_mm", "within_tolerance", "sections"}
        assert [s["label"] for s in obj["sections"]] == ["section_1", "section_2"]
        assert set(obj["sections"][0]) == {"label", "max_deviation_mm", "point_count"}

    def test_overflowing_progress_falls_in_the_last_section(self):
        # arc length overflows to inf: every point past the first has NaN progress
        executed = fused([[-1e308, 0, 0], [1e308, 0, 0], [1e308, 1.0, 0]])
        rep = deviation_report(executed, fused([[0, 0, 0], [10.0, 0, 0]]), section_breaks=(0.3, 0.6))
        assert [(s.point_count, s.max_deviation_mm) for s in rep.sections] == [(1, math.inf), (0, 0.0), (2, math.inf)]
        assert sum(s.point_count for s in rep.sections) == len(executed)

    @settings(deadline=None, max_examples=60)
    @given(
        hnp.arrays(float, st.tuples(st.integers(2, 30), st.just(3)), elements=st.floats(-100.0, 100.0)),
        st.lists(st.floats(0.01, 0.99), max_size=5, unique=True).map(sorted),
        st.booleans(),
    )
    def test_sections_match_a_mask_per_section(self, positions, breaks, closed):
        nominal = fused([[0, 0, 0], [50.0, 20.0, 0], [80.0, -10.0, 5.0]])
        executed = fused(positions, closed=closed)
        rep = deviation_report(executed, nominal, section_breaks=tuple(breaks))
        devs = _point_to_polyline_mm(executed.positions, nominal.positions)
        walk = np.vstack([positions, positions[:1]]) if closed else positions
        cum = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(walk, axis=0), axis=1))])
        params = (cum / cum[-1] if cum[-1] > 0.0 else np.zeros(len(cum)))[: len(executed)]
        idx = np.searchsorted(np.array(breaks), params, side="right")
        want = []
        for s in range(len(breaks) + 1):
            mask = idx == s
            count = int(np.sum(mask))
            want.append((f"section_{s + 1}", float(np.max(devs[mask])) if count else 0.0, count))
        assert [(s.label, s.max_deviation_mm, s.point_count) for s in rep.sections] == want

    def test_json_text(self):
        nominal = fused([[0, 0, 0], [10.0, 0, 0]])
        executed = fused([[0, 0, 0], [5.0, 1.5, 0], [10.0, 0, 0]])
        assert deviation_report(executed, nominal, section_breaks=(0.6,), tolerance_mm=1.0).to_json() == (
            "{\n"
            '  "tolerance_mm": 1.0,\n'
            '  "overall_max_mm": 1.5,\n'
            '  "within_tolerance": false,\n'
            '  "sections": [\n'
            "    {\n"
            '      "label": "section_1",\n'
            '      "max_deviation_mm": 1.5,\n'
            '      "point_count": 2\n'
            "    },\n"
            "    {\n"
            '      "label": "section_2",\n'
            '      "max_deviation_mm": 0.0,\n'
            '      "point_count": 1\n'
            "    }\n"
            "  ]\n"
            "}\n"
        )

    def test_errors(self):
        a = fused([[0, 0, 0], [10.0, 0, 0]])
        b = fused([[0, 0, 0], [10.0, 0, 0]], frame=Frame.S)
        with pytest.raises(FrameMismatchError):
            deviation_report(a, b)
        with pytest.raises(ValueError):
            deviation_report(a, a, tolerance_mm=0.0)
        with pytest.raises(ValueError):
            deviation_report(a, a, section_breaks=(0.0,))
        with pytest.raises(ValueError):
            deviation_report(a, a, section_breaks=(1.0,))
        with pytest.raises(ValueError):
            deviation_report(a, a, section_breaks=(0.5, 0.5))
        with pytest.raises(ValueError):
            deviation_report(a, a, section_breaks=(0.6, 0.4))


def _measured_pairs(monkeypatch) -> list[int]:
    """The pair count of every ``_sq_gaps`` call from now on: one per nearest-block measurement and one per slice."""
    counts, measure = [], program._sq_gaps
    monkeypatch.setattr(program, "_sq_gaps", lambda p, *rest: counts.append(len(p)) or measure(p, *rest))
    return counts


def _same(points, poly):
    """The block-pruned search gives exactly the all-pairs distances, NaN where they are NaN."""
    points, poly = np.asarray(points, dtype=float), np.asarray(poly, dtype=float)
    with np.errstate(all="ignore"):
        want = oracles.point_to_polyline_all_pairs(points, poly)
        got = _point_to_polyline_mm(points, poly)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)


def _polygon(sides, radius=100.0):
    a = np.linspace(0.0, 2.0 * np.pi, sides + 1)
    poly = np.column_stack([radius * np.cos(a), radius * np.sin(a), np.zeros(sides + 1)])
    poly[-1] = poly[0]
    return poly


class TestBlockPrune:
    def test_loop_with_jitter(self):
        poly = _polygon(1200, 300.0)
        points = poly[:-1] + np.random.default_rng(1).uniform(-1.0, 1.0, (1200, 3))
        _same(points, poly)

    def test_zero_length_segments(self):
        rng = np.random.default_rng(2)
        poly = np.cumsum(rng.uniform(-5.0, 5.0, (70, 3)), axis=0)
        poly[10:14] = poly[10]  # three zero-length segments in a row
        poly[40] = poly[39]
        _same(rng.uniform(-40.0, 40.0, (300, 3)), poly)
        _same(np.zeros((3, 3)), np.zeros((40, 3)))  # every segment a point

    def test_closed_loop_and_its_vertices(self):
        poly = _polygon(97)
        _same(poly, poly)
        _same(poly * 1.01 + [0.0, 0.0, 0.5], poly)

    def test_self_approaching_spiral(self):
        a = np.linspace(0.0, 12.0 * np.pi, 500)
        r = 100.0 - 2.0 * a  # successive turns 12.6 mm apart
        poly = np.column_stack([r * np.cos(a), r * np.sin(a), 0.1 * a])
        rng = np.random.default_rng(3)
        _same(poly[::7] + rng.uniform(-6.0, 6.0, (72, 3)), poly)
        _same(rng.uniform(-110.0, 110.0, (400, 3)), poly)

    @pytest.mark.parametrize("sides", [16, 17, 64, 200])
    def test_centre_of_regular_polygon(self, sides):
        # every block is as far from the centre as every other: none can be pruned
        poly = _polygon(sides)
        _same(np.zeros((1, 3)), poly)
        _same([[0.0, 0.0, 5.0], [1e-9, -1e-9, 0.0]], poly)

    @pytest.mark.parametrize("segments", [1, 2, 15, 16, 17, 31, 33, 47])
    def test_segment_counts(self, segments):
        rng = np.random.default_rng(segments)
        poly = np.cumsum(rng.uniform(-10.0, 10.0, (segments + 1, 3)), axis=0)
        _same(rng.uniform(-60.0, 60.0, (50, 3)), poly)

    @pytest.mark.parametrize("pairs", [1, 40, 100, 400, 1000, 1 << 18])
    def test_point_counts_across_the_chunk_size(self, monkeypatch, pairs):
        # 40 segments make 3 blocks: passes of max(1, pairs // 16) points, at most _BOUNDS // 3,
        # and slices of whole points with at most `pairs` pairs unless one point alone has more.
        # At 40 and 100 some passes take two slices; at 400 a pass holds 25 points, so 24, 25 and
        # 26 straddle it.
        monkeypatch.setattr(program, "_PAIRS", pairs)
        rng = np.random.default_rng(pairs)
        poly = np.cumsum(rng.uniform(-10.0, 10.0, (41, 3)), axis=0)
        for n in (1, 24, 25, 26, 77):
            _same(rng.uniform(-60.0, 60.0, (n, 3)), poly)

    def test_dense_log(self):
        # 2.5 executed points per segment, as a log sampled faster than the nominal path
        poly = _polygon(2400, 300.0)
        a = np.linspace(0.0, 2.0 * np.pi, 6000, endpoint=False)
        points = np.column_stack([300.0 * np.cos(a), 300.0 * np.sin(a), np.zeros(6000)])
        _same(points + np.random.default_rng(5).uniform(-1.0, 1.0, (6000, 3)), poly)

    def test_memory_when_nothing_can_be_skipped(self):
        # Points at the centre of a regular 4,000-gon keep every block: a pass's 32 points hold
        # 127k pairs, about 15 MB of work space if measured in one piece.  The bound is the
        # search's peak before passes were sized by blocks (5,900,757 bytes) plus 1 MiB.
        poly = _polygon(4000)
        points = np.random.default_rng(4).uniform(-1e-3, 1e-3, (300, 3))
        tracemalloc.start()
        try:
            _point_to_polyline_mm(points, poly)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_900_757 + 2**20
        _same(points, poly)

    @pytest.mark.parametrize("scale", [1e-160, 1e-3, 1e6, 1e150, 1e154, 1e300, 1e308])
    def test_extreme_coordinates(self, scale):
        rng = np.random.default_rng(7)
        walk = np.cumsum(rng.uniform(-0.5, 0.5, (50, 3)), axis=0)
        poly = walk / np.max(np.abs(walk)) * 1.5 * scale  # finite up to 1.5e308
        _same(rng.uniform(-1.7, 1.7, (60, 3)) * scale, poly)
        _same(poly[::3] + rng.uniform(-0.01, 0.01, (17, 3)) * scale, poly)

    def test_non_finite_points(self):
        points = np.array([[np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0], [0.0, -np.inf, 1.0], [10.0, 20.0, 0.0]])
        _same(points, _polygon(40))


@settings(deadline=None, max_examples=150)
@given(
    hnp.arrays(np.float64, st.tuples(st.integers(2, 60), st.just(3)), elements=st.floats(-8.0, 8.0)),
    hnp.arrays(np.float64, st.tuples(st.integers(1, 40), st.just(3)), elements=st.floats(-60.0, 60.0)),
    st.sampled_from([1e-160, 1e-6, 1.0, 1e3, 1e12, 1e154, 1e300]),
    st.booleans(),
)
def test_block_prune_matches_all_pairs(steps, points, scale, walk):
    poly = np.cumsum(steps, axis=0) if walk else steps * 6.0  # a path, or vertices anywhere
    _same(points * scale, poly * scale)


class TestMovel:
    rows = [
        (-0.0, 5e-7, -5e-7, 5e-4, -5e-4, 1e15, 0.0),
        (-0.0004, 0.0005, -0.0005, 0.0015, -1e15, 123.4565, 2.5e-4),
        (1.0, -2.0, 3.0, 1e-300, -1e-300, 359.9995, 100.0),
    ]

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_lines_match_per_row_format(self, n):
        points = np.array(self.rows[:n], dtype=float).reshape(n, 7)
        assert _movel_lines([points]) == [oracles.movel_lines(points)]

    @settings(deadline=None, max_examples=60)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(0, 12), st.just(7)), elements=st.floats(-1e16, 1e16)))
    def test_lines_match_per_row_format_hypothesis(self, points):
        assert _movel_lines([points]) == [oracles.movel_lines(points)]

    @pytest.mark.parametrize("doc", [d for _, d in shared_column_docs()],
                             ids=[name for name, _ in shared_column_docs()])
    def test_programs_of_documents_with_shared_columns_match_per_row_format(self, doc):
        comments = ["# process_type: other", "# layer_height_mm: 2.000"]
        want = oracles.program_lines(doc.project_name, comments, plain_layers(doc))
        assert emitted(doc).text == "\n".join(want) + "\n"

    def test_tracks_of_zero_and_one_row_match_per_row_format(self):
        rows = np.array(self.rows)
        tracks = [rows[:0], rows[:1], rows, rows[:1], rows[:0], rows[::-1], rows[1:2]]
        assert _movel_lines(tracks) == [oracles.movel_lines(t) for t in tracks]

    def test_program_moves_match_per_row_format(self):
        doc = doc_with_points(self.rows)
        moves = [line for line in emitted(doc).lines if line.startswith("MOVEL")]
        assert moves == oracles.movel_lines(doc.layers[0].tracks[0].points)
